"""`apply_cohort_filters` keeps and excludes exactly the episodes of the reference written from README.

Births are drawn with February 29 among them and near the years that put a
mother at 15 or 49 inside the delivery window; deliveries fall on the
window's edges, on a mother's birthday or the day either side of it, or
anywhere near the window. Some mothers are missing from the persons table.
"""

import calendar
from datetime import date, timedelta

import pytest

from oracles import cohort_filters_reference
from tedpc.episode_builder import PregnancyEpisode, apply_cohort_filters, extreme_flag_of
from tedpc.ingestion import Person

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# The window's first and last days, and the day either side of each.
EDGES = [edge + timedelta(days=offset) for edge in (date(2018, 6, 1), date(2021, 5, 31)) for offset in (-1, 0, 1)]
# Births in these years put a mother at 15 or 49, give or take a year, somewhere in the window.
BIRTH_YEARS = st.integers(1960, 2010) | st.sampled_from([1968, 1969, 1970, 1971, 1972, 2002, 2003, 2004, 2005, 2006])


@st.composite
def births(draw):
    year = draw(BIRTH_YEARS)
    days = st.dates(date(year, 1, 1), date(year, 12, 31))
    if calendar.isleap(year):
        days |= st.just(date(year, 2, 29))
    return draw(days)


def near_birthday(birth, year, offset):
    """`offset` days from the birthday in `year`, March 1 standing in for February 29 in a common year."""
    try:
        birthday = birth.replace(year=year)
    except ValueError:
        birthday = date(year, 3, 1)
    return birthday + timedelta(days=offset)


def deliveries(birth):
    return (
        st.sampled_from(EDGES)
        | st.builds(near_birthday, st.just(birth), st.integers(2017, 2022), st.integers(-1, 1))
        | st.dates(date(2017, 1, 1), date(2022, 12, 31))
    )


@st.composite
def cohorts(draw):
    persons, episodes = {}, []
    for person_id in range(1, draw(st.integers(1, 8)) + 1):
        birth = draw(births())
        if draw(st.integers(0, 5)):
            persons[person_id] = Person(person_id, birth.toordinal(), "F", "White", "Not Hispanic or Latino")
        for index, dod in enumerate(draw(st.lists(deliveries(birth), min_size=1, max_size=3)), start=1):
            day = dod.toordinal()
            episodes.append(PregnancyEpisode(person_id, index, day - 280, day, 280, 3, 1, extreme_flag_of(280), False))
    return draw(st.permutations(episodes)), persons


@settings(max_examples=200, deadline=None)
@given(cohorts())
def test_filters_match_the_reference(cohort):
    episodes, persons = cohort
    assert apply_cohort_filters(episodes, persons) == cohort_filters_reference(episodes, persons)
