"""`anchor_and_absorb` returns exactly the clusters of the plain rescanning reference, and its anchors, so each
engine's starts and deliveries, lie more than the window apart.

`pipeline` does not re-check that separation per person: these properties are its guarantee.
"""

from datetime import date

import pytest

from oracles import anchor_and_absorb_reference
from tedpc.concept_registry import (
    default_dod_concepts_path,
    default_ga_concepts_path,
    load_dod_concepts,
    load_ga_concepts,
)
from tedpc.dod_engine import infer_delivery_dates, rank_table
from tedpc.ga_engine import anchor_and_absorb, build_candidates, candidate_table, infer_gestation_starts

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Narrow values repeat often, so duplicates and clusters that touch at the window's edge are common.
positions = st.lists(st.integers(-1500, 1500) | st.integers(-5, 5), max_size=60)
# Narrow windows meet narrow positions, so gaps of exactly the window are common too.
windows = st.integers(1, 400) | st.integers(1, 5)

GA_TABLE = candidate_table(load_ga_concepts(default_ga_concepts_path()))
DOD_RANKS = rank_table(load_dod_concepts(default_dod_concepts_path()))
BASE_DAY = date(2018, 6, 1).toordinal()


def events_of(concepts):
    """One person's `(day, concept id)` events: days near a base day, concepts from a shipped set."""
    days = st.integers(0, 1500) | st.integers(0, 10)
    return st.lists(st.tuples(days.map(BASE_DAY.__add__), st.sampled_from(sorted(concepts))), max_size=40)


def assert_separated(days, window_days):
    ordered = sorted(days)
    assert all(b - a > window_days for a, b in zip(ordered, ordered[1:])), (ordered, window_days)


@settings(max_examples=500, deadline=None)
@given(positions=positions, window_days=st.integers(1, 400))
def test_matches_reference(positions, window_days):
    assert anchor_and_absorb(positions, window_days) == anchor_and_absorb_reference(positions, window_days)


@settings(max_examples=500, deadline=None)
@given(positions=positions, window_days=windows)
def test_anchors_are_more_than_the_window_apart(positions, window_days):
    anchors = [positions[i] for i, _ in anchor_and_absorb(positions, window_days)]
    assert_separated(anchors, window_days)


@settings(max_examples=300, deadline=None)
@given(events=events_of(GA_TABLE), window_days=windows)
def test_gestation_starts_are_more_than_the_window_apart(events, window_days):
    starts = infer_gestation_starts(1, build_candidates(events, GA_TABLE), window_days=window_days)
    assert_separated([s.start_day for s in starts], window_days)


@settings(max_examples=300, deadline=None)
@given(events=events_of(DOD_RANKS), window_days=windows)
def test_delivery_days_are_more_than_the_window_apart(events, window_days):
    records = infer_delivery_dates(1, events, DOD_RANKS, window_days=window_days)
    assert_separated([r.dod_day for r in records], window_days)
