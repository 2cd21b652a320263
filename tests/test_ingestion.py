import tracemalloc
from datetime import date, timedelta

import pytest

from conftest import write_clinical_events
from tedpc.concept_registry import Domain
from tedpc.errors import DataFormatError
from tedpc.ingestion import (
    ClinicalEvent,
    event_pairs,
    load_events,
    load_persons,
    write_events,
    write_persons,
)


def write(path, text):
    path.write_text(text)
    return path


def sorted_pairs(flat):
    """A loaded person's events as `(day, concept id)` pairs sorted by day then concept id."""
    return sorted(event_pairs(flat))


def registry_domains(registry):
    """The concept map `load_events` takes: each registry concept with its registry domain."""
    return {spec.concept_id: spec.domain for spec in registry}


PERSON_HEADER = "person_id,birth_date,sex,race,ethnicity\n"
EVENT_HEADER = "person_id,concept_id,domain,event_date\n"


class TestLoadPersons:
    def test_single_row(self, tmp_path):
        path = write(tmp_path / "p.csv", PERSON_HEADER + "1,1990-05-01,F,White,Not Hispanic or Latino\n")
        persons = load_persons(path)
        assert persons[1].birth_date == date(1990, 5, 1)

    def test_invalid_month_names_row(self, tmp_path):
        path = write(tmp_path / "p.csv", PERSON_HEADER + "1,2020-13-01,F,White,x\n")
        with pytest.raises(DataFormatError, match=r"p.csv:2"):
            load_persons(path)

    def test_identical_duplicates_collapse(self, tmp_path):
        row = "1,1990-05-01,F,White,x\n"
        path = write(tmp_path / "p.csv", PERSON_HEADER + row + row)
        assert len(load_persons(path)) == 1

    def test_conflicting_duplicates_fail(self, tmp_path):
        path = write(
            tmp_path / "p.csv",
            PERSON_HEADER + "1,1990-05-01,F,White,x\n1,1991-05-01,F,White,x\n",
        )
        with pytest.raises(DataFormatError, match="conflicting duplicate"):
            load_persons(path)

    def test_future_birth_date_fails(self, tmp_path):
        path = write(tmp_path / "p.csv", PERSON_HEADER + "1,2999-01-01,F,White,x\n")
        with pytest.raises(DataFormatError, match="birth_date"):
            load_persons(path)

    def test_birth_date_bound_is_today(self, tmp_path):
        today = date.today()
        path = write(tmp_path / "p.csv", PERSON_HEADER + f"1,{today.isoformat()},F,White,x\n")
        assert load_persons(path)[1].birth_date == today
        path = write(tmp_path / "p.csv", PERSON_HEADER + f"1,{(today + timedelta(days=1)).isoformat()},F,White,x\n")
        with pytest.raises(DataFormatError, match=r"p.csv:2: birth_date"):
            load_persons(path)

    def test_bad_header_fails(self, tmp_path):
        path = write(tmp_path / "p.csv", "person,dob\n1,1990-01-01\n")
        with pytest.raises(DataFormatError, match="bad header"):
            load_persons(path)

    def test_repeated_values_are_shared(self, tmp_path):
        rows = [
            f"{pid},{birth},{sex},{race},Not Hispanic or Latino\n"
            for pid, (birth, sex, race) in enumerate(
                [
                    ("1990-05-01", "Female", "White"),
                    ("1991-06-02", "Female", "Asian"),
                    ("1990-05-01", "Male", "White"),
                    ("1991-06-02", "Male", "Asian"),
                    ("1990-05-01", "Female", "Asian"),
                ],
                start=1,
            )
        ]
        persons = load_persons(write(tmp_path / "p.csv", PERSON_HEADER + "".join(rows))).values()
        # One object per distinct value: as many ids as values.
        for field in ("birth_date", "sex", "race", "ethnicity"):
            values = [getattr(p, field) for p in persons]
            assert len({id(v) for v in values}) == len(set(values)), field


class TestLoadEvents:
    def test_sorted_by_date_then_concept(self, tmp_path):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER
            + "1,500,Condition,2020-01-02\n"
            + "1,400,Condition,2020-01-01\n"
            + "1,500,Condition,2020-01-01\n",
        )
        table = load_events(path, {400: None, 500: None})
        jan1, jan2 = date(2020, 1, 1).toordinal(), date(2020, 1, 2).toordinal()
        assert list(event_pairs(table.events_by_person[1])) == [(jan2, 500), (jan1, 400), (jan1, 500)]
        assert sorted_pairs(table.events_by_person[1]) == [(jan1, 400), (jan1, 500), (jan2, 500)]

    def test_unknown_person_quarantined(self, tmp_path):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER + "1,400,Condition,2020-01-01\n2,400,Condition,2020-01-01\n",
        )
        table = load_events(path, {400: None}, known_persons={1})
        assert len(table.quarantined) == 1
        assert table.quarantined == [(2, date(2020, 1, 1).toordinal(), 400, Domain.CONDITION)]

    def test_row_conservation(self, tmp_path):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER
            + "1,400,Condition,2020-01-01\n"
            + "2,400,Condition,2020-01-02\n"
            + "3,400,Condition,2020-01-03\n",
        )
        table = load_events(path, {400: None}, known_persons={1, 3})
        grouped = sum(len(sorted_pairs(v)) for v in table.events_by_person.values())
        assert grouped + len(table.quarantined) == table.total_rows == 3

    def test_unparseable_row_names_line(self, tmp_path):
        path = write(tmp_path / "e.csv", EVENT_HEADER + "1,400,Condition,2020-01-01\n1,xx,Condition,2020-01-01\n")
        with pytest.raises(DataFormatError, match=r"e.csv:3"):
            load_events(path, {400: None})

    def test_empty_date_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", EVENT_HEADER + "1,400,Condition,\n")
        with pytest.raises(DataFormatError, match=r"e.csv:2"):
            load_events(path, {400: None})

    @pytest.mark.parametrize("text", ["20200503", "2020-W19-7", "2020-5-3", "２０２０-05-03", "+202-05-03", "2020-05-03 "])
    def test_date_other_than_yyyy_mm_dd_rejected(self, tmp_path, text):
        path = write(tmp_path / "e.csv", EVENT_HEADER + f"1,400,Condition,2020-05-03\n1,400,Condition,{text}\n")
        with pytest.raises(DataFormatError, match=r"e.csv:3: "):
            load_events(path, {400: None})

    def test_date_outside_window_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", EVENT_HEADER + "1,400,Condition,1899-12-31\n")
        with pytest.raises(DataFormatError, match="outside"):
            load_events(path, {400: None})

    def test_unknown_domain_rejected(self, tmp_path):
        path = write(tmp_path / "e.csv", EVENT_HEADER + "1,400,Widget,2020-01-01\n")
        with pytest.raises(DataFormatError):
            load_events(path, {400: None})

    def test_domain_mismatch_counted_not_dropped(self, tmp_path, ga_registry):
        # 444098 is a Condition concept in the registry.
        path = write(tmp_path / "e.csv", EVENT_HEADER + "1,444098,Observation,2020-01-01\n")
        table = load_events(path, registry_domains(ga_registry))
        assert table.domain_mismatches == 1
        assert sum(len(sorted_pairs(v)) for v in table.events_by_person.values()) == 1

    def test_repeated_concept_id_is_one_object(self, tmp_path):
        # Above the interpreter's small-int cache, so only a memo makes them one object.
        rows = "".join(f"{pid},4128331,Condition,2020-01-0{day}\n" for pid in (1, 2) for day in (1, 2, 3))
        table = load_events(write(tmp_path / "e.csv", EVENT_HEADER + rows), {4128331: None})
        concept_ids = [
            concept_id for events in table.events_by_person.values() for _, concept_id in sorted_pairs(events)
        ]
        assert len(concept_ids) == 6
        assert all(concept_id is concept_ids[0] for concept_id in concept_ids)

    def test_reload_is_deterministic(self, tmp_path):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER
            + "2,401,Condition,2020-03-01\n"
            + "1,400,Procedure,2020-01-01\n"
            + "1,399,Observation,2020-01-01\n",
        )
        concepts = dict.fromkeys([399, 400, 401])
        first = load_events(path, concepts)
        second = load_events(path, concepts)
        assert first.events_by_person == second.events_by_person


class TestEventTableMemory:
    def test_grouped_events_cost_no_object_each(self, tmp_path, ga_registry, dod_registry):
        # A person's events are one flat list of shared ints: each further event
        # costs its two list slots, about 16 bytes; a tuple per event costs 64 or more.
        from tedpc.synthgen import SynthConfig, generate_cohort

        cohort = generate_cohort(SynthConfig(seed=3, n_persons=2000), ga_registry, dod_registry)
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        write_events(once, cohort.flat_events, cohort.domains)
        write_events(twice, cohort.flat_events + cohort.flat_events, cohort.domains)

        concepts = dict.fromkeys(cohort.flat_events[2::3])

        def traced_size(path):
            tracemalloc.start()
            try:
                table = load_events(path, concepts)
                return tracemalloc.get_traced_memory()[0], table
            finally:
                tracemalloc.stop()

        (size_once, table), (size_twice, doubled) = traced_size(once), traced_size(twice)
        assert doubled.events_by_person.keys() == table.events_by_person.keys()
        added = doubled.total_rows - table.total_rows
        assert added == table.total_rows > 20_000
        assert (size_twice - size_once) / added < 32


class TestWriters:
    def test_event_round_trip_canonical_order(self, tmp_path):
        events = [
            ClinicalEvent(2, 5, Domain.CONDITION, date(2020, 1, 1)),
            ClinicalEvent(1, 9, Domain.PROCEDURE, date(2020, 2, 1)),
            ClinicalEvent(1, 3, Domain.CONDITION, date(2020, 1, 1)),
        ]
        path = tmp_path / "e.csv"
        write_clinical_events(path, events)
        table = load_events(path, dict.fromkeys([3, 5, 9]))
        assert {person_id: sorted_pairs(events) for person_id, events in table.events_by_person.items()} == {
            1: [(date(2020, 1, 1).toordinal(), 3), (date(2020, 2, 1).toordinal(), 9)],
            2: [(date(2020, 1, 1).toordinal(), 5)],
        }
        assert table.total_rows == 3

    def test_person_round_trip(self, tmp_path):
        from tedpc.ingestion import Person

        persons = [Person(5, date(1985, 2, 28), "F", "Asian", "Not Hispanic or Latino")]
        path = tmp_path / "p.csv"
        write_persons(path, persons)
        assert load_persons(path)[5] == persons[0]


class TestConceptFilter:
    ROWS = (
        "3,500,Condition,2020-02-01\n"
        "1,444098,Observation,2020-01-05\n"
        "1,400,Procedure,2020-01-02\n"
        "2,401,Condition,2020-03-01\n"
        "1,500,Condition,2020-01-01\n"
        "2,500,Observation,2020-01-01\n"
        "4,401,Condition,2020-03-01\n"
        "1,400,Condition,2020-01-01\n"
    )

    @pytest.mark.parametrize("wanted", [set(), {400}, {500, 401}, {400, 401, 500, 444098}, {999}])
    def test_groups_the_unfiltered_events_restricted_to_the_set(self, tmp_path, ga_registry, wanted):
        path = write(tmp_path / "e.csv", EVENT_HEADER + self.ROWS)
        # 444098 is a Condition concept in the GA registry; the others are checked against no domain.
        domains = registry_domains(ga_registry)
        full = load_events(path, {c: domains.get(c) for c in (400, 401, 500, 444098)}, known_persons={1, 2, 3})
        filtered = load_events(path, {c: domains.get(c) for c in wanted}, known_persons={1, 2, 3})
        restricted = {
            person_id: [(day, concept_id) for day, concept_id in sorted_pairs(events) if concept_id in wanted]
            for person_id, events in full.events_by_person.items()
        }
        grouped = {person_id: sorted_pairs(events) for person_id, events in filtered.events_by_person.items()}
        assert grouped == {pid: events for pid, events in restricted.items() if events}
        assert (full.total_rows, full.domain_mismatches) == (8, 1)
        # Only a grouped event is checked against its concept's domain.
        assert (filtered.total_rows, filtered.domain_mismatches) == (8, int(444098 in wanted))
        assert filtered.quarantined == full.quarantined and len(full.quarantined) == 1

    def test_one_map_selects_the_events_and_their_domain_checks(self, tmp_path):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER
            + "1,400,Procedure,2020-01-01\n"
            + "1,400,Drug,2020-01-02\n"
            + "1,500,Condition,2020-01-03\n"
            + "1,500,Observation,2020-01-04\n"
            + "1,600,Measurement,2020-01-05\n"
            + "2,600,Condition,2020-01-06\n",
        )
        # 400 maps to None: grouped, never a mismatch. 500 maps to a domain: grouped, and a mismatch
        # where a row's domain differs. 600 is outside the map: counted, not grouped, never a mismatch.
        table = load_events(path, {400: None, 500: Domain.CONDITION})
        day = date(2020, 1, 1).toordinal()
        assert {person_id: list(event_pairs(flat)) for person_id, flat in table.events_by_person.items()} == {
            1: [(day, 400), (day + 1, 400), (day + 2, 500), (day + 3, 500)]
        }
        assert (table.total_rows, table.domain_mismatches, table.quarantined) == (6, 1, [])
        # A row outside the map is still parsed and checked.
        bad = write(tmp_path / "bad.csv", EVENT_HEADER + "1,400,Procedure,2020-01-01\n2,600,Condition,2020-13-01\n")
        with pytest.raises(DataFormatError, match=r"bad.csv:3: "):
            load_events(bad, {400: None})

    @pytest.mark.parametrize("wanted", [{}, {400: None}])
    @pytest.mark.parametrize("bad", ["2020-02-30", "1899-12-31"], ids=["bad-date", "out-of-range"])
    def test_repeated_bad_date_reported_at_first_line(self, tmp_path, wanted, bad):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER
            + "1,400,Condition,2020-01-01\n"
            + "1,400,Condition,2020-01-01\n"
            + f"1,500,Condition,{bad}\n"
            + f"1,400,Condition,{bad}\n",
        )
        with pytest.raises(DataFormatError, match=r"e.csv:4: "):
            load_events(path, wanted)

    def test_repeated_bad_domain_reported_at_first_line(self, tmp_path):
        path = write(
            tmp_path / "e.csv",
            EVENT_HEADER + "1,400,Condition,2020-01-01\n1,500,Widget,2020-01-01\n1,400,Widget,2020-01-01\n",
        )
        with pytest.raises(DataFormatError, match=r"e.csv:3: unknown domain 'Widget'"):
            load_events(path, {400: None})


class TestFirstEventDays:
    ROWS = TestConceptFilter.ROWS

    def test_earliest_day_per_person_and_label(self, tmp_path):
        path = write(tmp_path / "e.csv", EVENT_HEADER + self.ROWS)
        # 400 counts toward two labels; 444098 toward none.
        firsts = load_events(path, {}, labels={400: (None, "b"), 401: ("b",), 500: ("a",)}).first_days

        def day(text):
            return date.fromisoformat(text).toordinal()

        assert firsts == {
            None: {1: day("2020-01-01")},
            "a": {1: day("2020-01-01"), 2: day("2020-01-01"), 3: day("2020-02-01")},
            "b": {1: day("2020-01-01"), 2: day("2020-03-01"), 4: day("2020-03-01")},
        }

    @pytest.mark.parametrize(
        "row",
        [
            "x,400,Condition,2020-01-01",
            "1,4x0,Condition,2020-01-01",
            "1,444098,Widget,2020-01-01",
            "1,444098,Condition,2020-13-01",
            "1,444098,Condition,1899-12-31",
            "1,444098,Condition",
            "x,4x0,Widget,2020-13-01",
            "1,4x0,Widget,2020-13-01",
            "1,400,Widget,2020-13-01",
        ],
    )
    def test_bad_row_fails_as_in_load_events(self, tmp_path, row):
        path = write(tmp_path / "e.csv", EVENT_HEADER + self.ROWS + row + "\n" + self.ROWS)
        with pytest.raises(DataFormatError) as grouped:
            load_events(path, {400: None})
        with pytest.raises(DataFormatError) as first:
            load_events(path, {}, labels={400: (None,)})
        assert str(first.value) == str(grouped.value) and "e.csv:10: " in str(first.value)
