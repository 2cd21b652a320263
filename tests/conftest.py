from datetime import date

import numpy as np
import pytest

from tedpc.concept_registry import (
    default_dod_concepts_path,
    default_ga_concepts_path,
    load_dod_concepts,
    load_ga_concepts,
)
from tedpc.dod_engine import rank_table
from tedpc.ga_engine import candidate_table
from tedpc.ingestion import write_events


@pytest.fixture(scope="session")
def ga_registry():
    return load_ga_concepts(default_ga_concepts_path())


@pytest.fixture(scope="session")
def dod_registry():
    return load_dod_concepts(default_dod_concepts_path())


@pytest.fixture(scope="session")
def ga_table(ga_registry):
    return candidate_table(ga_registry)


@pytest.fixture(scope="session")
def dod_ranks(dod_registry):
    return rank_table(dod_registry)


def event_triples(cohort):
    """A generated cohort's events as (person id, day ordinal, concept id) triples, in write order."""
    fields = iter(cohort.flat_events)
    return list(zip(fields, fields, fields))


def write_clinical_events(path, events):
    """Write ClinicalEvents, rows in the order given, as `ingestion.write_events` takes them: flat ints and domains."""
    flat = [field for e in events for field in (e.person_id, e.event_date.toordinal(), e.concept_id)]
    domains = {e.concept_id: e.domain for e in events}
    assert len(domains) == len({(e.concept_id, e.domain) for e in events}), "one domain per concept"
    write_events(path, flat, domains)


def random_events(rng: np.random.Generator, registry, max_events=10):
    """Random (day ordinal, concept id) events for one person, drawn from a shipped concept set."""
    specs = list(registry)
    n = int(rng.integers(0, max_events + 1))
    base = date(2018, 6, 1).toordinal()
    events = []
    for _ in range(n):
        spec = specs[int(rng.integers(0, len(specs)))]
        events.append((base + int(rng.integers(0, 1100)), spec.concept_id))
    return sorted(events)


def render_table(header, data, blanks, mutated, quoted, final_newline, bom):
    """A table's text: header and data rows, one field replaced or dropped (`mutated`), blank lines inserted.

    `mutated` is None or `(row, field, text)`, the row counted from the header
    and both taken modulo the count; a None text drops the field. Quoted
    tables quote every field and end lines in CRLF.
    """
    lines = [list(header), *data]
    if mutated is not None:
        at, field, text = mutated
        fields = lines[at % len(lines)]
        if text is None:
            del fields[field % len(fields)]
        else:
            fields[field % len(fields)] = text
    for at in sorted(blanks, reverse=True):
        lines.insert(at % (len(lines) + 1), [])
    if quoted:
        texts = ["" if not fields else ",".join(f'"{text}"' for text in fields) for fields in lines]
        end = "\r\n"
    else:
        texts = [",".join(fields) for fields in lines]
        end = "\n"
    text = end.join(texts) + (end if final_newline else "")
    return ("\ufeff" if bom else "") + text
