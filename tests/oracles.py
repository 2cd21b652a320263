"""Independent brute-force references used to cross-check the engines.

Deliberately naive re-implementations of the selection/removal rules. They
share no code with the package: gestation medians come from decimal
arithmetic, clustering scans plain lists, and domain ranks are literal. The
exceptions pin a fast path to the plain one it replaced. `load_events_reference`
pins the block scanner of `ingestion.load_events` to a row loop: it shares the
field parsers and `csvio.table`, the source of every row error, but none of the
block code; `episodes_reference` and `persons_reference` do the same for
`read_episodes` and `load_persons`. `noise_log_reference`, `truth_reference`,
`episodes_csv_reference` and `timing_csv_reference` pin the text writers to a
list per row through `csvio.write_rows`.
"""

import re
from collections import namedtuple
from datetime import date
from decimal import ROUND_HALF_UP, Decimal


def median_days(week_low: int, week_high: int) -> int:
    value = Decimal(7) * (Decimal(week_low) + Decimal(week_high)) / Decimal(2)
    return int(value.to_integral_value(rounding=ROUND_HALF_UP))


def ga_reference(candidates, window=270, conflict=14):
    """candidates: dicts with event_date, concept_id, rank, week_low, week_high.

    Returns dicts with start, anchor, size, conflict, sorted by start.
    """
    pool = []
    for cand in candidates:
        start = date.fromordinal(
            cand["event_date"].toordinal() - median_days(cand["week_low"], cand["week_high"])
        )
        pool.append({**cand, "start": start})
    out = []
    while pool:
        best = min(pool, key=lambda c: (c["rank"], c["event_date"], c["concept_id"]))
        cluster = [c for c in pool if abs((c["start"] - best["start"]).days) <= window]
        pool = [c for c in pool if abs((c["start"] - best["start"]).days) > window]
        flag = any(
            c["rank"] == 1 and abs((c["start"] - best["start"]).days) > conflict for c in cluster
        )
        out.append(
            {
                "start": best["start"],
                "anchor": best["concept_id"],
                "anchor_rank": best["rank"],
                "member_ranks": sorted(c["rank"] for c in cluster),
                "size": len(cluster),
                "conflict": flag,
            }
        )
    return sorted(out, key=lambda r: r["start"])


def anchor_and_absorb_reference(positions, window_days):
    """The clustering primitive as first written: a bytearray of live indices, rescanned for each anchor."""
    alive = bytearray([1]) * len(positions)
    clusters = []
    for i in range(len(positions)):
        if not alive[i]:
            continue
        anchor = positions[i]
        members = []
        for j in range(len(positions)):
            if alive[j] and abs(positions[j] - anchor) <= window_days:
                alive[j] = 0
                members.append(j)
        clusters.append((i, members))
    return clusters


DOMAIN_RANK = {"Procedure": 1, "Condition": 2, "Observation": 3}


def dod_reference(events, window=270):
    """events: dicts with event_date, concept_id, domain (text).

    Returns dicts with dod, anchor, size, sorted latest first.
    """
    pool = [dict(e, rank=DOMAIN_RANK[e["domain"]]) for e in events]
    out = []
    while pool:
        best = min(pool, key=lambda e: (e["rank"], -e["event_date"].toordinal(), e["concept_id"]))
        cluster = [e for e in pool if abs((e["event_date"] - best["event_date"]).days) <= window]
        pool = [e for e in pool if abs((e["event_date"] - best["event_date"]).days) > window]
        out.append({"dod": best["event_date"], "anchor": best["concept_id"], "size": len(cluster)})
    return sorted(out, key=lambda r: r["dod"], reverse=True)


def match_reference(starts, dods, min_days=140, max_days=308):
    """starts/dods: plain dates. Returns (pairs, leftover_starts, leftover_dods)."""
    unused = list(starts)
    pairs = []
    unmatched = []
    for dod in sorted(dods, reverse=True):
        eligible = [s for s in unused if min_days <= (dod - s).days <= max_days]
        if not eligible:
            unmatched.append(dod)
            continue
        best = min(eligible, key=lambda s: (abs((dod - s).days - 280), s))
        unused.remove(best)
        pairs.append((best, dod))
    return sorted(pairs), sorted(unused), sorted(unmatched)


def kappa_reference(counts, linear):
    """Direct double-loop kappa; returns (kappa, p_o, p_e)."""
    k = len(counts)
    n = sum(sum(row) for row in counts)

    def weight(i, j):
        if linear:
            return 1.0 - abs(i - j) / (k - 1)
        return 1.0 if i == j else 0.0

    rows = [sum(row) for row in counts]
    cols = [sum(counts[i][j] for i in range(k)) for j in range(k)]
    p_o = sum(weight(i, j) * counts[i][j] for i in range(k) for j in range(k)) / n
    p_e = sum(weight(i, j) * rows[i] * cols[j] for i in range(k) for j in range(k)) / n**2
    if p_e == 1.0:
        return 1.0, p_o, p_e
    return (p_o - p_e) / (1.0 - p_e), p_o, p_e


TABLE_COLUMNS = [
    "Pre-pandemic (all)",
    "Peri-pandemic (all)",
    "Index before delivery: no",
    "Index before delivery: yes",
    "Index in weeks 1-27: no",
    "Index in weeks 1-27: yes",
    "Index in week 28+: no",
    "Index in week 28+: yes",
]
AGE_BAND_LIMITS = [(15, 19), (20, 24), (25, 29), (30, 34), (35, 39), (40, 44), (45, 49)]
RACE_ROWS = ["White", "Black", "Hispanic/Latino", "Asian", "NHOPI", "Other/unknown", "Multiracial"]
RACE_TEXT = {
    "white": "White",
    "black": "Black",
    "black or african american": "Black",
    "hispanic/latino": "Hispanic/Latino",
    "hispanic or latino": "Hispanic/Latino",
    "asian": "Asian",
    "nhopi": "NHOPI",
    "native hawaiian or other pacific islander": "NHOPI",
    "multiracial": "Multiracial",
    "multiple": "Multiracial",
}


# An episode with its start and delivery as dates, which the references below compare and subtract.
DatedEpisode = namedtuple("DatedEpisode", "person_id episode_index start_date dod gestation_days")


def _dated(episodes):
    """Each episode's start and delivery day ordinals as dates, converted here, at the references' own boundary."""
    return [
        DatedEpisode(ep.person_id, ep.episode_index, date.fromordinal(ep.start_day), date.fromordinal(ep.dod_day),
                     ep.gestation_days)
        for ep in episodes
    ]


def table_reference(
    episodes, persons, events_by_person, index_concepts, condition_sets,
    cutoff=date(2020, 3, 1), pre_window=None, peri_window=None,
):
    """Raw rows of the stratified table, counted cell by cell.

    episodes need person_id, episode_index, start_day, dod_day (day ordinals)
    and gestation_days; persons need birth_date, race, ethnicity; events need
    concept_id, event_date. Returns the header row, the totals row and one row
    per category, like csv_rows().
    """
    episodes = _dated(episodes)

    def stratum(dod):
        if pre_window is not None:
            if pre_window[0] <= dod <= pre_window[1]:
                return "pre"
            if peri_window[0] <= dod <= peri_window[1]:
                return "peri"
            return None
        return "pre" if dod < cutoff else "peri"

    def index_week(ep):
        hits = [
            e.event_date
            for e in events_by_person.get(ep.person_id, [])
            if e.concept_id in index_concepts and e.event_date <= ep.dod
        ]
        if not hits:
            return None
        first = min(hits)
        if first < ep.start_date:
            return 0
        return (first - ep.start_date).days // 7 + 1

    def in_column(ep, column):
        s = stratum(ep.dod)
        week = index_week(ep)
        early = week is not None and 1 <= week <= 27
        late = week is not None and week >= 28
        long_gestation = ep.gestation_days > 189
        return [
            s == "pre",
            s == "peri",
            s == "peri" and week is None,
            s == "peri" and week is not None,
            s == "peri" and not early,
            s == "peri" and early,
            s == "peri" and long_gestation and not late,
            s == "peri" and long_gestation and late,
        ][column]

    def age_band(ep):
        person = persons.get(ep.person_id)
        if person is None:
            return None
        birth = person.birth_date
        age = ep.dod.year - birth.year - ((ep.dod.month, ep.dod.day) < (birth.month, birth.day))
        for low, high in AGE_BAND_LIMITS:
            if low <= age <= high:
                return f"{low}-{high}"
        return None

    def race(ep):
        person = persons.get(ep.person_id)
        if person is None:
            return None
        words = re.split("[^a-z]+", person.ethnicity.lower())
        if "hispanic" in words and "not" not in words and "non" not in words:
            return "Hispanic/Latino"
        return RACE_TEXT.get(person.race.strip().lower(), "Other/unknown")

    def has_condition(ep, concept_ids):
        return any(
            e.concept_id in concept_ids and e.event_date <= ep.dod
            for e in events_by_person.get(ep.person_id, [])
        )

    def count(predicate):
        return [
            sum(1 for ep in episodes if in_column(ep, column) and predicate(ep))
            for column in range(len(TABLE_COLUMNS))
        ]

    rows = [["section", "category"] + TABLE_COLUMNS, ["total", "episodes"] + count(lambda ep: True)]
    for low, high in AGE_BAND_LIMITS:
        band = f"{low}-{high}"
        rows.append(["Age group", band] + count(lambda ep: age_band(ep) == band))
    for category in RACE_ROWS:
        rows.append(["Race", category] + count(lambda ep: race(ep) == category))
    for name in sorted(condition_sets):
        concept_ids = condition_sets[name]
        rows.append([name, "No"] + count(lambda ep: not has_condition(ep, concept_ids)))
        rows.append([name, "Yes"] + count(lambda ep: has_condition(ep, concept_ids)))
    return rows


def _index_days(ep, events_by_person, index_concepts):
    """(date, concept id) of every index event of the person dated on or before the delivery, sorted."""
    return sorted(
        (e.event_date, e.concept_id)
        for e in events_by_person.get(ep.person_id, [])
        if e.concept_id in index_concepts and e.event_date <= ep.dod
    )


def _week(ep, day):
    return 0 if day < ep.start_date else (day - ep.start_date).days // 7 + 1


def timeline_reference(episodes, events_by_person, index_concepts):
    """Data rows of timing.csv, one per index event on or before each delivery.

    episodes need person_id, episode_index, start_day, dod_day (day ordinals)
    and gestation_days; events need concept_id, event_date. Rows come in
    (person, episode index, date, concept) order. Week 0 is "pre"; weeks 1-13
    are "first", 14-27 "second" and later weeks "third".
    """
    rows = []
    for ep in sorted(_dated(episodes), key=lambda ep: (ep.person_id, ep.episode_index)):
        for day, concept_id in _index_days(ep, events_by_person, index_concepts):
            week = _week(ep, day)
            trimester = "pre" if week == 0 else "first" if week <= 13 else "second" if week <= 27 else "third"
            rows.append([ep.person_id, ep.episode_index, concept_id, day.isoformat(), week, trimester])
    return rows


def histogram_reference(episodes, events_by_person, index_concepts, max_week=45):
    """Episodes per week of their earliest index event on or before delivery; later weeks share the last."""
    counts = {week: 0 for week in range(max_week + 1)}
    for ep in _dated(episodes):
        hits = _index_days(ep, events_by_person, index_concepts)
        if hits:
            counts[min(_week(ep, hits[0][0]), max_week)] += 1
    return counts


def load_events_reference(path, concepts, known_persons=None, labels=None):
    """`ingestion.load_events` as one loop over `csvio.table`'s rows, parsing each row's fields in field order."""
    from tedpc.concept_registry import Domain
    from tedpc.csvio import Memo, table
    from tedpc.ingestion import EVENT_HEADER, EventTable, _event_day

    by_person, quarantined = {}, []
    firsts = {label: {} for concept_labels in (labels or {}).values() for label in concept_labels}
    mismatches = total = 0
    concept_ids, days, domains = Memo(int), Memo(_event_day), Memo(lambda text: Domain.parse(text).value)
    with table(path, EVENT_HEADER) as rows:
        for row in rows:
            total += 1
            person_id, concept_id = int(row[0]), concept_ids[row[1]]
            domain, day = domains[row[2]], days[row[3]]
            if known_persons is not None and person_id not in known_persons:
                quarantined.append((person_id, day, concept_id, domain))
                continue
            for label in (labels or {}).get(concept_id, ()):
                first = firsts[label]
                first[person_id] = min(day, first.get(person_id, day))
            if concept_id not in concepts:
                continue
            expected = concepts[concept_id]
            if expected is not None and expected != domain:
                mismatches += 1
            by_person.setdefault(person_id, []).extend((day, concept_id))
    return EventTable(by_person, quarantined, total, mismatches, firsts)


def noise_log_reference(path, noise_rows):
    """`noise_log.csv` as a list per sorted noise row, its day as an ISO date, through `csvio.write_rows`."""
    from tedpc.csvio import write_rows
    from tedpc.synthgen import NOISE_LOG_HEADER

    write_rows(
        path,
        NOISE_LOG_HEADER,
        (
            [channel, p, c, date.fromordinal(day).isoformat(), detail]
            for channel, p, c, day, detail in sorted(noise_rows)
        ),
    )


def truth_reference(path, truth):
    """`truth.csv` as a list per `TruthRecord`, stably sorted on (person, episode), through `csvio.write_rows`."""
    from tedpc.csvio import write_rows
    from tedpc.synthgen import TRUTH_HEADER

    write_rows(
        path,
        TRUTH_HEADER,
        (
            [t.person_id, t.episode_index, date.fromordinal(t.true_start_day).isoformat(),
             date.fromordinal(t.true_dod_day).isoformat(),
             "" if t.index_event_week is None else t.index_event_week]
            for t in sorted(truth, key=lambda t: (t.person_id, t.episode_index))
        ),
    )


def episodes_reference(path):
    """`episode_builder.read_episodes` as one loop over `csvio.table`'s rows, repeats found in a dict of keys."""
    from tedpc.concept_registry import ACCURACY_TOKENS
    from tedpc.csvio import BOOL_TOKENS, iso_date, table
    from tedpc.episode_builder import EPISODE_HEADER, PregnancyEpisode, extreme_flag_of

    flags = {flag: flag for flag in ("none", "short", "long")}
    episodes = {}
    with table(path, EPISODE_HEADER) as rows:
        for row in rows:
            episode = PregnancyEpisode(
                int(row[0]), int(row[1]), iso_date(row[2]).toordinal(), iso_date(row[3]).toordinal(), int(row[4]),
                ACCURACY_TOKENS[row[5]].value, int(row[6]), flags[row[7]], BOOL_TOKENS[row[8]],
            )
            if episode.episode_index < 1:
                raise ValueError(f"episode_index {row[1]} is below 1")
            if episode.dod_domain_rank not in (1, 2, 3):
                raise ValueError(f"dod_domain_rank {row[6]} is not one of [1, 2, 3]")
            days = episode.dod_day - episode.start_day
            if episode.gestation_days != days or episode.extreme_flag != extreme_flag_of(days):
                raise ValueError(f"gestation_days {row[4]}, extreme_flag {row[7]!r} contradict dates {days} days apart")
            if days < 1:
                raise ValueError(f"gestation_days {row[4]}: dod {row[3]} is not after start_date {row[2]}")
            if episodes.setdefault(episode[:2], episode) is not episode:
                raise ValueError(f"episode {row[1]} of person {row[0]} repeats an earlier row")
    return list(episodes.values())


def persons_reference(path):
    """`ingestion.load_persons` as one loop over `csvio.table`'s rows, checking each row's birth date."""
    from tedpc.csvio import iso_date, table
    from tedpc.ingestion import MIN_EVENT_DATE, PERSON_HEADER, Person

    today = date.today()
    persons = {}
    with table(path, PERSON_HEADER) as rows:
        for row in rows:
            person = Person(int(row[0]), iso_date(row[1]), row[2], row[3], row[4])
            if not (MIN_EVENT_DATE <= person.birth_date <= today):
                raise ValueError(
                    f"birth_date {person.birth_date.isoformat()} outside "
                    f"[{MIN_EVENT_DATE.isoformat()}, {today.isoformat()}]"
                )
            if persons.setdefault(person.person_id, person) != person:
                raise ValueError(f"conflicting duplicate for person {person.person_id}")
    return persons


def episodes_csv_reference(path, episodes):
    """`episodes.csv` as a list per episode, stably sorted on (person, episode index), through `csvio.write_rows`."""
    from tedpc.concept_registry import AccuracyLevel
    from tedpc.csvio import write_rows
    from tedpc.episode_builder import EPISODE_HEADER

    write_rows(
        path,
        EPISODE_HEADER,
        (
            [e.person_id, e.episode_index, date.fromordinal(e.start_day).isoformat(),
             date.fromordinal(e.dod_day).isoformat(), e.gestation_days,
             AccuracyLevel(e.ga_accuracy).name.lower(), e.dod_domain_rank, e.extreme_flag, str(e.conflict_flag).lower()]
            for e in sorted(episodes, key=lambda e: (e.person_id, e.episode_index))
        ),
    )


def timing_csv_reference(path, rows):
    """`timing.csv` of `timeline_reference`'s rows, a list per row through `csvio.write_rows`."""
    from tedpc.csvio import write_rows

    header = ["person_id", "episode_index", "index_concept_id", "event_date", "gestational_week", "trimester"]
    write_rows(path, header, rows)
