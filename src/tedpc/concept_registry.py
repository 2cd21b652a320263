"""Concept-set registries and keyword phenotyping.

Two curated concept sets drive the inference engines: gestational-age (GA)
concepts, each carrying the inclusive week range its name implies, and
delivery (DOD) concepts, ranked by domain trustworthiness. Both ship as CSV
files with a manifest header that the loaders enforce, so a silently
truncated or edited file fails loudly instead of skewing results.
"""

from __future__ import annotations

import logging
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .csvio import BOOL_TOKENS, csv_rows, table
from .errors import DataFormatError

logger = logging.getLogger(__name__)

MIN_WEEK = 1
MAX_WEEK = 45
# A usable week range is at most one trimester wide (inclusive).
MAX_RANGE_WEEKS = 13


class Domain(str, Enum):
    """Domain of a normalized concept or clinical event."""

    CONDITION = "Condition"
    PROCEDURE = "Procedure"
    OBSERVATION = "Observation"
    MEASUREMENT = "Measurement"
    DRUG = "Drug"

    @classmethod
    def parse(cls, text: str) -> "Domain":
        """Case-insensitive domain lookup; raises ValueError on unknown text."""
        try:
            return _DOMAIN_BY_TOKEN[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown domain {text!r}") from None


_DOMAIN_BY_TOKEN = {d.value.lower(): d for d in Domain}

# Delivery-record trustworthiness by domain; lower rank is more trustworthy.
DOMAIN_RANKS = {Domain.PROCEDURE: 1, Domain.CONDITION: 2, Domain.OBSERVATION: 3}


class AccuracyLevel(IntEnum):
    """Four-tier accuracy of a GA concept; lower value means higher accuracy."""

    HIGH = 1
    MODERATE_HIGH = 2
    MODERATE_LOW = 3
    LOW = 4


ACCURACY_TOKENS = {
    "high": AccuracyLevel.HIGH,
    "moderate_high": AccuracyLevel.MODERATE_HIGH,
    "moderate_low": AccuracyLevel.MODERATE_LOW,
    "low": AccuracyLevel.LOW,
}
TOKEN_BY_ACCURACY = {level: token for token, level in ACCURACY_TOKENS.items()}


def classify_accuracy(week_low: int, week_high: int) -> AccuracyLevel:
    """Map an inclusive gestational-week range to its accuracy level.

    Width 1 week is high, 2-5 moderate-high, 6-10 moderate-low, 11-13 low.
    Wider ranges carry no usable timing signal and are rejected.
    """
    if not (MIN_WEEK <= week_low <= week_high <= MAX_WEEK):
        raise ValueError(f"invalid week range ({week_low}, {week_high})")
    width = week_high - week_low + 1
    if width == 1:
        return AccuracyLevel.HIGH
    if width <= 5:
        return AccuracyLevel.MODERATE_HIGH
    if width <= 10:
        return AccuracyLevel.MODERATE_LOW
    if width <= MAX_RANGE_WEEKS:
        return AccuracyLevel.LOW
    raise ValueError(
        f"week range ({week_low}, {week_high}) is broader than one trimester "
        f"({MAX_RANGE_WEEKS} weeks)"
    )


class GAConceptSpec(NamedTuple):
    """One GA-bearing concept with the week range its name implies."""

    concept_id: int
    name: str
    week_low: int
    week_high: int
    accuracy: AccuracyLevel
    domain: Domain
    vocabulary: str


class DODConceptSpec(NamedTuple):
    """One delivery-indicating concept with its domain rank."""

    concept_id: int
    name: str
    domain: Domain
    domain_rank: int
    vocabulary: str


class VocabularyEntry(NamedTuple):
    """One row of a local vocabulary table used for keyword phenotyping."""

    concept_id: int
    name: str
    domain: Domain
    standard: bool
    valid: bool


class ConceptRegistry:
    """Immutable lookup of concept specs keyed by concept id, iterated in concept-id order."""

    def __init__(self, specs: Iterable):
        self._by_id = {spec.concept_id: spec for spec in specs}
        self._specs = sorted(self._by_id.values(), key=lambda s: s.concept_id)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, concept_id: int) -> bool:
        return concept_id in self._by_id

    def __iter__(self) -> Iterator:
        return iter(self._specs)

    def get(self, concept_id: int):
        return self._by_id.get(concept_id)


GA_HEADER = ["concept_id", "name", "accuracy_level", "week_low", "week_high", "domain", "vocabulary"]
DOD_HEADER = ["concept_id", "name", "domain", "vocabulary"]
VOCABULARY_HEADER = ["concept_id", "name", "domain", "standard", "valid"]

_DATA_DIR = Path(__file__).parent / "data"


def default_ga_concepts_path() -> Path:
    return _DATA_DIR / "ga_concepts.csv"


def default_dod_concepts_path() -> Path:
    return _DATA_DIR / "dod_concepts.csv"


def _load_concept_table(
    path: Path | str, header: list[str], parse, count: Callable[[list], dict[str, int]] | None = None
) -> list:
    """Read a concept CSV into its rows, deduplicated on concept id.

    Lines beginning with '#' are comments. Identical repeats of a concept
    collapse; conflicting repeats fail. With `count`, the first comment whose
    first word is `#manifest` must list exactly the `name=count` pairs that
    count(rows) returns, in that order; a file without one is not checked.
    """
    comments: list[list[str]] = []
    by_id: dict = {}
    with table(path, header, on_comment=lambda line: comments.append(line.split())) as rows:
        for row in rows:
            spec = parse(row)
            if by_id.setdefault(spec.concept_id, spec) != spec:
                raise ValueError(f"conflicting duplicate for concept {spec.concept_id}")
    specs = list(by_id.values())
    declared = next((words[1:] for words in comments if words[0] == "#manifest"), None)
    if count is not None and declared is not None:
        loaded = [f"{name}={n}" for name, n in count(specs).items()]
        if declared != loaded:
            raise DataFormatError(
                f"{path}: manifest check failed, declared {' '.join(declared)!r} but loaded {' '.join(loaded)!r}"
            )
    return specs


def _parse_ga_concept(row: list[str]) -> GAConceptSpec:
    concept_id, week_low, week_high = int(row[0]), int(row[3]), int(row[4])
    domain = Domain.parse(row[5])
    declared = ACCURACY_TOKENS.get(row[2].strip().lower())
    if declared is None:
        raise ValueError(f"unknown accuracy level {row[2]!r}")
    derived = classify_accuracy(week_low, week_high)
    if derived != declared:
        raise ValueError(
            f"concept {concept_id} declares accuracy {row[2]!r} but weeks ({week_low}, {week_high}) "
            f"imply {TOKEN_BY_ACCURACY[derived]!r}"
        )
    return GAConceptSpec(concept_id, row[1], week_low, week_high, derived, domain, row[6])


def _count_ga(specs: list[GAConceptSpec]) -> dict[str, int]:
    """A GA manifest's counts: the total, then each accuracy level, best first."""
    counts = {"total": len(specs)}
    for name, level in zip(("high", "mh", "ml", "low"), AccuracyLevel):
        counts[name] = sum(spec.accuracy is level for spec in specs)
    return counts


def load_ga_concepts(path: Path | str) -> ConceptRegistry:
    """Load the GA concept set; re-derives and checks every row's accuracy.

    Rows are deduplicated on concept id. A `#manifest` line must give the
    total and per-level counts (`total high mh ml low`).
    """
    registry = ConceptRegistry(_load_concept_table(path, GA_HEADER, _parse_ga_concept, _count_ga))
    logger.info("loaded %d GA concepts from %s", len(registry), path)
    return registry


def _parse_dod_concept(row: list[str]) -> DODConceptSpec:
    concept_id, domain = int(row[0]), Domain.parse(row[2])
    rank = DOMAIN_RANKS.get(domain)
    if rank is None:
        raise ValueError(f"concept {concept_id} has unrankable domain {domain.value!r}")
    return DODConceptSpec(concept_id, row[1], domain, rank, row[3])


def load_dod_concepts(path: Path | str) -> ConceptRegistry:
    """Load the delivery concept set; deduplicates and assigns domain ranks.

    Only procedure, condition, and observation domains are rankable here;
    any other domain in the file is a load failure. A `#manifest` line must
    give the total alone.
    """
    specs = _load_concept_table(path, DOD_HEADER, _parse_dod_concept, lambda specs: {"total": len(specs)})
    registry = ConceptRegistry(specs)
    logger.info("loaded %d delivery concepts from %s", len(registry), path)
    return registry


def concept_domains(ga_registry: ConceptRegistry, dod_registry: ConceptRegistry) -> dict[int, Domain]:
    """Each concept of both registries with its registry's domain; the GA registry's wins where a concept is in both."""
    return {spec.concept_id: spec.domain for registry in (dod_registry, ga_registry) for spec in registry}


def _parse_vocabulary_entry(row: list[str]) -> VocabularyEntry:
    return VocabularyEntry(
        int(row[0]),
        row[1],
        Domain.parse(row[2]),
        BOOL_TOKENS[row[3].strip().lower()],
        BOOL_TOKENS[row[4].strip().lower()],
    )


def load_vocabulary(path: Path | str) -> list[VocabularyEntry]:
    """Load a local vocabulary table for phenotyping."""
    entries = _load_concept_table(path, VOCABULARY_HEADER, _parse_vocabulary_entry)
    return sorted(entries, key=lambda e: e.concept_id)


def phenotype_search(
    vocabulary: Iterable[VocabularyEntry],
    keywords: list[str],
    domains: Iterable[Domain] | None = None,
    standard_only: bool = True,
    valid_only: bool = True,
) -> list[VocabularyEntry]:
    """Keyword phenotyping over a vocabulary table.

    An entry matches when its name contains any keyword (plain
    case-insensitive substring), its domain is in the filter set, and it
    passes the standard/valid flags. Results are ordered by concept id.
    """
    if not keywords:
        raise ValueError("keywords must be non-empty")
    stems = [k.lower() for k in keywords]
    wanted = set(domains) if domains is not None else None
    matches = [
        entry
        for entry in vocabulary
        if (wanted is None or entry.domain in wanted)
        and (entry.standard or not standard_only)
        and (entry.valid or not valid_only)
        and any(stem in entry.name.lower() for stem in stems)
    ]
    return sorted(matches, key=lambda e: e.concept_id)


def read_concept_ids(path: Path | str) -> frozenset[int]:
    """Read a concept-id set file: CSV with a concept_id column or bare ids, optionally behind a BOM."""
    path = Path(path)
    ids: set[int] = set()
    with csv_rows(path, on_comment=lambda line: None) as reader:
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        return frozenset()
    # A first row is a header unless its first field reads as an id, as the rows after it are read.
    line, first = rows[0]
    try:
        int(first[0])
        start = column = 0
    except ValueError:
        if "concept_id" not in first:
            raise DataFormatError(f"{path}:{line}: no concept_id column in header {first!r}") from None
        start, column = 1, first.index("concept_id")
    for line, row in rows[start:]:
        try:
            ids.add(int(row[column]))
        except (ValueError, IndexError):
            raise DataFormatError(f"{path}:{line}: bad concept id row {row!r}") from None
    return frozenset(ids)
