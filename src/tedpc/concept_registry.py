"""Concept-set registries and keyword phenotyping.

Two curated concept sets drive the inference engines: gestational-age (GA)
concepts, each carrying the inclusive week range its name implies, and
delivery (DOD) concepts, ranked by domain trustworthiness. Both ship as CSV
files with a manifest header that the loaders enforce, so a silently
truncated or edited file fails loudly instead of skewing results.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class GAConceptSpec:
    """One GA-bearing concept with the week range its name implies."""

    concept_id: int
    name: str
    week_low: int
    week_high: int
    accuracy: AccuracyLevel
    domain: Domain
    vocabulary: str


@dataclass(frozen=True)
class DODConceptSpec:
    """One delivery-indicating concept with its domain rank."""

    concept_id: int
    name: str
    domain: Domain
    domain_rank: int
    vocabulary: str


@dataclass(frozen=True)
class VocabularyEntry:
    """One row of a local vocabulary table used for keyword phenotyping."""

    concept_id: int
    name: str
    domain: Domain
    standard: bool
    valid: bool


class GARegistry:
    """Immutable lookup of GA concepts keyed by concept id."""

    def __init__(self, concepts: Iterable[GAConceptSpec]):
        self._by_id = {spec.concept_id: spec for spec in concepts}
        counts = {level: 0 for level in AccuracyLevel}
        for spec in self._by_id.values():
            counts[spec.accuracy] += 1
        self.counts = counts

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, concept_id: int) -> bool:
        return concept_id in self._by_id

    def __iter__(self) -> Iterator[GAConceptSpec]:
        return iter(sorted(self._by_id.values(), key=lambda s: s.concept_id))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GARegistry) and self._by_id == other._by_id

    def get(self, concept_id: int) -> GAConceptSpec | None:
        return self._by_id.get(concept_id)

    def by_accuracy(self, level: AccuracyLevel) -> list[GAConceptSpec]:
        return [s for s in self if s.accuracy == level]

    def write_csv(self, path: Path | str) -> None:
        """Serialize in canonical form (manifest, header, rows by concept id)."""
        c = self.counts
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(
                f"#manifest total={len(self)} high={c[AccuracyLevel.HIGH]} "
                f"mh={c[AccuracyLevel.MODERATE_HIGH]} ml={c[AccuracyLevel.MODERATE_LOW]} "
                f"low={c[AccuracyLevel.LOW]}\n"
            )
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(GA_HEADER)
            for spec in self:
                writer.writerow(
                    [
                        spec.concept_id,
                        spec.name,
                        TOKEN_BY_ACCURACY[spec.accuracy],
                        spec.week_low,
                        spec.week_high,
                        spec.domain.value,
                        spec.vocabulary,
                    ]
                )


class DODRegistry:
    """Immutable lookup of delivery concepts keyed by concept id."""

    def __init__(self, concepts: Iterable[DODConceptSpec]):
        self._by_id = {spec.concept_id: spec for spec in concepts}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, concept_id: int) -> bool:
        return concept_id in self._by_id

    def __iter__(self) -> Iterator[DODConceptSpec]:
        return iter(sorted(self._by_id.values(), key=lambda s: s.concept_id))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DODRegistry) and self._by_id == other._by_id

    def get(self, concept_id: int) -> DODConceptSpec | None:
        return self._by_id.get(concept_id)

    def rank_of(self, concept_id: int) -> int | None:
        spec = self._by_id.get(concept_id)
        return spec.domain_rank if spec else None

    def write_csv(self, path: Path | str) -> None:
        """Serialize in canonical form (manifest, header, rows by concept id)."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"#manifest total={len(self)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(DOD_HEADER)
            for spec in self:
                writer.writerow([spec.concept_id, spec.name, spec.domain.value, spec.vocabulary])


GA_HEADER = ["concept_id", "name", "accuracy_level", "week_low", "week_high", "domain", "vocabulary"]
DOD_HEADER = ["concept_id", "name", "domain", "vocabulary"]
VOCABULARY_HEADER = ["concept_id", "name", "domain", "standard", "valid"]

_GA_MANIFEST_RE = re.compile(
    r"#manifest\s+total=(\d+)\s+high=(\d+)\s+mh=(\d+)\s+ml=(\d+)\s+low=(\d+)\s*$"
)
_DOD_MANIFEST_RE = re.compile(r"#manifest\s+total=(\d+)\s*$")

_DATA_DIR = Path(__file__).parent / "data"


def default_ga_concepts_path() -> Path:
    return _DATA_DIR / "ga_concepts.csv"


def default_dod_concepts_path() -> Path:
    return _DATA_DIR / "dod_concepts.csv"


def _read_table(path: Path, header: list[str], manifest_re: re.Pattern) -> tuple[re.Match | None, list[tuple[int, list[str]]]]:
    """Read a concept CSV, returning its manifest match and (line_no, row) pairs.

    Lines beginning with '#' are comments; the first one matching the manifest
    pattern is captured. Field values never contain newlines in these files.
    """
    manifest = None
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = []
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("#"):
                if manifest is None:
                    manifest = manifest_re.match(line.strip())
                continue
            if line.strip():
                numbered.append((line_no, line))
        if not numbered:
            raise DataFormatError(f"{path}: empty file, expected header {header}")
        parsed = list(csv.reader([line for _, line in numbered]))
        if parsed[0] != header:
            raise DataFormatError(f"{path}: bad header {parsed[0]!r}, expected {header}")
        rows = [(numbered[i][0], parsed[i]) for i in range(1, len(parsed))]
    return manifest, rows


def load_ga_concepts(path: Path | str) -> GARegistry:
    """Load the GA concept set; re-derives and checks every row's accuracy.

    Rows are deduplicated on concept id (identical repeats collapse,
    conflicting repeats fail). When a manifest header is present its total and
    per-level counts are enforced.
    """
    path = Path(path)
    manifest, rows = _read_table(path, GA_HEADER, _GA_MANIFEST_RE)
    by_id: dict[int, GAConceptSpec] = {}
    for line_no, row in rows:
        if len(row) != len(GA_HEADER):
            raise DataFormatError(f"{path}:{line_no}: expected {len(GA_HEADER)} fields, got {len(row)}")
        try:
            concept_id = int(row[0])
            week_low = int(row[3])
            week_high = int(row[4])
            domain = Domain.parse(row[5])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from None
        declared = ACCURACY_TOKENS.get(row[2].strip().lower())
        if declared is None:
            raise DataFormatError(f"{path}:{line_no}: unknown accuracy level {row[2]!r}")
        try:
            derived = classify_accuracy(week_low, week_high)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from None
        if derived != declared:
            raise DataFormatError(
                f"{path}:{line_no}: concept {concept_id} declares accuracy "
                f"{row[2]!r} but weeks ({week_low}, {week_high}) imply "
                f"{TOKEN_BY_ACCURACY[derived]!r}"
            )
        spec = GAConceptSpec(concept_id, row[1], week_low, week_high, derived, domain, row[6])
        previous = by_id.get(concept_id)
        if previous is not None and previous != spec:
            raise DataFormatError(f"{path}:{line_no}: conflicting duplicate for concept {concept_id}")
        by_id[concept_id] = spec
    registry = GARegistry(by_id.values())
    if manifest is not None:
        expected = [int(g) for g in manifest.groups()]
        actual = [
            len(registry),
            registry.counts[AccuracyLevel.HIGH],
            registry.counts[AccuracyLevel.MODERATE_HIGH],
            registry.counts[AccuracyLevel.MODERATE_LOW],
            registry.counts[AccuracyLevel.LOW],
        ]
        if expected != actual:
            raise DataFormatError(
                f"{path}: manifest check failed, declared total/high/mh/ml/low "
                f"{expected} but loaded {actual}"
            )
    logger.info("loaded %d GA concepts from %s", len(registry), path)
    return registry


def load_dod_concepts(path: Path | str) -> DODRegistry:
    """Load the delivery concept set; deduplicates and assigns domain ranks.

    Only procedure, condition, and observation domains are rankable here;
    any other domain in the file is a load failure.
    """
    path = Path(path)
    manifest, rows = _read_table(path, DOD_HEADER, _DOD_MANIFEST_RE)
    by_id: dict[int, DODConceptSpec] = {}
    for line_no, row in rows:
        if len(row) != len(DOD_HEADER):
            raise DataFormatError(f"{path}:{line_no}: expected {len(DOD_HEADER)} fields, got {len(row)}")
        try:
            concept_id = int(row[0])
            domain = Domain.parse(row[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from None
        rank = DOMAIN_RANKS.get(domain)
        if rank is None:
            raise DataFormatError(
                f"{path}:{line_no}: concept {concept_id} has unrankable domain {domain.value!r}"
            )
        spec = DODConceptSpec(concept_id, row[1], domain, rank, row[3])
        previous = by_id.get(concept_id)
        if previous is not None and previous != spec:
            raise DataFormatError(f"{path}:{line_no}: conflicting duplicate for concept {concept_id}")
        by_id[concept_id] = spec
    registry = DODRegistry(by_id.values())
    if manifest is not None and int(manifest.group(1)) != len(registry):
        raise DataFormatError(
            f"{path}: manifest check failed, declared total {manifest.group(1)} "
            f"but loaded {len(registry)} unique concepts"
        )
    logger.info("loaded %d delivery concepts from %s", len(registry), path)
    return registry


_BOOL_TOKENS = {"true": True, "false": False}


def load_vocabulary(path: Path | str) -> list[VocabularyEntry]:
    """Load a local vocabulary table for phenotyping."""
    path = Path(path)
    _, rows = _read_table(path, VOCABULARY_HEADER, _DOD_MANIFEST_RE)
    by_id: dict[int, VocabularyEntry] = {}
    for line_no, row in rows:
        if len(row) != len(VOCABULARY_HEADER):
            raise DataFormatError(f"{path}:{line_no}: expected {len(VOCABULARY_HEADER)} fields, got {len(row)}")
        try:
            concept_id = int(row[0])
            domain = Domain.parse(row[2])
            standard = _BOOL_TOKENS[row[3].strip().lower()]
            valid = _BOOL_TOKENS[row[4].strip().lower()]
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"{path}:{line_no}: bad vocabulary row: {exc}") from None
        entry = VocabularyEntry(concept_id, row[1], domain, standard, valid)
        previous = by_id.get(concept_id)
        if previous is not None and previous != entry:
            raise DataFormatError(f"{path}:{line_no}: conflicting duplicate for concept {concept_id}")
        by_id[concept_id] = entry
    return sorted(by_id.values(), key=lambda e: e.concept_id)


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
    """Read a concept-id set file: CSV with a concept_id column or bare ids."""
    path = Path(path)
    ids: set[int] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        return frozenset()
    rows = list(csv.reader(lines))
    start = 0
    column = 0
    first = rows[0]
    if not first[0].strip().lstrip("-").isdigit():
        if "concept_id" not in first:
            raise DataFormatError(f"{path}: no concept_id column in header {first!r}")
        column = first.index("concept_id")
        start = 1
    for row in rows[start:]:
        try:
            ids.add(int(row[column]))
        except (ValueError, IndexError):
            raise DataFormatError(f"{path}: bad concept id row {row!r}") from None
    return frozenset(ids)
