"""Agreement statistics and round-trip scoring.

Cohen's kappa over a two-rater confusion matrix, unweighted or with linear
weights, plus per-field accuracy of inferred episodes against synthetic
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .csvio import csv_rows
from .episode_builder import PregnancyEpisode
from .errors import DataFormatError


class Weighting(str, Enum):
    UNWEIGHTED = "unweighted"
    LINEAR = "linear"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square two-rater count matrix with ordered category labels."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.labels)
        if k < 2:
            raise ValueError("confusion matrix needs at least two categories")
        if len(set(self.labels)) != k:
            repeated = sorted({label for label in self.labels if self.labels.count(label) > 1})
            raise ValueError(f"category labels must be distinct, got {repeated} more than once")
        if len(self.counts) != k or any(len(row) != k for row in self.counts):
            raise ValueError(f"counts must be {k}x{k} to match the labels")
        if any(cell < 0 for row in self.counts for cell in row):
            raise ValueError("counts must be non-negative")
        if self.total <= 0:
            raise ValueError("confusion matrix total must be positive")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Sequence[Sequence[int]]) -> "ConfusionMatrix":
        return cls(tuple(labels), tuple(tuple(int(c) for c in row) for row in rows))


@dataclass(frozen=True)
class KappaResult:
    """Kappa with its observed and expected agreement components.

    `degenerate` marks the all-mass-in-one-cell case where expected agreement
    is 1; observed agreement is then also 1 and kappa is reported as 1.
    """

    kappa: float
    observed_agreement: float
    expected_agreement: float
    weighting: Weighting
    degenerate: bool = False


def _weights(k: int, weighting: Weighting) -> list[list[float]]:
    if weighting is Weighting.UNWEIGHTED:
        return [[1.0 if i == j else 0.0 for j in range(k)] for i in range(k)]
    return [[1.0 - abs(i - j) / (k - 1) for j in range(k)] for i in range(k)]


def cohen_kappa(matrix: ConfusionMatrix, weighting: Weighting) -> KappaResult:
    """Cohen's kappa of a confusion matrix under the given weighting.

    kappa = (p_o - p_e) / (1 - p_e) with p_o the weighted observed agreement
    and p_e the weighted agreement expected from the marginals. Degenerate
    marginals (p_e = 1) do not crash: they imply perfect agreement and yield
    kappa 1 with the degenerate flag set.
    """
    n = matrix.total
    k = len(matrix.labels)
    weights = _weights(k, weighting)
    row_sums = [sum(row) for row in matrix.counts]
    col_sums = [sum(matrix.counts[i][j] for i in range(k)) for j in range(k)]
    p_o = sum(weights[i][j] * matrix.counts[i][j] for i in range(k) for j in range(k)) / n
    p_e = sum(weights[i][j] * row_sums[i] * col_sums[j] for i in range(k) for j in range(k)) / (n * n)
    if p_e >= 1.0:
        # Only reachable when all mass sits in one cell, forcing p_o = 1 too.
        return KappaResult(1.0, p_o, p_e, weighting, degenerate=True)
    return KappaResult((p_o - p_e) / (1.0 - p_e), p_o, p_e, weighting)


def read_matrix_csv(path: Path | str) -> ConfusionMatrix:
    """Read a labeled square matrix: header `,label1,...`, one labeled row each."""
    path = Path(path)
    with csv_rows(path) as reader:
        rows = [(reader.line_num, row) for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 3:
        raise DataFormatError(f"{path}: expected a labeled square matrix of size >= 2")
    labels = [cell.strip() for cell in rows[0][1][1:]]
    counts = []
    for i, (line, row) in enumerate(rows[1:], start=1):
        if i > len(labels):
            raise DataFormatError(f"{path}:{line}: row {i} has no column label, expected {len(labels)} rows")
        if len(row) != len(labels) + 1:
            raise DataFormatError(f"{path}:{line}: row {i} has {len(row)} fields, expected {len(labels) + 1}")
        if row[0].strip() != labels[i - 1]:
            raise DataFormatError(
                f"{path}:{line}: row label {row[0]!r} does not match column label {labels[i - 1]!r}"
            )
        try:
            counts.append([int(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line}: non-integer cell in row {i}: {exc}") from None
    try:
        return ConfusionMatrix.from_rows(labels, counts)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


@dataclass
class RoundTripReport:
    """Per-field accuracy of inferred episodes against ground truth.

    Truth and inferred episodes are paired per person in start-date order;
    truth episodes without a counterpart count as misses. The within-window
    rates are cumulative (an exact match also lies within its window).
    """

    truth_episodes: int
    inferred_episodes: int
    persons: int
    exact_start: float
    start_within_7d: float
    exact_dod: float
    dod_within_1d: float
    episode_count_match: float

    def lines(self) -> list[str]:
        return [
            f"truth_episodes={self.truth_episodes} inferred_episodes={self.inferred_episodes} persons={self.persons}",
            f"exact_start={self.exact_start:.4f} start_within_7d={self.start_within_7d:.4f}",
            f"exact_dod={self.exact_dod:.4f} dod_within_1d={self.dod_within_1d:.4f}",
            f"episode_count_match={self.episode_count_match:.4f}",
        ]


def round_trip_score(
    truth: Iterable,  # synthgen.TruthRecord
    episodes: Iterable[PregnancyEpisode],
) -> RoundTripReport:
    """Score inferred episodes against generator ground truth."""
    truth_by_person: dict[int, list] = {}
    for record in truth:
        truth_by_person.setdefault(record.person_id, []).append(record)
    inferred_by_person: dict[int, list[PregnancyEpisode]] = {}
    for episode in episodes:
        inferred_by_person.setdefault(episode.person_id, []).append(episode)

    n_truth = sum(len(v) for v in truth_by_person.values())
    n_inferred = sum(len(v) for v in inferred_by_person.values())
    exact_start = start_close = exact_dod = dod_close = 0
    count_matches = 0
    for person_id, records in truth_by_person.items():
        records = sorted(records, key=lambda r: r.true_start_day)
        inferred = sorted(inferred_by_person.get(person_id, []), key=lambda e: e.start_day)
        if len(records) == len(inferred):
            count_matches += 1
        for record, episode in zip(records, inferred):
            start_delta = abs(episode.start_day - record.true_start_day)
            dod_delta = abs(episode.dod_day - record.true_dod_day)
            exact_start += start_delta == 0
            start_close += start_delta <= 7
            exact_dod += dod_delta == 0
            dod_close += dod_delta <= 1
    persons = len(truth_by_person)

    def rate(hits: int, total: int) -> float:
        return hits / total if total else 1.0

    return RoundTripReport(
        truth_episodes=n_truth,
        inferred_episodes=n_inferred,
        persons=persons,
        exact_start=rate(exact_start, n_truth),
        start_within_7d=rate(start_close, n_truth),
        exact_dod=rate(exact_dod, n_truth),
        dod_within_1d=rate(dod_close, n_truth),
        episode_count_match=rate(count_matches, persons),
    )
