from datetime import date

import numpy as np
import pytest

from oracles import kappa_reference
from tedpc.concept_registry import AccuracyLevel
from tedpc.episode_builder import ExtremeFlag, PregnancyEpisode
from tedpc.errors import DataFormatError
from tedpc.evaluation import (
    ConfusionMatrix,
    Weighting,
    cohen_kappa,
    read_matrix_csv,
    round_trip_score,
)
from tedpc.synthgen import TruthRecord

RATING_MATRIX = ConfusionMatrix.from_rows(
    ("high", "moderate", "low"), [[33, 1, 0], [2, 1, 1], [0, 1, 1]]
)


class TestCohenKappa:
    def test_linear_weighting_reference_value(self):
        result = cohen_kappa(RATING_MATRIX, Weighting.LINEAR)
        # 40 ratings: p_o = 37.5/40, p_e = 1334/1600, kappa = 0.10375/0.16625.
        assert result.observed_agreement == pytest.approx(0.9375)
        assert result.expected_agreement == pytest.approx(0.83375)
        assert result.kappa == pytest.approx(0.6240601503759399, abs=1e-12)
        assert abs(result.kappa - 0.62) <= 0.005

    def test_any_diagonal_matrix_is_one_unweighted(self):
        for diag in ([40, 0, 0], [5, 5, 5], [1, 2, 3]):
            rows = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
            result = cohen_kappa(ConfusionMatrix.from_rows(("a", "b", "c"), rows), Weighting.UNWEIGHTED)
            assert result.kappa == 1.0

    def test_independent_raters_score_zero(self):
        matrix = ConfusionMatrix.from_rows(("a", "b"), [[25, 25], [25, 25]])
        assert cohen_kappa(matrix, Weighting.UNWEIGHTED).kappa == pytest.approx(0.0)

    def test_degenerate_marginals_do_not_crash(self):
        matrix = ConfusionMatrix.from_rows(("a", "b"), [[40, 0], [0, 0]])
        result = cohen_kappa(matrix, Weighting.UNWEIGHTED)
        assert result.degenerate
        assert result.kappa == 1.0
        result = cohen_kappa(matrix, Weighting.LINEAR)
        assert result.degenerate and result.kappa == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="total must be positive"):
            ConfusionMatrix.from_rows(("a", "b"), [[0, 0], [0, 0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 30, size=(k, k))
            counts[0][0] += 1  # keep total positive
            labels = tuple(str(i) for i in range(k))
            for weighting in Weighting:
                base = cohen_kappa(ConfusionMatrix.from_rows(labels, counts.tolist()), weighting)
                scaled = cohen_kappa(
                    ConfusionMatrix.from_rows(labels, (counts * 7).tolist()), weighting
                )
                if not base.degenerate:
                    assert scaled.kappa == pytest.approx(base.kappa, abs=1e-12)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 25, size=(k, k)).tolist()
            counts[0][0] += 1
            labels = tuple(str(i) for i in range(k))
            matrix = ConfusionMatrix.from_rows(labels, counts)
            for weighting, linear in ((Weighting.UNWEIGHTED, False), (Weighting.LINEAR, True)):
                expected, p_o, p_e = kappa_reference(counts, linear)
                result = cohen_kappa(matrix, weighting)
                assert result.kappa == pytest.approx(expected, abs=1e-12)
                assert result.observed_agreement == pytest.approx(p_o, abs=1e-12)
                assert result.expected_agreement == pytest.approx(p_e, abs=1e-12)

    def test_label_permutation_effects(self):
        # Simultaneous row/column permutation keeps unweighted kappa but can
        # change linear kappa (distances between categories move).
        counts = [[10, 4, 0], [2, 8, 3], [5, 1, 9]]
        perm = [2, 0, 1]
        permuted = [[counts[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        labels = ("a", "b", "c")
        base_u = cohen_kappa(ConfusionMatrix.from_rows(labels, counts), Weighting.UNWEIGHTED)
        perm_u = cohen_kappa(ConfusionMatrix.from_rows(labels, permuted), Weighting.UNWEIGHTED)
        assert perm_u.kappa == pytest.approx(base_u.kappa, abs=1e-12)
        base_l = cohen_kappa(ConfusionMatrix.from_rows(labels, counts), Weighting.LINEAR)
        perm_l = cohen_kappa(ConfusionMatrix.from_rows(labels, permuted), Weighting.LINEAR)
        assert perm_l.kappa != pytest.approx(base_l.kappa, abs=1e-9)

    def test_kappa_is_one_iff_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            counts = rng.integers(0, 10, size=(k, k))
            counts[0][0] += 1
            matrix = ConfusionMatrix.from_rows(tuple(map(str, range(k))), counts.tolist())
            off_diagonal = counts.sum() - np.trace(counts)
            result = cohen_kappa(matrix, Weighting.UNWEIGHTED)
            assert (result.kappa == 1.0) == (off_diagonal == 0)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_rows(("only",), [[3]])
        with pytest.raises(ValueError):
            ConfusionMatrix.from_rows(("a", "b"), [[1, 2]])
        with pytest.raises(ValueError):
            ConfusionMatrix.from_rows(("a", "b"), [[1, -2], [0, 3]])
        with pytest.raises(ValueError, match=r"distinct, got \['a'\]"):
            ConfusionMatrix.from_rows(("a", "a"), [[5, 1], [2, 7]])


class TestMatrixCsv:
    def test_read_labeled_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",high,moderate,low\nhigh,33,1,0\nmoderate,2,1,1\nlow,0,1,1\n")
        matrix = read_matrix_csv(path)
        assert matrix == RATING_MATRIX

    def test_label_mismatch_fails(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\nb,1,0\na,0,1\n")
        with pytest.raises(DataFormatError, match="label"):
            read_matrix_csv(path)


def make_episode(person_id, index, start, dod):
    """An episode from its start and delivery dates, which it holds as day ordinals."""
    return PregnancyEpisode(
        person_id, index, start.toordinal(), dod.toordinal(), (dod - start).days, AccuracyLevel.HIGH, 1,
        ExtremeFlag.NONE, False,
    )


def make_truth(person_id, index, start, dod):
    """A truth record from its start and delivery dates, which it holds as day ordinals."""
    return TruthRecord(person_id, index, start.toordinal(), dod.toordinal(), None)


class TestRoundTripScore:
    def test_lossless(self):
        truth = [make_truth(1, 1, date(2020, 1, 1), date(2020, 10, 7))]
        episodes = [make_episode(1, 1, date(2020, 1, 1), date(2020, 10, 7))]
        report = round_trip_score(truth, episodes)
        assert report.exact_start == report.exact_dod == 1.0
        assert report.start_within_7d == report.dod_within_1d == 1.0
        assert report.episode_count_match == 1.0

    def test_near_miss_counts_in_window_not_exact(self):
        truth = [make_truth(1, 1, date(2020, 1, 1), date(2020, 10, 7))]
        episodes = [make_episode(1, 1, date(2020, 1, 5), date(2020, 10, 7))]
        report = round_trip_score(truth, episodes)
        assert report.exact_start == 0.0
        assert report.start_within_7d == 1.0

    def test_missing_episode_is_count_mismatch(self):
        truth = [
            make_truth(1, 1, date(2019, 1, 1), date(2019, 10, 7)),
            make_truth(1, 2, date(2020, 6, 1), date(2021, 3, 8)),
        ]
        episodes = [make_episode(1, 1, date(2019, 1, 1), date(2019, 10, 7))]
        report = round_trip_score(truth, episodes)
        assert report.episode_count_match == 0.0
        assert report.exact_start == 0.5

    def test_person_absent_from_inference_counts_as_miss(self):
        truth = [make_truth(7, 1, date(2020, 1, 1), date(2020, 10, 7))]
        report = round_trip_score(truth, [])
        assert report.exact_start == 0.0
        assert report.episode_count_match == 0.0
