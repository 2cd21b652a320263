from collections import Counter
from datetime import date
from pathlib import Path

import pytest

from tedpc.cli import main
from tedpc.concept_registry import (
    AccuracyLevel,
    Domain,
    VocabularyEntry,
    classify_accuracy,
    default_dod_concepts_path,
    default_ga_concepts_path,
    load_dod_concepts,
    load_ga_concepts,
    load_vocabulary,
    phenotype_search,
    read_concept_ids,
)
from tedpc.errors import DataFormatError


class TestClassifyAccuracy:
    def test_single_week_is_high(self):
        assert classify_accuracy(40, 40) is AccuracyLevel.HIGH

    def test_five_week_range_is_moderate_high(self):
        assert classify_accuracy(9, 13) is AccuracyLevel.MODERATE_HIGH

    def test_eight_week_range_is_moderate_low(self):
        assert classify_accuracy(28, 35) is AccuracyLevel.MODERATE_LOW

    def test_trimester_is_low(self):
        assert classify_accuracy(1, 13) is AccuracyLevel.LOW

    def test_wider_than_trimester_rejected(self):
        with pytest.raises(ValueError, match="broader than one trimester"):
            classify_accuracy(1, 20)

    def test_invalid_bounds_rejected(self):
        for low, high in [(0, 5), (5, 3), (40, 46)]:
            with pytest.raises(ValueError):
                classify_accuracy(low, high)

    def test_total_on_all_valid_pairs(self):
        # Every width 1..13 maps to exactly one level; wider always errors.
        by_width = {}
        for low in range(1, 46):
            for high in range(low, 46):
                width = high - low + 1
                if width <= 13:
                    level = classify_accuracy(low, high)
                    by_width.setdefault(width, set()).add(level)
                else:
                    with pytest.raises(ValueError):
                        classify_accuracy(low, high)
        assert all(len(levels) == 1 for levels in by_width.values())
        assert set(by_width) == set(range(1, 14))


class TestGALoader:
    def test_shipped_file_partition(self, ga_registry):
        counts = Counter(spec.accuracy for spec in ga_registry)
        assert len(ga_registry) == 138
        assert counts[AccuracyLevel.HIGH] == 42
        assert counts[AccuracyLevel.MODERATE_HIGH] == 9
        assert counts[AccuracyLevel.MODERATE_LOW] == 5
        assert counts[AccuracyLevel.LOW] == 82

    def test_shipped_ranges_within_one_trimester(self, ga_registry):
        assert all(s.week_high - s.week_low + 1 <= 13 for s in ga_registry)

    def test_shipped_accuracy_consistent(self, ga_registry):
        assert all(classify_accuracy(s.week_low, s.week_high) is s.accuracy for s in ga_registry)

    def test_empty_file_with_header_loads_empty(self, tmp_path):
        path = tmp_path / "ga.csv"
        path.write_text("concept_id,name,accuracy_level,week_low,week_high,domain,vocabulary\n")
        registry = load_ga_concepts(path)
        assert len(registry) == 0
        assert [sum(spec.accuracy is level for spec in registry) for level in AccuracyLevel] == [0, 0, 0, 0]

    def test_identical_duplicate_rows_collapse(self, tmp_path):
        path = tmp_path / "ga.csv"
        row = "444098,\"Gestation period, 40 weeks\",high,40,40,Condition,SNOMED\n"
        path.write_text(
            "concept_id,name,accuracy_level,week_low,week_high,domain,vocabulary\n" + row + row
        )
        assert len(load_ga_concepts(path)) == 1

    def test_conflicting_duplicate_fails(self, tmp_path):
        path = tmp_path / "ga.csv"
        path.write_text(
            "concept_id,name,accuracy_level,week_low,week_high,domain,vocabulary\n"
            "444098,foo,high,40,40,Condition,SNOMED\n"
            "444098,foo,high,39,39,Condition,SNOMED\n"
        )
        with pytest.raises(DataFormatError, match="conflicting duplicate"):
            load_ga_concepts(path)

    def test_accuracy_mismatch_names_row(self, tmp_path):
        path = tmp_path / "ga.csv"
        path.write_text(
            "concept_id,name,accuracy_level,week_low,week_high,domain,vocabulary\n"
            "444098,foo,low,40,40,Condition,SNOMED\n"
        )
        with pytest.raises(DataFormatError, match=r"ga.csv:2"):
            load_ga_concepts(path)

    def test_over_wide_range_fails(self, tmp_path):
        path = tmp_path / "ga.csv"
        path.write_text(
            "concept_id,name,accuracy_level,week_low,week_high,domain,vocabulary\n"
            "1,foo,low,1,20,Condition,SNOMED\n"
        )
        with pytest.raises(DataFormatError, match="broader than one trimester"):
            load_ga_concepts(path)

    def test_manifest_mismatch_fails(self, tmp_path):
        path = tmp_path / "ga.csv"
        path.write_text(
            "#manifest total=2 high=2 mh=0 ml=0 low=0\n"
            "concept_id,name,accuracy_level,week_low,week_high,domain,vocabulary\n"
            "444098,foo,high,40,40,Condition,SNOMED\n"
        )
        with pytest.raises(DataFormatError, match="manifest check failed"):
            load_ga_concepts(path)

    def test_tampered_shipped_file_fails_manifest(self, ga_registry, tmp_path):
        # Dropping one row must trip the manifest, not pass silently.
        from tedpc.concept_registry import default_ga_concepts_path

        lines = Path(default_ga_concepts_path()).read_text().splitlines()
        (tmp_path / "ga.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataFormatError, match="manifest check failed"):
            load_ga_concepts(tmp_path / "ga.csv")


class TestDODLoader:
    def test_shipped_file_count(self, dod_registry):
        assert len(dod_registry) == 105

    def test_domain_ranks_consistent(self, dod_registry):
        expected = {Domain.PROCEDURE: 1, Domain.CONDITION: 2, Domain.OBSERVATION: 3}
        assert all(s.domain_rank == expected[s.domain] for s in dod_registry)

    def test_duplicated_entries_dedup(self, tmp_path):
        path = tmp_path / "dod.csv"
        row = "2110316,Cesarean delivery only,Procedure,CPT4\n"
        path.write_text("concept_id,name,domain,vocabulary\n" + row + row)
        registry = load_dod_concepts(path)
        assert len(registry) == 1
        assert registry.get(2110316).domain_rank == 1

    def test_measurement_domain_fails(self, tmp_path):
        path = tmp_path / "dod.csv"
        path.write_text("concept_id,name,domain,vocabulary\n1,foo,Measurement,LOINC\n")
        with pytest.raises(DataFormatError, match="unrankable domain"):
            load_dod_concepts(path)

    def test_unknown_domain_text_fails(self, tmp_path):
        path = tmp_path / "dod.csv"
        path.write_text("concept_id,name,domain,vocabulary\n1,foo,Gadget,SNOMED\n")
        with pytest.raises(DataFormatError, match="unknown domain"):
            load_dod_concepts(path)

    def test_manifest_mismatch_fails(self, tmp_path):
        path = tmp_path / "dod.csv"
        path.write_text(
            "#manifest total=3\nconcept_id,name,domain,vocabulary\n1,foo,Condition,SNOMED\n"
        )
        with pytest.raises(DataFormatError, match="manifest check failed"):
            load_dod_concepts(path)


def _shipped_with_manifest(path, manifest, shipped, rows=None):
    """A copy of a shipped concept file under another manifest line, cut to its first `rows` rows."""
    header, *data = Path(shipped).read_text().splitlines()[1:]
    path.write_text("\n".join([manifest, header, *data[:rows]]) + "\n")
    return path


class TestManifestRule:
    @pytest.mark.parametrize(
        "flag, manifest, shipped, rows",
        [
            ("--ga-concepts", "#manifest total=138", default_ga_concepts_path(), 128),
            ("--ga-concepts", "#manifest Total=138 high=42 mh=9 ml=5 low=82", default_ga_concepts_path(), 128),
            ("--dod-concepts", "#manifest total=105 high=1", default_dod_concepts_path(), None),
        ],
    )
    def test_manifest_other_than_the_loaded_counts_exit_2_naming_file(
        self, tmp_path, capsys, flag, manifest, shipped, rows
    ):
        path = _shipped_with_manifest(tmp_path / "concepts.csv", manifest, shipped, rows)
        assert main(["simulate", "--out", str(tmp_path / "sim"), flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: manifest check failed" in err
        assert not (tmp_path / "sim").exists()

    def test_manifest_words_may_be_spaced_freely(self, tmp_path):
        path = _shipped_with_manifest(
            tmp_path / "ga.csv", "#manifest  total=138\thigh=42 mh=9 ml=5 low=82 ", default_ga_concepts_path()
        )
        assert len(load_ga_concepts(path)) == 138

    def test_only_the_first_manifest_line_counts(self, tmp_path):
        path = tmp_path / "dod.csv"
        path.write_text(
            "#manifest total=1\n#manifest total=9\n# manifest total=9\n"
            "concept_id,name,domain,vocabulary\n1,foo,Condition,SNOMED\n"
        )
        assert len(load_dod_concepts(path)) == 1

    def test_vocabulary_has_no_manifest_rule(self, tmp_path):
        path = tmp_path / "vocab.csv"
        path.write_text("#manifest total=9\nconcept_id,name,domain,standard,valid\n10,x,Condition,true,true\n")
        assert len(load_vocabulary(path)) == 1


def _vocab(*rows):
    return [VocabularyEntry(*row) for row in rows]


class TestPhenotypeSearch:
    KEYWORDS = ["trimester", "gestation", "pregnan"]

    def test_substring_match(self):
        vocab = _vocab((1, "Third trimester pregnancy", Domain.CONDITION, True, True))
        assert len(phenotype_search(vocab, self.KEYWORDS)) == 1

    def test_no_substring_no_match(self):
        vocab = _vocab((1, "Hypertensive disorder", Domain.CONDITION, True, True))
        assert phenotype_search(vocab, self.KEYWORDS) == []

    def test_case_insensitive(self):
        vocab = _vocab((1, "PREGNANCY test", Domain.MEASUREMENT, True, True))
        assert len(phenotype_search(vocab, ["pregnan"])) == 1

    def test_domain_and_flag_filters(self):
        vocab = _vocab(
            (1, "Gestation period, 9 weeks", Domain.CONDITION, True, True),
            (2, "Gestation period, 9 weeks", Domain.CONDITION, False, True),
            (3, "Gestation period, 9 weeks", Domain.CONDITION, True, False),
            (4, "Gestational ultrasound", Domain.PROCEDURE, True, True),
        )
        hits = phenotype_search(vocab, ["gestation"], domains={Domain.CONDITION})
        assert [e.concept_id for e in hits] == [1]
        hits = phenotype_search(vocab, ["gestation"], standard_only=False, valid_only=False)
        assert [e.concept_id for e in hits] == [1, 2, 3, 4]

    def test_ordered_by_concept_id(self):
        vocab = _vocab(
            (9, "gestation a", Domain.CONDITION, True, True),
            (2, "gestation b", Domain.CONDITION, True, True),
        )
        assert [e.concept_id for e in phenotype_search(vocab, ["gestation"])] == [2, 9]

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            phenotype_search([], [])

    def test_keyword_union_monotone(self):
        import numpy as np

        rng = np.random.default_rng(7)
        words = ["gestation", "trimester", "pregnan", "delivery", "birth", "screen"]
        vocab = []
        for concept_id in range(200):
            name = " ".join(words[i] for i in rng.choice(len(words), size=2, replace=False))
            vocab.append(VocabularyEntry(concept_id, name, Domain.CONDITION, True, True))
        k1, k2 = ["gestation", "birth"], ["trimester"]
        union = phenotype_search(vocab, k1 + k2)
        merged = sorted(
            {e.concept_id for e in phenotype_search(vocab, k1)}
            | {e.concept_id for e in phenotype_search(vocab, k2)}
        )
        assert [e.concept_id for e in union] == merged


class TestVocabularyLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.csv"
        path.write_text(
            "concept_id,name,domain,standard,valid\n"
            "10,Third trimester pregnancy,Condition,true,true\n"
            "11,Something else,Procedure,false,true\n"
        )
        entries = load_vocabulary(path)
        assert len(entries) == 2
        assert entries[0].standard and not entries[1].standard

    def test_bad_flag_fails(self, tmp_path):
        path = tmp_path / "vocab.csv"
        path.write_text("concept_id,name,domain,standard,valid\n10,x,Condition,yep,true\n")
        with pytest.raises(DataFormatError):
            load_vocabulary(path)


class TestConceptIdFile:
    def test_bare_ids(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("# index set\n37311061\n12345\n")
        assert read_concept_ids(path) == {37311061, 12345}

    def test_header_with_extra_columns(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("name,concept_id\ncovid,37311061\n")
        assert read_concept_ids(path) == {37311061}

    def test_bad_row_fails(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("concept_id\nnot-a-number\n")
        with pytest.raises(DataFormatError):
            read_concept_ids(path)

    @pytest.mark.parametrize("ids", [["5", "+6"], ["5", "5_0"], ["5", " -7 "]])
    def test_bare_ids_read_the_same_in_any_row_order(self, tmp_path, ids):
        # Every id int() takes reads as an id, first row or not.
        expected = {int(text) for text in ids}
        for rows in (ids, ids[::-1]):
            path = tmp_path / "ids.csv"
            path.write_text("\n".join(rows) + "\n")
            assert read_concept_ids(path) == expected
