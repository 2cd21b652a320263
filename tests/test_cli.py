import argparse
import csv
import gc
import importlib
import json
import os
import random
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

import pytest

import tedpc
from tedpc import pipeline
from tedpc.cli import EXIT_BROKEN_PIPE, build_parser, main
from tedpc.dod_engine import rank_table
from tedpc.episode_builder import EPISODE_HEADER
from tedpc.errors import ConfigError
from tedpc.evaluation import Weighting
from tedpc.ga_engine import candidate_table
from tedpc.concept_registry import default_ga_concepts_path, read_concept_ids
from tedpc.config import RunConfig
from tedpc.ingestion import event_pairs, load_events, load_persons

TABLE4 = ",high,moderate,low\nhigh,33,1,0\nmoderate,2,1,1\nlow,0,1,1\n"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(
        ["simulate", "--out", str(out), "--seed", "21", "--n-persons", "40", "--index-rate", "0.6", "--pre-index", "0.2"]
    )
    assert code == 0
    return out


def run_infer(sim_dir, out_dir, *extra):
    return main(
        [
            "infer",
            "--persons",
            str(sim_dir / "persons.csv"),
            "--events",
            str(sim_dir / "events.csv"),
            "--out",
            str(out_dir),
            "--match-min",
            "100",
            "--match-max",
            "320",
            *extra,
        ]
    )


class TestInfer:
    def test_runs_and_writes_outputs(self, sim_dir, tmp_path, capsys):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        out = capsys.readouterr().out
        assert "episodes=" in out
        for name in ("episodes.csv", "summary.json", "unmatched_starts.csv", "quarantine.csv"):
            assert (tmp_path / "run" / name).exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "name-too-long"])
    @pytest.mark.parametrize(
        "command, flag",
        [("infer", "--events"), ("timeline", "--episodes"), ("infer", "--config"), ("evaluate", "--truth"),
         ("evaluate", "--episodes"), ("phenotype", "--vocabulary")],
    )
    def test_missing_input_exits_2_naming_path(self, sim_dir, tmp_path, capsys, command, flag, kind):
        path = tmp_path / "nope.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "name-too-long":
            # A file name over 255 bytes, which the OS refuses to look up.
            path = tmp_path / ("x" * 300 + ".csv")
        if command == "infer":
            argv = ["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(sim_dir / "events.csv")]
            argv += ["--out", str(tmp_path / "o")]
        elif command == "evaluate":
            # Both inputs readable, so only `path` can be the one reported.
            assert run_infer(sim_dir, tmp_path / "run") == 0
            argv = ["evaluate", "--truth", str(sim_dir / "truth.csv"), "--episodes", str(tmp_path / "run" / "episodes.csv")]
        elif command == "phenotype":
            argv = ["phenotype"]
        else:
            argv = analytics_argv(command, sim_dir, sim_dir / "episodes.csv", tmp_path / "o")
        # The flag given last wins, so `path` replaces any earlier value of it.
        assert main([*argv, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_bad_match_bounds_exit_3(self, sim_dir, tmp_path, capsys):
        code = run_infer(sim_dir, tmp_path / "run", "--match-min", "400")
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_reruns_byte_identical(self, sim_dir, tmp_path):
        assert run_infer(sim_dir, tmp_path / "a") == 0
        assert run_infer(sim_dir, tmp_path / "b") == 0
        for name in ("episodes.csv", "summary.json", "unmatched_dods.csv", "excluded_episodes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_quarantine_does_not_depend_on_row_order(self, tmp_path):
        persons = tmp_path / "persons.csv"
        persons.write_text("person_id,birth_date,sex,race,ethnicity\n1,1990-01-01,F,White,x\n")
        rows = ["2,4014295,Condition,2020-05-03", "2,4014295,Procedure,2020-05-03"]
        written = []
        for order in (rows, rows[::-1]):
            events = tmp_path / "events.csv"
            events.write_text("person_id,concept_id,domain,event_date\n" + "\n".join(order) + "\n")
            out = tmp_path / f"run{len(written)}"
            assert main(["infer", "--persons", str(persons), "--events", str(events), "--out", str(out)]) == 0
            written.append((out / "quarantine.csv").read_text())
        assert written[0] == written[1]
        assert written[0].splitlines()[1:] == rows

    def test_threads_1_writes_the_same_bytes_as_no_flag(self, sim_dir, tmp_path):
        # --threads 1 is accepted, and does nothing, for scripts written when infer had a thread pool.
        assert run_infer(sim_dir, tmp_path / "plain", "--emit-cohorts") == 0
        assert run_infer(sim_dir, tmp_path / "t1", "--threads", "1", "--emit-cohorts") == 0
        names = sorted(path.name for path in (tmp_path / "plain").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "t1").iterdir())
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "t1" / name).read_bytes(), name

    @pytest.mark.parametrize("threads", ["0", "4"])
    def test_threads_other_than_1_exit_3_naming_the_flag(self, sim_dir, tmp_path, capsys, threads):
        assert run_infer(sim_dir, tmp_path / "run", "--threads", threads) == 3
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_threads_in_a_config_file_is_an_unknown_key_exit_3(self, sim_dir, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"threads": 1}))
        assert run_infer(sim_dir, tmp_path / "run", "--config", str(config_path)) == 3
        assert "unknown config keys ['threads']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("cohort_start", "2018-06-01"), ("cohort_end", "2021-05-31"), ("min_age", 15), ("max_age", 49)]
    )
    def test_cohort_filter_bound_in_a_config_file_is_an_unknown_key_exit_3(self, sim_dir, tmp_path, capsys, key, value):
        # The delivery window and the age bounds are the study's constants, not settings.
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({key: value}))
        assert run_infer(sim_dir, tmp_path / "run", "--config", str(config_path)) == 3
        err = capsys.readouterr().err
        assert f"{config_path}: unknown config keys [{key!r}]" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_every_persons_events_are_consumed(self, sim_dir, tmp_path, monkeypatch):
        tables = []
        load_events = pipeline.load_events

        def capture(*args, **kwargs):
            tables.append(load_events(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(pipeline, "load_events", capture)
        assert run_infer(sim_dir, tmp_path / "run", "--emit-cohorts") == 0
        [table] = tables
        assert table.total_rows > 0
        assert table.events_by_person == {}

    def test_emit_cohorts_writes_debug_tables(self, sim_dir, tmp_path):
        assert run_infer(sim_dir, tmp_path / "run", "--emit-cohorts") == 0
        assert (tmp_path / "run" / "ga_cohort.csv").exists()
        assert (tmp_path / "run" / "dod_cohort.csv").exists()

    def test_summary_counts_match_the_cohort_tables_and_ignore_emit_cohorts(self, sim_dir, tmp_path):
        # Starts and deliveries are kept only for the cohort writers; summary.json counts them either way.
        assert run_infer(sim_dir, tmp_path / "plain") == 0
        assert run_infer(sim_dir, tmp_path / "cohorts", "--emit-cohorts") == 0
        summary = (tmp_path / "plain" / "summary.json").read_bytes()
        assert summary == (tmp_path / "cohorts" / "summary.json").read_bytes()
        counts = json.loads(summary)
        for key, name in [("gestation_starts", "ga_cohort.csv"), ("delivery_records", "dod_cohort.csv")]:
            data_rows = len((tmp_path / "cohorts" / name).read_text().splitlines()) - 1
            assert counts[key] == data_rows > 0, key

    def test_no_cohort_filters_keeps_exactly_the_excluded_episodes(self, tmp_path):
        # The golden cohort: persons.csv lacks every 50th person, and some deliveries fall outside the window.
        golden = Path(__file__).parent / "data" / "golden"
        argv = ["infer", "--persons", str(golden / "persons.csv"), "--events", str(golden / "events.csv")]
        assert main([*argv, "--out", str(tmp_path / "filtered")]) == 0
        assert main([*argv, "--out", str(tmp_path / "all"), "--no-cohort-filters"]) == 0

        def rows(run, name):
            return (tmp_path / run / name).read_text().splitlines()

        kept, everything = rows("filtered", "episodes.csv"), rows("all", "episodes.csv")
        excluded = rows("filtered", "excluded_episodes.csv")
        assert len(excluded) > 1
        assert rows("all", "excluded_episodes.csv") == excluded[:1]
        assert set(kept) <= set(everything)
        extra = [row.split(",")[:4] for row in everything if row not in set(kept)]
        assert sorted(extra) == sorted(row.split(",")[:4] for row in excluded[1:])

    def test_print_config_dumps_json_and_exits_0(self, sim_dir, tmp_path, capsys):
        code = run_infer(sim_dir, tmp_path / "run", "--print-config")
        assert code == 0
        config = json.loads(capsys.readouterr().out)
        assert config["match_min_days"] == 100
        assert config["window_days"] == 270

    def test_config_file_and_flag_precedence(self, sim_dir, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"match_min_days": 100, "match_max_days": 310, "window_days": 260}))
        code = main(
            [
                "infer",
                "--persons",
                str(sim_dir / "persons.csv"),
                "--events",
                str(sim_dir / "events.csv"),
                "--out",
                str(tmp_path / "run"),
                "--match-max",
                "320",
                "--config",
                str(config_path),
                "--print-config",
            ]
        )
        assert code == 0
        config = json.loads(capsys.readouterr().out)
        assert config["match_max_days"] == 320  # flag beats file
        assert config["window_days"] == 260  # file beats default

    def test_unknown_config_key_exit_3(self, sim_dir, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"no_such_key": 1}))
        code = run_infer(sim_dir, tmp_path / "run", "--config", str(config_path))
        assert code == 3

    @pytest.mark.parametrize(
        "setting",
        [
            {"window_days": "abc"},
            {"conflict_days": True},
            {"emit_cohorts": 1},
            {"pandemic_cutoff": 20200301},
            {"out_dir": 5},
        ],
        ids=["int-given-string", "int-given-bool", "bool-given-int", "date-given-int", "path-given-int"],
    )
    def test_config_value_of_wrong_json_type_exit_3(self, sim_dir, tmp_path, capsys, setting):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(setting))
        code = run_infer(sim_dir, tmp_path / "run", "--config", str(config_path))
        assert code == 3
        err = capsys.readouterr().err
        assert str(config_path) in err and next(iter(setting)) in err and "Traceback" not in err

    def test_out_naming_existing_file_exit_3(self, sim_dir, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert run_infer(sim_dir, target) == 3
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err

    def test_data_dir_env_fallback(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("TEDPC_DATA_DIR", str(sim_dir))
        monkeypatch.chdir(tmp_path)
        code = main(
            ["infer", "--persons", "persons.csv", "--events", "events.csv", "--out", str(tmp_path / "run"),
             "--match-min", "100", "--match-max", "320"]
        )
        assert code == 0

    def test_relative_out_is_not_looked_up_under_data_dir(self, sim_dir, tmp_path, monkeypatch, capsys):
        (tmp_path / "data" / "run").mkdir(parents=True)
        (tmp_path / "work").mkdir()
        monkeypatch.setenv("TEDPC_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path / "work")
        argv = ["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(sim_dir / "events.csv"),
                "--out", "run"]
        assert main([*argv, "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["out_dir"] == "run"
        assert main(argv) == 0
        assert (tmp_path / "work" / "run" / "episodes.csv").exists()
        assert not any((tmp_path / "data" / "run").iterdir())


class TestEvaluate:
    def test_matrix_linear_prints_kappa(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(TABLE4)
        assert main(["evaluate", "--matrix", str(path), "--weighting", "linear"]) == 0
        out = capsys.readouterr().out
        assert "kappa=0.6241" in out

    def test_matrix_unweighted_perfect_agreement_is_one(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,30,0\nb,0,10\n")
        assert main(["evaluate", "--matrix", str(path)]) == 0
        assert "kappa=1.0000" in capsys.readouterr().out

    def test_round_trip_scorecard(self, sim_dir, tmp_path, capsys):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--truth", str(sim_dir / "truth.csv"), "--episodes", str(tmp_path / "run" / "episodes.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact_start=1.0000" in out
        assert "episode_count_match=1.0000" in out

    @pytest.mark.parametrize("fault", ["repeated-row", "dod-not-after-start", "dod-before-start"])
    def test_malformed_truth_exit_2_naming_line(self, sim_dir, tmp_path, capsys, fault):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        header, *rows = (sim_dir / "truth.csv").read_text().splitlines()
        fields = rows[0].split(",")
        if fault == "repeated-row":
            rows.append(rows[0])
            line, message = len(rows) + 1, f"episode {fields[1]} of person {fields[0]} repeats an earlier row"
        elif fault == "dod-not-after-start":
            rows[0] = ",".join([*fields[:3], fields[2], fields[4]])
            line, message = 2, f"true_dod {fields[2]} is not after true_start {fields[2]}"
        else:
            rows[0] = ",".join([*fields[:2], fields[3], fields[2], fields[4]])
            line, message = 2, f"true_dod {fields[2]} is not after true_start {fields[3]}"
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--truth", str(truth), "--episodes", str(tmp_path / "run" / "episodes.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{truth}:{line}: {message}" in err and "Traceback" not in err

    def test_weighting_choices_are_the_enum_values(self):
        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        [weighting] = [a for a in commands.choices["evaluate"]._actions if a.dest == "weighting"]
        assert weighting.choices == [w.value for w in Weighting]
        assert weighting.default == Weighting.UNWEIGHTED.value

    def test_no_mode_exit_3(self, capsys):
        assert main(["evaluate"]) == 3

    @pytest.mark.parametrize("content", [",a,a\na,5,1\na,2,7\n", ",a, a \na,5,1\n a ,2,7\n"], ids=["plain", "padded"])
    def test_repeated_label_matrix_exit_2_naming_file(self, tmp_path, capsys, content):
        path = tmp_path / "m.csv"
        path.write_text(content)
        assert main(["evaluate", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: category labels must be distinct, got ['a'] more than once" in err and "Traceback" not in err

    def test_more_rows_than_labels_exit_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,1,0\nb,0,1\nc,0,0\n")
        assert main(["evaluate", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:4: row 3 has no column label, expected 2 rows" in err and "Traceback" not in err

    def test_all_zero_matrix_exit_2_naming_file(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,0,0\nb,0,0\n")
        assert main(["evaluate", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: confusion matrix total must be positive" in err and "Traceback" not in err


class TestPhenotype:
    def test_search_and_filters(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.csv"
        vocab.write_text(
            "concept_id,name,domain,standard,valid\n"
            "4239938,First trimester pregnancy,Condition,true,true\n"
            "9,PREGNANCY test,Measurement,true,true\n"
            "8,Hypertensive disorder,Condition,true,true\n"
            "7,Gestation period 9 weeks,Condition,false,true\n"
        )
        assert main(["phenotype", "--vocabulary", str(vocab)]) == 0
        out = capsys.readouterr().out
        assert "4239938" in out and "\n9," in out
        assert "Hypertensive" not in out and "\n7," not in out

    def test_out_file(self, tmp_path):
        vocab = tmp_path / "vocab.csv"
        vocab.write_text("concept_id,name,domain,standard,valid\n1,gestation,Condition,true,true\n")
        target = tmp_path / "hits.csv"
        assert main(["phenotype", "--vocabulary", str(vocab), "--out", str(target)]) == 0
        assert "gestation" in target.read_text()

    @pytest.mark.parametrize("target", ["adir", "afile/hits.csv"], ids=["directory", "under-a-file"])
    def test_out_that_cannot_be_written_exit_3_naming_path(self, tmp_path, capsys, target):
        vocab = tmp_path / "vocab.csv"
        vocab.write_text("concept_id,name,domain,standard,valid\n1,gestation,Condition,true,true\n")
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        assert main(["phenotype", "--vocabulary", str(vocab), "--out", str(tmp_path / target)]) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / target) in err and "Traceback" not in err

    def test_missing_vocabulary_exit_2(self, tmp_path):
        assert main(["phenotype", "--vocabulary", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--keywords", ","), ("--domains", "Condition,foo"), ("--domains", ",")],
        ids=["no-keyword", "unknown-domain", "no-domain"],
    )
    def test_bad_filter_flag_exit_3_naming_flag(self, tmp_path, capsys, flag, value):
        vocab = tmp_path / "vocab.csv"
        vocab.write_text("concept_id,name,domain,standard,valid\n1,gestation,Condition,true,true\n")
        assert main(["phenotype", "--vocabulary", str(vocab), flag, value]) == 3
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_empty_domains_means_no_filter(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.csv"
        vocab.write_text("concept_id,name,domain,standard,valid\n1,gestation,Condition,true,true\n")
        assert main(["phenotype", "--vocabulary", str(vocab), "--domains", ""]) == 0
        assert "1,gestation,Condition,true,true" in capsys.readouterr().out


class TestTimelineAndStats:
    def test_timeline_rows(self, sim_dir, tmp_path, capsys):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        capsys.readouterr()
        code = main(
            [
                "timeline",
                "--episodes",
                str(tmp_path / "run" / "episodes.csv"),
                "--events",
                str(sim_dir / "events.csv"),
                "--index-events",
                str(sim_dir / "index_concepts.csv"),
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 0
        timing = (tmp_path / "run" / "timing.csv").read_text().splitlines()
        assert timing[0] == "person_id,episode_index,index_concept_id,event_date,gestational_week,trimester"
        assert len(timing) > 1
        # pre-pregnancy rows map to week 0
        assert any(",0,pre" in line for line in timing[1:])
        # earliest timed week per episode agrees with generator bookkeeping
        from tedpc.synthgen import read_truth

        weeks_by_episode = {}
        for line in timing[1:]:
            person_id, index, _, _, week, _ = line.split(",")
            key = (int(person_id), int(index))
            weeks_by_episode[key] = min(weeks_by_episode.get(key, 99), int(week))
        for record in read_truth(sim_dir / "truth.csv"):
            if record.index_event_week is not None:
                assert weeks_by_episode[(record.person_id, record.episode_index)] == record.index_event_week

    def test_stats_report_and_gated_raw_export(self, sim_dir, tmp_path, capsys):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        conditions = tmp_path / "set.csv"
        conditions.write_text("concept_id\n777\n")
        base = [
            "stats",
            "--episodes",
            str(tmp_path / "run" / "episodes.csv"),
            "--persons",
            str(sim_dir / "persons.csv"),
            "--events",
            str(sim_dir / "events.csv"),
            "--index-events",
            str(sim_dir / "index_concepts.csv"),
            "--condition",
            f"obesity={conditions}",
            "--out",
            str(tmp_path / "run"),
        ]
        assert main(base) == 0
        report = (tmp_path / "run" / "report.md").read_text()
        assert "Index events by gestational week" in report
        assert not (tmp_path / "run" / "report.csv").exists()
        assert main(base + ["--unsuppressed"]) == 0
        assert (tmp_path / "run" / "report.csv").exists()
        assert (tmp_path / "run" / "histogram.csv").exists()

    def test_missing_condition_set_exit_2(self, sim_dir, tmp_path):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        code = main(
            [
                "stats",
                "--episodes",
                str(tmp_path / "run" / "episodes.csv"),
                "--persons",
                str(sim_dir / "persons.csv"),
                "--events",
                str(sim_dir / "events.csv"),
                "--index-events",
                str(sim_dir / "index_concepts.csv"),
                "--condition",
                f"obesity={tmp_path / 'missing.csv'}",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 2

    def test_repeated_condition_name_exit_3(self, sim_dir, tmp_path, capsys):
        first, second = tmp_path / "x.csv", tmp_path / "y.csv"
        for path in (first, second):
            path.write_text("concept_id\n777\n")
        argv = analytics_argv("stats", sim_dir, tmp_path / "episodes.csv", tmp_path / "run")
        assert main([*argv, "--condition", f"obesity={first}", "--condition", f"obesity={second}"]) == 3
        err = capsys.readouterr().err
        assert "--condition name 'obesity'" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["total", "Age group", "Race", "a|b", "a\rb", "a\nb"])
    def test_condition_name_that_would_corrupt_the_report_exit_3(self, sim_dir, tmp_path, capsys, name):
        # A built-in section's name would merge its rows into that section; '|' or a line break splits a row.
        conditions = tmp_path / "x.csv"
        conditions.write_text("concept_id\n777\n")
        argv = analytics_argv("stats", sim_dir, tmp_path / "episodes.csv", tmp_path / "run")
        assert main([*argv, "--condition", f"{name}={conditions}"]) == 3
        err = capsys.readouterr().err
        assert f"--condition name {name!r}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_cutoff_flag(self, sim_dir, tmp_path):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        code = main(
            [
                "stats",
                "--episodes",
                str(tmp_path / "run" / "episodes.csv"),
                "--persons",
                str(sim_dir / "persons.csv"),
                "--events",
                str(sim_dir / "events.csv"),
                "--index-events",
                str(sim_dir / "index_concepts.csv"),
                "--cutoff",
                "2020-06-01",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 0

    def test_config_windows_split_the_table(self, sim_dir, tmp_path):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        episodes = tmp_path / "run" / "episodes.csv"
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps(
                {
                    "pre_window": ["2018-06-01", "2020-02-29"],
                    "peri_window": ["2020-05-01", "2021-05-31"],
                    "suppression_threshold": 5,
                }
            )
        )
        argv = analytics_argv("stats", sim_dir, episodes, tmp_path / "out") + ["--config", str(config_path)]
        assert main(argv + ["--unsuppressed"]) == 0
        dods = [date.fromisoformat(line.split(",")[3]) for line in episodes.read_text().splitlines()[1:]]
        pre = sum(date(2018, 6, 1) <= d <= date(2020, 2, 29) for d in dods)
        peri = sum(date(2020, 5, 1) <= d <= date(2021, 5, 31) for d in dods)
        assert 0 < pre + peri < len(dods)
        totals = (tmp_path / "out" / "report.csv").read_text().splitlines()[1]
        assert totals.split(",")[2:4] == [str(pre), str(peri)]
        assert "fewer than 5 episodes" in (tmp_path / "out" / "report.md").read_text()
        # With windows set, the cutoff plays no part.
        assert main(argv + ["--unsuppressed", "--cutoff", "2021-01-01", "--out", str(tmp_path / "cut")]) == 0
        for name in ("report.md", "report.csv", "histogram.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "cut" / name).read_bytes()

    def test_short_episode_row_exit_2_naming_line(self, sim_dir, tmp_path, capsys):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        episodes = tmp_path / "run" / "episodes.csv"
        lines = episodes.read_text().splitlines()
        episodes.write_text("\n".join([lines[0], lines[1], "1,2,2020-01-01"]) + "\n")
        capsys.readouterr()
        code = main(
            [
                "timeline",
                "--episodes",
                str(episodes),
                "--events",
                str(sim_dir / "events.csv"),
                "--index-events",
                str(sim_dir / "index_concepts.csv"),
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert f"{episodes}:3: expected 9 fields, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            '{"pandemic_cutoff": "notadate"}',
            '{"pre_window": ["2018-06-01"], "peri_window": ["2020-05-01", "2021-05-31"]}',
            '{"pre_window": ["2018-06-01", "notadate"], "peri_window": ["2020-05-01", "2021-05-31"]}',
            '{"pre_window": "2018-06-01", "peri_window": ["2020-05-01", "2021-05-31"]}',
            '{"suppression_threshold": "five"}',
            '{"pre_window": [',
            '{"window_days": ' + "9" * 5000 + "}",
            '{"window_days": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"threshold": 5}',
            '{"pre_window": ["2018-06-01", "2020-02-29"]}',
            '{"suppression_threshold": -1}',
            '{"pre_window": ["2020-02-29", "2018-06-01"], "peri_window": ["2020-05-01", "2021-05-31"]}',
            '{"pre_window": ["2018-06-01", "2020-02-29"], "peri_window": ["2021-05-31", "2020-05-01"]}',
            '{"pre_window": ["2018-06-01", "2020-06-30"], "peri_window": ["2020-05-01", "2021-05-31"]}',
            '{"pre_window": ["2020-06-01", "2020-06-30"], "peri_window": ["2020-05-01", "2021-05-31"]}',
            '{"pre_window": ["2018-06-01", "2020-05-01"], "peri_window": ["2020-05-01", "2021-05-31"]}',
        ],
        ids=[
            "bad-date",
            "one-item-window",
            "bad-window-date",
            "window-not-a-list",
            "non-integer-threshold",
            "invalid-json",
            "integer-too-long",
            "nested-too-deep",
            "unknown-key",
            "unpaired-windows",
            "negative-threshold",
            "pre-window-start-after-end",
            "peri-window-start-after-end",
            "overlapping-windows",
            "pre-window-inside-peri",
            "windows-sharing-a-day",
        ],
    )
    def test_bad_stats_config_exit_3_naming_file_before_reading_input(self, sim_dir, tmp_path, capsys, content):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(content)
        # No input exists, so a config error reported now came before any read.
        argv = analytics_argv("stats", sim_dir, tmp_path / "missing.csv", tmp_path / "out")
        assert main(argv + ["--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert str(config_path) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_print_config_with_windows_round_trips(self, sim_dir, tmp_path, capsys):
        first = tmp_path / "first.json"
        first.write_text(json.dumps({"pre_window": ["2018-06-01", "2020-02-29"], "peri_window": ["2020-05-01", "2021-05-31"]}))
        argv = analytics_argv("stats", sim_dir, tmp_path / "episodes.csv", tmp_path / "out") + ["--print-config"]
        assert main(argv + ["--config", str(first)]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["peri_window"] == ["2020-05-01", "2021-05-31"]
        second = tmp_path / "second.json"
        second.write_text(printed)
        assert main(argv + ["--config", str(second)]) == 0
        assert capsys.readouterr().out == printed


# Episode rows that agree with themselves but that infer never writes, each with the error that names it.
BAD_EPISODE_ROWS = [
    ("1,0,2020-01-01,2020-10-01,274,high,1,none,false", "episode_index 0 is below 1"),
    ("-5,-1,2020-01-01,2020-10-01,274,high,9,none,false", "episode_index -1 is below 1"),
    ("1,1,2020-01-01,2020-10-01,274,high,9,none,false", "dod_domain_rank 9 is not one of [1, 2, 3]"),
    ("1,1,2020-01-01,2020-10-01,274,high,0,none,false", "dod_domain_rank 0 is not one of [1, 2, 3]"),
]
BAD_EPISODE_ROW_IDS = ["index-0", "index-negative", "rank-9", "rank-0"]


class TestTableDialect:
    @pytest.mark.parametrize(
        "table, content, expected",
        [
            ("truth", "person_id,episode_index,true_start,true_dod,index_event_week\n1,1,2020-13-01,2020-10-01,\n",
             "{path}:2: month must be in 1..12"),
            ("truth", "person_id,episode_index,true_start,true_dod,index_event_week\n\n1,1,2020-01-01\n",
             "{path}:3: expected 5 fields, got 3"),
            ("truth", "person,episode\n1,1\n", "{path}: bad header"),
            ("truth", "person_id,episode_index,true_start,true_dod,index_event_week\n1,1,2020-01-01,2020-10-01,-3\n",
             "{path}:2: index_event_week -3 is negative"),
            ("episodes", "", "{path}: empty file, expected header"),
            *(
                ("episodes", f"{','.join(EPISODE_HEADER)}\n1,1,2020-01-01,2020-10-01,274,high,1,none,{flag}\n",
                 f"{{path}}:2: unknown value {flag!r}")
                for flag in ("yes", "True", "")
            ),
            # A row must agree with itself and name an episode once: stats would count it as written.
            ("episodes", f"{','.join(EPISODE_HEADER)}\n1,1,2020-01-01,2020-10-01,100,high,1,none,false\n",
             "{path}:2: gestation_days 100, extreme_flag 'none' contradict dates 274 days apart"),
            ("episodes", f"{','.join(EPISODE_HEADER)}\n1,1,2020-01-01,2020-10-01,274,high,1,short,false\n",
             "{path}:2: gestation_days 274, extreme_flag 'short' contradict dates 274 days apart"),
            ("episodes", f"{','.join(EPISODE_HEADER)}\n" + "1,1,2020-01-01,2020-10-01,274,high,1,none,false\n" * 2,
             "{path}:3: episode 1 of person 1 repeats an earlier row"),
            # Agrees with itself, but no pregnancy ends before it starts.
            ("episodes", f"{','.join(EPISODE_HEADER)}\n1,1,2020-10-01,2020-01-01,-274,high,1,short,false\n",
             "{path}:2: gestation_days -274: dod 2020-01-01 is not after start_date 2020-10-01"),
            # infer numbers episodes from 1 and ranks deliveries 1-3 (procedure, condition, observation).
            *(
                ("episodes", f"{','.join(EPISODE_HEADER)}\n{row}\n", f"{{path}}:2: {message}")
                for row, message in BAD_EPISODE_ROWS
            ),
        ],
        ids=["truth-bad-date", "truth-short-row", "truth-bad-header", "truth-negative-week", "episodes-empty",
             "conflict-flag-yes", "conflict-flag-True", "conflict-flag-empty",
             "gestation-days-off-dates", "extreme-flag-off-gestation", "episode-repeated", "dod-before-start",
             *(f"episode-{name}" for name in BAD_EPISODE_ROW_IDS)],
    )
    def test_malformed_table_exit_2_naming_file(self, sim_dir, tmp_path, capsys, table, content, expected):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        paths = {"truth": sim_dir / "truth.csv", "episodes": tmp_path / "run" / "episodes.csv"}
        paths[table] = tmp_path / f"{table}.csv"
        paths[table].write_text(content)
        capsys.readouterr()
        code = main(["evaluate", "--truth", str(paths["truth"]), "--episodes", str(paths["episodes"])])
        assert code == 2
        err = capsys.readouterr().err
        assert expected.format(path=paths[table]) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["timeline", "stats"])
    @pytest.mark.parametrize("row, message", BAD_EPISODE_ROWS, ids=BAD_EPISODE_ROW_IDS)
    def test_episode_index_and_rank_out_of_range_exit_2_in_timeline_and_stats(
        self, sim_dir, tmp_path, capsys, command, row, message
    ):
        episodes = tmp_path / "episodes.csv"
        episodes.write_text(f"{','.join(EPISODE_HEADER)}\n{row}\n")
        assert main(analytics_argv(command, sim_dir, episodes, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"{episodes}:2: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["20200503", "2020-W19-7"], ids=["basic-format", "iso-week"])
    @pytest.mark.parametrize("table, field", [("events", 3), ("persons", 1), ("episodes", 2)])
    def test_date_other_than_yyyy_mm_dd_exit_2_naming_line(self, sim_dir, tmp_path, capsys, table, field, text):
        # Python 3.11's date.fromisoformat takes both forms; 3.10's does not.
        assert run_infer(sim_dir, tmp_path / "run") == 0
        paths = {
            "events": sim_dir / "events.csv",
            "persons": sim_dir / "persons.csv",
            "episodes": tmp_path / "run" / "episodes.csv",
        }
        lines = paths[table].read_text().splitlines()
        row = lines[2].split(",")
        row[field] = text
        lines[2] = ",".join(row)
        paths[table] = tmp_path / f"{table}.csv"
        paths[table].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if table == "episodes":
            code = main(analytics_argv("timeline", sim_dir, paths["episodes"], tmp_path / "out"))
        else:
            persons, events = str(paths["persons"]), str(paths["events"])
            code = main(["infer", "--persons", persons, "--events", events, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{paths[table]}:3: bad date {text!r}, expected YYYY-MM-DD" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "reader, huge",
        [
            *((reader, '"' + "x" * 131_073 + '"') for reader in ("events", "index-events", "matrix")),
            # Unquoted, the padded field parses once stripped: only its length makes the row bad.
            *((reader, "1" + " " * 131_073) for reader in ("events", "index-events", "matrix")),
        ],
        ids=["events", "index-events", "matrix", "padded-events", "padded-index-events", "padded-matrix"],
    )
    def test_field_over_the_csv_limit_exit_2_naming_line(self, sim_dir, tmp_path, capsys, reader, huge):
        lines = {
            "events": (sim_dir / "events.csv").read_text().splitlines()[:3] + [f"1,{huge},Condition,2020-01-01"],
            "index-events": ["concept_id", huge],
            "matrix": [",a,b", f"a,{huge},0", "b,0,1"],
        }[reader]
        path = tmp_path / f"{reader}.csv"
        path.write_text("\n".join(lines) + "\n")
        line = 4 if reader == "events" else 2
        assert run_infer(sim_dir, tmp_path / "run") == 0
        capsys.readouterr()
        if reader == "events":
            code = main(["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(path),
                         "--out", str(tmp_path / "out")])
        elif reader == "index-events":
            code = main(analytics_argv("timeline", sim_dir, tmp_path / "run" / "episodes.csv", tmp_path / "out",
                                       index_events=path))
        else:
            code = main(["evaluate", "--matrix", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: field larger than field limit" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "reader, content, expected",
        [
            ("index-events", "concept_id\n5\n\nnot-a-number\n", "{path}:4: bad concept id row ['not-a-number']"),
            ("matrix", ",a,b\n\na,1,0,9\nb,0,1\n", "{path}:3: row 1 has 4 fields, expected 3"),
        ],
        ids=["index-events", "matrix"],
    )
    def test_bad_row_of_a_list_reader_exit_2_naming_line(self, sim_dir, tmp_path, capsys, reader, content, expected):
        path = tmp_path / f"{reader}.csv"
        path.write_text(content)
        if reader == "index-events":
            assert run_infer(sim_dir, tmp_path / "run") == 0
            capsys.readouterr()
            code = main(analytics_argv("timeline", sim_dir, tmp_path / "run" / "episodes.csv", tmp_path / "out",
                                       index_events=path))
        else:
            code = main(["evaluate", "--matrix", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert expected.format(path=path) in err and "Traceback" not in err

    GOLDEN = Path(__file__).parent / "data" / "golden"

    @staticmethod
    def quoted_crlf_copy(source, target):
        """`source` rewritten with every field quoted and `\\r\\n` line ends: read by csv, not split as plain text."""
        with open(source, newline="", encoding="utf-8") as fh, open(target, "w", newline="", encoding="utf-8") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(fh))
        return target

    def golden_commands(self, events, out):
        persons, index = str(self.GOLDEN / "persons.csv"), str(self.GOLDEN / "index_concepts.csv")
        common = ["--events", str(events), "--index-events", index, "--episodes", str(out / "infer" / "episodes.csv")]
        return [
            ["infer", "--persons", persons, "--events", str(events), "--out", str(out / "infer"), "--emit-cohorts"],
            ["timeline", *common, "--out", str(out / "timeline")],
            ["stats", *common, "--persons", persons, "--unsuppressed", f"--condition=idx={index}",
             "--out", str(out / "stats")],
        ]

    def test_quoted_crlf_events_write_the_same_bytes(self, tmp_path):
        plain = self.GOLDEN / "events.csv"
        quoted = self.quoted_crlf_copy(plain, tmp_path / "quoted.csv")
        written = []
        for events in (plain, quoted):
            out = tmp_path / events.stem
            for argv in self.golden_commands(events, out):
                assert main(argv) == 0, argv
            written.append({str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*") if path.is_file()})
        assert written[0] == written[1] and len(written[0]) == 12

    @pytest.mark.parametrize(
        "row",
        ["1,4014295,Condition,2020-13-01", "1,4014295,Widget,2020-01-01", "1,4014295,Condition", "x,1,Condition,2020-01-01",
         "1,4014295,Condition,2020-01-01,9"],
        ids=["bad-date", "bad-domain", "short-row", "bad-person", "long-row"],
    )
    def test_bad_row_in_quoted_crlf_events_fails_as_in_plain(self, tmp_path, capsys, row):
        golden = self.GOLDEN / "events.csv"
        # The episodes that timeline and stats read come from the good file; infer stops before writing any.
        assert main(self.golden_commands(golden, tmp_path / "out")[0]) == 0
        lines = golden.read_text().splitlines()
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join(lines[:500] + [row] + lines[500:]) + "\n")
        quoted = self.quoted_crlf_copy(plain, tmp_path / "quoted.csv")
        capsys.readouterr()
        errors = []
        for events in (plain, quoted):
            for argv in self.golden_commands(events, tmp_path / "out"):
                assert main(argv) == 2, argv
                errors.append(capsys.readouterr().err.replace(str(events), "EVENTS"))
        assert len(set(errors)) == 1 and "EVENTS:501: " in errors[0] and "Traceback" not in errors[0]

    def test_byte_order_mark_is_accepted(self, sim_dir, tmp_path):
        bom = tmp_path / "bom"
        bom.mkdir()
        for name in ("persons.csv", "events.csv"):
            (bom / name).write_bytes(b"\xef\xbb\xbf" + (sim_dir / name).read_bytes())
        assert run_infer(sim_dir, tmp_path / "plain", "--emit-cohorts") == 0
        assert run_infer(bom, tmp_path / "with-bom", "--emit-cohorts") == 0
        plain = {path.name: path.read_bytes() for path in (tmp_path / "plain").iterdir()}
        assert plain == {path.name: path.read_bytes() for path in (tmp_path / "with-bom").iterdir()}


class TestEncoding:
    @pytest.mark.parametrize(
        "target, code",
        [("events", 2), ("persons", 2), ("config", 3), ("index-events", 2), ("matrix", 2)],
    )
    def test_byte_that_is_not_utf8_names_the_file(self, sim_dir, tmp_path, capsys, target, code):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        inputs = {
            "events": (sim_dir / "events.csv").read_bytes(),
            "persons": (sim_dir / "persons.csv").read_bytes(),
            "config": b'{"suppression_threshold": 5}',
            "index-events": (sim_dir / "index_concepts.csv").read_bytes(),
            "matrix": TABLE4.encode(),
        }
        paths = {}
        for name, content in inputs.items():
            paths[name] = tmp_path / f"{name}.in"
            paths[name].write_bytes(content + b"\xff\n" if name == target else content)
        episodes = tmp_path / "run" / "episodes.csv"
        if target == "matrix":
            argv = ["evaluate", "--matrix", str(paths["matrix"])]
        elif target in ("events", "persons"):
            argv = ["infer", "--persons", str(paths["persons"]), "--events", str(paths["events"]),
                    "--out", str(tmp_path / "o")]
        else:
            argv = analytics_argv("stats", sim_dir, episodes, tmp_path / "o", index_events=paths["index-events"])
            argv += ["--config", str(paths["config"])]
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{paths[target]}: not UTF-8 text" in err and "Traceback" not in err

    def test_byte_order_mark_in_config_file(self, sim_dir, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"suppression_threshold": 5}).encode())
        argv = analytics_argv("stats", sim_dir, tmp_path / "e.csv", tmp_path / "o") + ["--print-config"]
        assert main(argv + ["--config", str(config_path)]) == 0
        assert json.loads(capsys.readouterr().out)["suppression_threshold"] == 5


class TestRowOrder:
    def test_shuffled_events_and_persons_write_the_same_bytes(self, tmp_path, ga_registry):
        sim = tmp_path / "sim"
        assert main(
            ["simulate", "--out", str(sim), "--seed", "31", "--n-persons", "200", "--index-rate", "0.9",
             "--drop-ga", "0.1", "--conflict-ga", "0.2", "--shift", "0.3", "--shift-max-days", "30",
             "--drop-dod", "0.1", "--pre-index", "0.3"]
        ) == 0
        header, *persons = (sim / "persons.csv").read_text().splitlines()
        # Every 20th person goes missing, so quarantine.csv has rows too.
        (sim / "persons.csv").write_text("\n".join([header] + [p for i, p in enumerate(persons) if i % 20]) + "\n")
        condition = tmp_path / "high.csv"
        condition.write_text("".join(f"{s.concept_id}\n" for s in ga_registry if s.accuracy == 1))
        rng = random.Random(5)
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        for name in ("persons.csv", "events.csv"):
            header, *rows = (sim / name).read_text().splitlines()
            rng.shuffle(rows)
            (shuffled / name).write_text("\n".join([header] + rows) + "\n")

        def outputs(inputs, out):
            persons, events = str(inputs / "persons.csv"), str(inputs / "events.csv")
            infer = ["infer", "--persons", persons, "--events", events, "--emit-cohorts"]
            assert main([*infer, "--out", str(out / "infer")]) == 0
            analytics = ["--episodes", str(out / "infer" / "episodes.csv"), "--events", events,
                         "--index-events", str(sim / "index_concepts.csv")]
            assert main(["timeline", *analytics, "--out", str(out / "timeline")]) == 0
            assert main(
                ["stats", *analytics, "--persons", persons, "--unsuppressed", f"--condition=high={condition}",
                 "--out", str(out / "stats")]
            ) == 0
            return {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*") if path.is_file()}

        sorted_outputs = outputs(sim, tmp_path / "sorted")
        assert sorted_outputs == outputs(shuffled, tmp_path / "from-shuffled")
        assert len(sorted_outputs) == 12
        assert sorted_outputs["infer/quarantine.csv"].count(b"\n") > 1


class TestSimulate:
    def test_writes_all_files(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--seed", "3", "--n-persons", "10"]) == 0
        for name in ("persons.csv", "events.csv", "truth.csv", "noise_log.csv", "index_concepts.csv"):
            assert (out / name).exists()

    def test_bad_noise_rate_exit_3(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--drop-ga", "2.0"]) == 3

    @pytest.mark.parametrize("flag", ["--seed", "--n-persons"])
    def test_value_beyond_the_stream_packing_exit_3(self, tmp_path, capsys, flag):
        assert main(["simulate", "--out", str(tmp_path / "sim"), flag, str(2**32)]) == 3
        err = capsys.readouterr().err
        assert flag.lstrip("-").replace("-", "_") in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be an int in [0, 4294967295], got -1"),
            ("--n-persons", "-5", "n_persons must be an int in [0, 4294967295], got -5"),
            ("--index-rate", "2", "index_event_rate must be a number in [0, 1], got 2.0"),
            ("--shift-max-days", "0", "shift_max_days must be an int of at least 1, got 0"),
        ],
    )
    def test_bad_setting_exits_3_before_making_the_output_directory(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), flag, value]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_index_concept_collision_exits_3_before_making_the_output_directory(self, tmp_path, capsys):
        # The shipped GA concept set with its first concept renamed to the index concept.
        ga = tmp_path / "ga.csv"
        shipped = default_ga_concepts_path().read_text(encoding="utf-8")
        ga.write_text(shipped.replace("\n2793352,", "\n900000001,", 1), encoding="utf-8")
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--ga-concepts", str(ga)]) == 3
        assert capsys.readouterr().err == "config error: index concept 900000001 collides with a registry concept\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "persons, max_days", [("5", "10000000"), ("50", "40000")], ids=["past-date-max", "past-2100"]
    )
    def test_shift_that_could_leave_the_event_date_range_exit_3(self, tmp_path, capsys, persons, max_days):
        # Unbounded, the first overflowed date arithmetic and the second wrote
        # events after 2100-12-31, which infer rejects.
        argv = ["simulate", "--out", str(tmp_path / "sim"), "--seed", "1", "--n-persons", persons,
                "--shift", "1", "--shift-max-days", max_days]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "shift_max_days must be at most" in err and "Traceback" not in err

    @pytest.mark.parametrize("max_days, code", [("29068", 0), ("29069", 3)], ids=["at-bound", "past-bound"])
    def test_shift_bound_is_fixed_by_the_study_window(self, tmp_path, capsys, max_days, code):
        # The delivery window is the study's own, so the bound does not depend on any other setting.
        argv = ["simulate", "--out", str(tmp_path / "sim"), "--seed", "1", "--n-persons", "5",
                "--shift", "1", "--shift-max-days", max_days]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("shift_max_days must be at most 29068" in err) == (code == 3) and "Traceback" not in err

    def test_exit_4_on_invariant_breach(self, monkeypatch, sim_dir, tmp_path):
        import tedpc.pipeline as pipeline
        from tedpc.errors import InvariantError

        def boom(*args, **kwargs):
            raise InvariantError("forced")

        monkeypatch.setattr(pipeline, "match_episodes", boom)
        assert run_infer(sim_dir, tmp_path / "run") == 4


def analytics_argv(command, sim_dir, episodes, out_dir, events=None, index_events=None):
    """Arguments of a timeline or stats run over sim_dir's cohort."""
    argv = [
        command,
        "--episodes",
        str(episodes),
        "--events",
        str(events or sim_dir / "events.csv"),
        "--index-events",
        str(index_events or sim_dir / "index_concepts.csv"),
        "--out",
        str(out_dir),
    ]
    if command == "stats":
        argv += ["--persons", str(sim_dir / "persons.csv")]
    return argv


class TestFilteredEventLoading:
    @pytest.mark.parametrize("command", ["timeline", "stats"])
    @pytest.mark.parametrize(
        "row",
        [
            "1,999999999,Condition,2020-13-01",
            "1,999999999,Condition,1899-12-31",
            "1,999999999,Widget,2020-01-01",
            "1,999999999,Condition",
            "x,999999999,Condition,2020-01-01",
            "1,99999999x,Condition,2020-01-01",
        ],
        ids=["bad-date", "out-of-range-date", "unknown-domain", "short-row", "bad-person-id", "bad-concept-id"],
    )
    def test_bad_row_outside_the_filter_exit_2_naming_line(self, sim_dir, tmp_path, capsys, command, row):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        lines = (sim_dir / "events.csv").read_text().splitlines()
        events = tmp_path / "e.csv"
        events.write_text("\n".join(lines + [row]) + "\n")
        capsys.readouterr()
        code = main(analytics_argv(command, sim_dir, tmp_path / "run" / "episodes.csv", tmp_path / "out", events))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{events}:{len(lines) + 1}:" in err and "Traceback" not in err

    def test_byte_order_mark_in_concept_id_file(self, sim_dir, tmp_path):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        index = tmp_path / "index.csv"
        index.write_bytes(b"\xef\xbb\xbf" + (sim_dir / "index_concepts.csv").read_bytes())
        episodes = tmp_path / "run" / "episodes.csv"
        assert main(analytics_argv("timeline", sim_dir, episodes, tmp_path / "plain")) == 0
        assert main(analytics_argv("timeline", sim_dir, episodes, tmp_path / "bom", index_events=index)) == 0
        plain = (tmp_path / "plain" / "timing.csv").read_bytes()
        assert plain.count(b"\n") > 1 and plain == (tmp_path / "bom" / "timing.csv").read_bytes()


class TestInferConceptFilter:
    def cohort(self, sim_dir, tmp_path, ga_registry, *extra_events):
        """sim_dir's cohort plus a person whose only events are index events, and `extra_events` rows."""
        persons = (sim_dir / "persons.csv").read_text().splitlines()
        new_id = max(int(line.split(",")[0]) for line in persons[1:]) + 1
        index_id = int((sim_dir / "index_concepts.csv").read_text().split()[1])
        mismatched = next(spec for spec in ga_registry if spec.domain.value != "Drug")
        extra = [
            *(f"{new_id},{index_id},Condition,2020-0{month}-01" for month in (3, 5, 7)),
            f"{new_id + 1},{index_id},Condition,2020-05-01",  # unknown person: quarantined
            f"1,{mismatched.concept_id},Drug,2012-06-01",  # domain mismatch
            *extra_events,
        ]
        (tmp_path / "persons.csv").write_text("\n".join(persons + [f"{new_id},1990-01-01,F,White,x"]) + "\n")
        lines = (sim_dir / "events.csv").read_text().splitlines() + extra
        (tmp_path / "events.csv").write_text("\n".join(lines) + "\n")
        argv = ["infer", "--persons", str(tmp_path / "persons.csv"), "--events", str(tmp_path / "events.csv")]
        return new_id, len(lines), argv

    def test_only_engine_events_are_grouped_and_every_row_is_counted(
        self, sim_dir, tmp_path, monkeypatch, ga_registry, dod_registry
    ):
        new_id, _, argv = self.cohort(sim_dir, tmp_path, ga_registry)
        grouped = {}
        real_load_events = pipeline.load_events

        def capture(*args, **kwargs):
            table = real_load_events(*args, **kwargs)
            grouped.update((person_id, list(event_pairs(events))) for person_id, events in table.events_by_person.items())
            return table

        monkeypatch.setattr(pipeline, "load_events", capture)
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out), "--emit-cohorts", "--no-cohort-filters"]) == 0
        engine_concepts = candidate_table(ga_registry).keys() | rank_table(dod_registry).keys()
        assert grouped and new_id not in grouped
        assert {concept_id for events in grouped.values() for _, concept_id in events} <= engine_concepts

        # The index concepts too, with no domain check; the engine concepts with their registry domains.
        concepts = dict.fromkeys(read_concept_ids(sim_dir / "index_concepts.csv"))
        concepts.update((spec.concept_id, spec.domain) for registry in (dod_registry, ga_registry) for spec in registry)
        unfiltered = load_events(tmp_path / "events.csv", concepts, known_persons=load_persons(tmp_path / "persons.csv"))
        assert new_id in unfiltered.events_by_person
        summary = json.loads((out / "summary.json").read_text())
        counts = (summary["event_rows"], summary["events_quarantined"], summary["domain_mismatches"])
        assert counts == (unfiltered.total_rows, len(unfiltered.quarantined), unfiltered.domain_mismatches)
        assert min(counts) > 0
        for path in out.glob("*.csv"):
            person_ids = {line.split(",")[0] for line in path.read_text().splitlines()[1:]}
            assert str(new_id) not in person_ids, path.name

    def test_bad_date_in_an_index_event_row_exit_2_naming_line(self, sim_dir, tmp_path, capsys, ga_registry):
        index_id = int((sim_dir / "index_concepts.csv").read_text().split()[1])
        _, line, argv = self.cohort(sim_dir, tmp_path, ga_registry, f"1,{index_id},Condition,2020-13-01")
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'events.csv'}:{line}:" in err and "Traceback" not in err


class TestPathsUnderAFile:
    @pytest.mark.parametrize("command", ["infer", "timeline", "stats"])
    def test_out_under_a_file_exit_3_naming_path(self, sim_dir, tmp_path, capsys, command):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "sub"
        capsys.readouterr()
        if command == "infer":
            code = run_infer(sim_dir, target)
        else:
            code = main(analytics_argv(command, sim_dir, tmp_path / "run" / "episodes.csv", target))
        assert code == 3
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err

    @pytest.mark.parametrize("command, name", [("infer", "episodes.csv"), ("timeline", "timing.csv"), ("stats", "report.md")])
    def test_output_file_that_is_a_directory_exit_3_naming_it(self, sim_dir, tmp_path, capsys, command, name):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        target = tmp_path / "out" / name
        target.mkdir(parents=True)
        capsys.readouterr()
        if command == "infer":
            code = run_infer(sim_dir, tmp_path / "out")
        else:
            code = main(analytics_argv(command, sim_dir, tmp_path / "run" / "episodes.csv", tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert f"cannot write output file {target}" in err and "Traceback" not in err

    def test_out_checked_before_any_input_is_read(self, sim_dir, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "sub"
        missing = tmp_path / "missing.csv"
        code = main(["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(missing), "--out", str(target)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(target) in err and str(missing) not in err

    def test_simulate_out_under_a_file_exit_3(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        assert main(["simulate", "--out", str(tmp_path / "afile" / "sim"), "--n-persons", "2"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_simulate_out_under_a_file_exits_3_before_generating(self, tmp_path, capsys, monkeypatch):
        from tedpc import synthgen

        def generate_cohort(*args):
            raise AssertionError("generate_cohort called")

        monkeypatch.setattr(synthgen, "generate_cohort", generate_cohort)
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "sub"
        assert main(["simulate", "--out", str(target), "--n-persons", "100000"]) == 3
        assert capsys.readouterr().err == f"config error: cannot create output directory {target}: Not a directory\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "afile"]

    def test_simulate_out_name_too_long_leaves_no_parent_behind(self, tmp_path, capsys):
        # The missing parents are made before the last name fails; they go again.
        target = tmp_path / "new" / ("x" * 300)
        assert main(["simulate", "--out", str(target), "--n-persons", "2"]) == 3
        assert capsys.readouterr().err == f"config error: cannot create output directory {target}: File name too long\n"
        assert list(tmp_path.iterdir()) == []

    def test_simulate_generation_error_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # The output directory and the missing parent made for it are taken away again; `tmp_path` stays.
        from tedpc import synthgen
        from tedpc.errors import GenerationError

        def generate_cohort(*args):
            raise GenerationError("cannot place 3 gestations")

        monkeypatch.setattr(synthgen, "generate_cohort", generate_cohort)
        assert main(["simulate", "--out", str(tmp_path / "new" / "sim")]) == 3
        assert capsys.readouterr().err == "config error: cannot place 3 gestations\n"
        assert list(tmp_path.iterdir()) == []

    def test_input_under_a_file_exit_2_naming_path(self, sim_dir, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        events = tmp_path / "afile" / "x.csv"
        code = main(
            ["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(events), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(events) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def sim_episodes(sim_dir, tmp_path_factory):
    """episodes.csv of an `infer` run over sim_dir's cohort, outside each test's own directory."""
    out = tmp_path_factory.mktemp("episodes")
    assert run_infer(sim_dir, out) == 0
    return out / "episodes.csv"


def failing_argv(command, sim_dir, episodes, out_dir, missing=None):
    """Arguments of a run of `command` into out_dir; `missing`, if given, is its events, episodes or condition set."""
    if command == "infer":
        events = missing or sim_dir / "events.csv"
        return ["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(events), "--out", str(out_dir)]
    if command == "timeline":
        return analytics_argv(command, sim_dir, missing or episodes, out_dir)
    return analytics_argv(command, sim_dir, episodes, out_dir) + (["--condition", f"a={missing}"] if missing else [])


@pytest.mark.parametrize("command", ["infer", "timeline", "stats"])
class TestFailedRunLeavesNoDirectory:
    def test_missing_input_exits_2_and_leaves_no_directory(self, sim_dir, sim_episodes, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        assert main(failing_argv(command, sim_dir, sim_episodes, tmp_path / "new" / "out", missing)) == 2
        assert capsys.readouterr().err == f"error: file not found: {missing}\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_name_too_long_exits_3_and_leaves_no_parent(self, sim_dir, sim_episodes, tmp_path, capsys, command):
        # The missing parents are made before the last name fails; they go again.
        target = tmp_path / "new1" / "new2" / ("x" * 300)
        assert main(failing_argv(command, sim_dir, sim_episodes, target)) == 3
        assert capsys.readouterr().err == f"config error: cannot create output directory {target}: File name too long\n"
        assert list(tmp_path.iterdir()) == []

    def test_existing_out_directory_is_never_removed(self, sim_dir, sim_episodes, tmp_path, command):
        (tmp_path / "out").mkdir()
        assert main(failing_argv(command, sim_dir, sim_episodes, tmp_path / "out", tmp_path / "missing.csv")) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_required_path_left_out_exits_3_and_makes_no_directory(
        self, sim_dir, sim_episodes, tmp_path, capsys, command
    ):
        flag, name = {"infer": ("--events", "events"), "timeline": ("--episodes", "episodes"),
                      "stats": ("--index-events", "index_events")}[command]
        argv = failing_argv(command, sim_dir, sim_episodes, tmp_path / "new" / "out")
        at = argv.index(flag)
        assert main(argv[:at] + argv[at + 2 :]) == 3
        assert capsys.readouterr().err == f"config error: {name} file is required for {command}\n"
        assert list(tmp_path.iterdir()) == []


def run_directly(command, sim_dir, episodes, out_dir, missing=None):
    """`pipeline.run_<command>` called as a library caller would, on `failing_argv`'s inputs."""
    inputs = {"events_path": sim_dir / "events.csv", "episodes_path": episodes}
    if missing and command != "stats":
        inputs["events_path" if command == "infer" else "episodes_path"] = missing
    config = RunConfig(
        persons_path=sim_dir / "persons.csv", index_events_path=sim_dir / "index_concepts.csv", out_dir=out_dir, **inputs
    )
    if command == "infer":
        return pipeline.run_infer(config)
    if command == "timeline":
        return pipeline.run_timeline(config)
    return pipeline.run_stats(config, {"a": missing} if missing else {})


@pytest.mark.parametrize("command", ["infer", "timeline", "stats"])
class TestLibraryFailedRunLeavesNoDirectory:
    """`TestFailedRunLeavesNoDirectory`'s runs, through the run functions themselves."""

    def test_missing_input_raises_and_leaves_no_directory(self, sim_dir, sim_episodes, tmp_path, command):
        missing = tmp_path / "missing.csv"
        with pytest.raises(FileNotFoundError) as raised:
            run_directly(command, sim_dir, sim_episodes, tmp_path / "new1" / "new2", missing)
        assert Path(raised.value.filename) == missing
        assert list(tmp_path.iterdir()) == []

    def test_out_name_too_long_raises_and_leaves_no_parent(self, sim_dir, sim_episodes, tmp_path, command):
        target = tmp_path / "new1" / "new2" / ("x" * 300)
        with pytest.raises(ConfigError) as raised:
            run_directly(command, sim_dir, sim_episodes, target)
        assert str(raised.value) == f"cannot create output directory {target}: File name too long"
        assert list(tmp_path.iterdir()) == []

    def test_existing_directory_is_never_removed(self, sim_dir, sim_episodes, tmp_path, command):
        # The directory made under it goes again; it stays.
        (tmp_path / "out").mkdir()
        with pytest.raises(FileNotFoundError):
            run_directly(command, sim_dir, sim_episodes, tmp_path / "out" / "new", tmp_path / "missing.csv")
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_required_path_unset_raises_config_error_and_makes_no_directory(self, tmp_path, command):
        run = {"infer": pipeline.run_infer, "timeline": pipeline.run_timeline,
               "stats": lambda config: pipeline.run_stats(config, {})}[command]
        name = "persons" if command == "infer" else "episodes"
        with pytest.raises(ConfigError) as raised:
            run(RunConfig(out_dir=tmp_path / "new" / "out"))
        assert str(raised.value) == f"{name} file is required for {command}"
        assert list(tmp_path.iterdir()) == []


class TestRunConfigTypes:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("window_days", True, "window_days must be of type int, got True"),
            ("window_days", 2.5, "window_days must be of type int, got 2.5"),
            ("window_days", "30", "window_days must be of type int, got '30'"),
            ("suppression_threshold", "5", "suppression_threshold must be of type int, got '5'"),
            ("match_min_days", None, "match_min_days must be of type int, got None"),
            ("apply_filters", "no", "apply_filters must be of type bool, got 'no'"),
            ("emit_cohorts", 1, "emit_cohorts must be of type bool, got 1"),
            ("pandemic_cutoff", "2020-03-01", "pandemic_cutoff must be of type date, got '2020-03-01'"),
            ("pandemic_cutoff", datetime(2020, 3, 1),
             "pandemic_cutoff must be of type date, got datetime.datetime(2020, 3, 1, 0, 0)"),
            ("pre_window", [date(2018, 6, 1), date(2020, 2, 29)],
             "pre_window must be None or a tuple of two dates, got [datetime.date(2018, 6, 1), "
             "datetime.date(2020, 2, 29)]"),
            ("peri_window", (date(2020, 5, 1),),
             "peri_window must be None or a tuple of two dates, got (datetime.date(2020, 5, 1),)"),
            ("pre_window", ("2018-06-01", "2020-02-29"),
             "pre_window must be None or a tuple of two dates, got ('2018-06-01', '2020-02-29')"),
        ],
        ids=["int-bool", "int-float", "int-text", "threshold-text", "int-none", "bool-text", "bool-int",
             "cutoff-text", "cutoff-datetime", "window-list", "window-one-date", "window-texts"],
    )
    def test_a_value_of_another_type_raises_config_error_naming_field_and_value(self, field, value, message):
        with pytest.raises(ConfigError) as raised:
            RunConfig(**{field: value}).validate()
        assert str(raised.value) == message

    def test_paths_may_be_text(self, tmp_path):
        RunConfig(persons_path="persons.csv", events_path="events.csv", out_dir=str(tmp_path)).validate()

    # None is a path field's "unset" only where that is its default; the run functions report it as missing.
    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in RunConfig._fields if field.endswith("_path") or field == "out_dir"
        for value in (True, 5, b"persons.csv", None)
        if value is not None or RunConfig._field_defaults[field] is not None
    ])
    def test_a_path_of_another_type_raises_config_error_before_anything_is_made(self, tmp_path, field, value):
        paths = {"persons_path": tmp_path / "persons.csv", "events_path": tmp_path / "events.csv",
                 "out_dir": tmp_path / "out"}
        with pytest.raises(ConfigError) as raised:
            pipeline.run_infer(RunConfig(**{**paths, field: value}))
        assert str(raised.value) == f"{field} must be a path, got {value!r}"
        assert list(tmp_path.iterdir()) == []

    def test_a_bool_path_leaves_stdout_open(self, tmp_path):
        # open(True) is open(1): reading the persons would close this process's stdout.
        src = str(Path(tedpc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", BOOL_PATH_RUN, str(tmp_path / "events.csv"), str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "persons_path must be a path, got True\nstdout still open\n"
        assert list(tmp_path.iterdir()) == []


# `run_infer` with persons_path=True, then a print to stdout.
BOOL_PATH_RUN = """
import sys
from tedpc.config import RunConfig
from tedpc.errors import ConfigError
from tedpc.pipeline import run_infer
try:
    run_infer(RunConfig(persons_path=True, events_path=sys.argv[1], out_dir=sys.argv[2]))
except ConfigError as exc:
    print(exc)
print("stdout still open", flush=True)
"""


NUMPY_FREE_RUN = """
import json, sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
import tedpc.cli
for argv in json.loads(sys.argv[1]):
    code = tedpc.cli.main(argv)
    if code:
        sys.exit(code)
"""


class TestNumpyFree:
    def test_infer_timeline_stats_import_no_numpy_and_write_the_same_bytes(self, tmp_path, capsys):
        def argvs(root):
            sim, episodes = root / "sim", root / "run" / "episodes.csv"
            return [
                ["simulate", "--out", str(sim), "--seed", "21", "--n-persons", "40", "--index-rate", "0.6",
                 "--drop-ga", "0.1", "--conflict-ga", "0.2", "--shift", "0.2", "--drop-dod", "0.1",
                 "--pre-index", "0.2"],
                ["infer", "--persons", str(sim / "persons.csv"), "--events", str(sim / "events.csv"),
                 "--out", str(root / "run"), "--match-min", "100", "--match-max", "320", "--emit-cohorts"],
                analytics_argv("timeline", sim, episodes, root / "timeline"),
                analytics_argv("stats", sim, episodes, root / "stats") + ["--unsuppressed"],
                ["evaluate", "--truth", str(sim / "truth.csv"), "--episodes", str(episodes)],
            ]

        capsys.readouterr()
        for argv in argvs(tmp_path / "normal"):
            assert main(argv) == 0
        normal_stdout = capsys.readouterr().out.replace(str(tmp_path / "normal"), "ROOT")
        src = str(Path(tedpc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_RUN, json.dumps(argvs(tmp_path / "numpy_free"))],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

        def outputs(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        normal = outputs(tmp_path / "normal")
        assert {"sim/events.csv", "run/ga_cohort.csv", "timeline/timing.csv", "stats/histogram.csv"} <= set(normal)
        assert normal == outputs(tmp_path / "numpy_free")
        # evaluate writes no file: its scorecard is compared as printed.
        assert "exact_start=" in normal_stdout
        assert normal_stdout == result.stdout.replace(str(tmp_path / "numpy_free"), "ROOT")

    def test_package_still_exports_the_generator(self):
        from tedpc import synthgen

        assert (tedpc.SynthConfig, tedpc.generate_cohort) == (synthgen.SynthConfig, synthgen.generate_cohort)
        for module, names in PACKAGE_EXPORTS.items():
            for name in names.split():
                assert getattr(tedpc, name) is getattr(importlib.import_module(f"tedpc.{module}"), name), name
                assert name in dir(tedpc), name
        with pytest.raises(AttributeError):
            tedpc.no_such_name


# Every name `tedpc` has exported, by the module that defines it.
PACKAGE_EXPORTS = {
    "concept_registry": "AccuracyLevel Domain classify_accuracy load_dod_concepts load_ga_concepts load_vocabulary "
    "phenotype_search",
    "dod_engine": "DeliveryRecord infer_delivery_dates",
    "episode_builder": "PregnancyEpisode apply_cohort_filters gestational_week_of match_episodes trimester_of",
    "evaluation": "ConfusionMatrix Weighting cohen_kappa round_trip_score",
    "ga_engine": "GestationStart ga_days infer_gestation_starts",
    "ingestion": "ClinicalEvent Person load_events load_persons",
    "synthgen": "SynthConfig generate_cohort",
}

UNUSED_MODULES_RUN = """
import json, sys
before = set(sys.modules)
from tedpc.cli import main
code = main(json.loads(sys.argv[1]))
unused = ["tedpc.synthgen", "tedpc.evaluation", "dataclasses"]
print(json.dumps([name for name in unused if name in sys.modules and name not in before]))
sys.exit(code)
"""


class TestStartUp:
    @pytest.mark.parametrize("command", ["infer", "timeline", "stats"])
    def test_command_loads_neither_generator_nor_evaluation_nor_dataclasses(self, sim_dir, tmp_path, command):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        if command == "infer":
            argv = ["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(sim_dir / "events.csv")]
            argv += ["--out", str(tmp_path / "out")]
        else:
            argv = analytics_argv(command, sim_dir, tmp_path / "run" / "episodes.csv", tmp_path / "out")
        src = str(Path(tedpc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", UNUSED_MODULES_RUN, json.dumps(argv)], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_leaves_the_collector_as_it_found_it(self, sim_dir, tmp_path, capsys, monkeypatch, enabled):
        seen = []
        real_run_infer = tedpc.cli.run_infer

        def run_infer_noting_the_collector(config):
            seen.append(gc.isenabled())
            return real_run_infer(config)

        monkeypatch.setattr(tedpc.cli, "run_infer", run_infer_noting_the_collector)
        bad_episodes = tmp_path / "episodes.csv"
        bad_episodes.write_text("person,episode\n1,1\n")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_infer(sim_dir, tmp_path / "run") == 0
            assert gc.isenabled() is enabled
            code = main(["evaluate", "--truth", str(sim_dir / "truth.csv"), "--episodes", str(bad_episodes)])
            assert code == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False]
        assert "bad header" in capsys.readouterr().err


CLOSED_STDOUT_RUN = """
import sys
from tedpc.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["evaluate", "print-config", "help", "phenotype"])
    def test_closed_stdout_exits_without_a_traceback(self, tmp_path, command):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(TABLE4)
        vocab = tmp_path / "vocab.csv"
        vocab.write_text("concept_id,name,domain,standard,valid\n1,gestation,Condition,true,true\n")
        argv = {
            "evaluate": ["evaluate", "--matrix", str(matrix)],
            "phenotype": ["phenotype", "--vocabulary", str(vocab)],
            "print-config": ["infer", "--print-config"],
            "help": ["infer", "--help"],
        }[command]
        src = str(Path(tedpc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # The read end is closed before the child starts, so its first write to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-c", CLOSED_STDOUT_RUN, *argv],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr, result.stderr
        assert result.returncode == EXIT_BROKEN_PIPE


def piped_argv(command, sim_dir, episodes, out_dir):
    """The arguments of an infer, timeline or stats run over sim_dir's cohort."""
    if command == "infer":
        argv = ["infer", "--persons", str(sim_dir / "persons.csv"), "--events", str(sim_dir / "events.csv")]
        return argv + ["--out", str(out_dir), "--emit-cohorts"]
    argv = analytics_argv(command, sim_dir, episodes, out_dir)
    return argv + ["--unsuppressed"] if command == "stats" else argv


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
class TestPipedInputs:
    """An input that is a pipe can be read only once: it is read a row at a time, and a bad row names its line."""

    CASES = [("infer", "--events"), ("infer", "--persons"), ("timeline", "--events"), ("timeline", "--episodes"),
             ("stats", "--events"), ("stats", "--persons"), ("stats", "--episodes")]

    def run_piped(self, argv, flag, data):
        at = argv.index(flag) + 1
        argv = [*argv[:at], "/dev/stdin", *argv[at + 1 :]]
        src = str(Path(tedpc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # input= hands the bytes to the child through a pipe, not as a regular file.
        return subprocess.run(
            [sys.executable, "-c", CLOSED_STDOUT_RUN, *argv], env=env, input=data, capture_output=True
        )

    @pytest.mark.parametrize("command, flag", CASES)
    def test_piped_input_writes_what_the_file_does(self, sim_dir, tmp_path, capsys, command, flag):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        episodes = tmp_path / "run" / "episodes.csv"
        argv = piped_argv(command, sim_dir, episodes, tmp_path / "file")
        assert main(argv) == 0
        piped = piped_argv(command, sim_dir, episodes, tmp_path / "pipe")
        path = Path(piped[piped.index(flag) + 1])
        result = self.run_piped(piped, flag, path.read_bytes())
        assert result.returncode == 0, result.stderr.decode()

        def outputs(root):
            return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

        written = outputs(tmp_path / "file")
        assert written and outputs(tmp_path / "pipe") == written

    @pytest.mark.parametrize("command, flag", CASES)
    def test_bad_piped_row_exits_2_naming_its_line(self, sim_dir, tmp_path, command, flag):
        assert run_infer(sim_dir, tmp_path / "run") == 0
        argv = piped_argv(command, sim_dir, tmp_path / "run" / "episodes.csv", tmp_path / "pipe")
        lines = Path(argv[argv.index(flag) + 1]).read_text().splitlines()
        # Half the rows, then a row whose second field is not an int.
        bad = lines[: len(lines) // 2 + 1] + ["1,x" + "," * (lines[0].count(",") - 1)] + lines[len(lines) // 2 + 1 :]
        result = self.run_piped(argv, flag, ("\n".join(bad) + "\n").encode())
        err = result.stderr.decode()
        assert result.returncode == 2, err
        assert f"/dev/stdin:{len(lines) // 2 + 2}:" in err and "Traceback" not in err
