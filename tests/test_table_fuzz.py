"""Mutated `simulate` and `infer` tables end in exit 0 or a data error naming the file, never a traceback."""

import contextlib
import io

import pytest

from tedpc.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Each table, and the command that reads it, with the cohort's other inputs unchanged.
READERS = {
    "persons.csv": lambda d, t: ["infer", "--persons", t, "--events", d["events.csv"], "--out", d["out"]],
    "events.csv": lambda d, t: ["infer", "--persons", d["persons.csv"], "--events", t, "--out", d["out"]],
    "index_concepts.csv": lambda d, t: [
        "timeline", "--episodes", d["episodes.csv"], "--events", d["events.csv"], "--index-events", t,
        "--out", d["out"],
    ],
    "episodes.csv": lambda d, t: [
        "timeline", "--episodes", t, "--events", d["events.csv"], "--index-events", d["index_concepts.csv"],
        "--out", d["out"],
    ],
    "truth.csv": lambda d, t: ["evaluate", "--truth", t, "--episodes", d["episodes.csv"]],
}

bad_dates = st.sampled_from(["2020-02-30", "2020-13-01", "20200101", "1899-12-31", "", "2020-1-01"]) | st.text(
    max_size=10
)
mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.integers(0, 60)),
    st.tuples(st.just("extra_field"), st.integers(0, 10**6), st.text(max_size=5)),
    st.tuples(st.just("break_date"), st.integers(0, 10**6), bad_dates),
    st.tuples(st.just("oversized_field"), st.integers(0, 10**6), st.integers(0, 5)),
    st.tuples(st.just("drop_line"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("bom"), st.none(), st.none()),
    st.tuples(st.just("empty"), st.none(), st.none()),
)


def mutate(lines: list[str], kind: str, at, arg) -> list[str]:
    if kind == "bom":
        return ["\ufeff" + lines[0], *lines[1:]] if lines else ["\ufeff"]
    if kind == "empty" or not lines:
        return []
    i = at % len(lines)
    line = lines[i]
    if kind == "truncate":
        line = line[: arg % (len(line) + 1)]
    elif kind == "extra_field":
        line = f"{line},{arg}"
    elif kind == "break_date":
        fields = line.split(",")
        dated = [j for j, field in enumerate(fields) if len(field) == 10 and field[4] == "-"]
        if dated:
            fields[dated[0]] = arg
        line = ",".join(fields)
    elif kind == "oversized_field":
        fields = line.split(",")
        fields[arg % len(fields)] = '"' + "9" * 131_073 + '"'
        line = ",".join(fields)
    else:
        return lines[:i] + lines[i + 1 :]
    return lines[:i] + [line] + lines[i + 1 :]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("table_fuzz")
    sim = root / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "5", "--n-persons", "12", "--index-rate", "0.8"]) == 0
    assert main(["infer", "--persons", str(sim / "persons.csv"), "--events", str(sim / "events.csv"),
                 "--out", str(root / "run")]) == 0
    paths = {name: str(sim / name) for name in READERS}
    paths["episodes.csv"] = str(root / "run" / "episodes.csv")
    paths["out"] = str(root / "out")
    paths["mutated"] = root / "mutated"
    paths["mutated"].mkdir()
    return paths


@settings(max_examples=120, deadline=None)
@given(table=st.sampled_from(sorted(READERS)), changes=st.lists(mutations, min_size=1, max_size=3))
def test_mutated_table_exits_0_or_2_naming_the_file(cohort, table, changes):
    with open(cohort[table], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for change in changes:
        lines = mutate(lines, *change)
    path = cohort["mutated"] / table
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(READERS[table](cohort, str(path)))
    err = stderr.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert str(path) in err
