"""Byte-level regression pins for simulate, infer, timeline and stats.

A noisy simulated cohort goes through every operation; the sha256 of each
file written must match the digests recorded below. The `sim/` digests pin
the generator: `simulate --seed 77 --n-persons 300 --index-rate 0.9
--drop-ga 0.1 --conflict-ga 0.15 --shift 0.3 --shift-max-days 30 --drop-dod
0.1 --pre-index 0.3`, digested as written. The `sim_clean/` digests pin its
noise-free path: the same command without the noise flags. infer, timeline
and stats read a cohort frozen in `data/golden/` instead: its events.csv and
index_concepts.csv, and its persons.csv with every 50th person dropped so
that quarantine has rows. Their digests do not depend on the generator. That
cohort came from the same command under an earlier generator, so its events
are not those of `sim/`, and `sim/truth.csv` is not its truth.

The `sim_dense/` digests pin the generator's dense shape through the
library: a 200-person seed-77 cohort with the benchmark's infer_dense
settings (6/4/4/16 GA events and 8 delivery events per gestation, every
noise channel on). It samples more than 5 items on both of `sample`'s
branches: the pool for visit weeks, the set for delivery concepts.

The `run_wide/` and `stats_windows/` digests and the evaluate text pin the
paths that turn episode days into dates outside the default run: `infer
--no-cohort-filters --match-min 100 --match-max 320` over `data/golden/`,
`stats --unsuppressed --config` with pre/peri windows over its episodes, and
`evaluate --truth` of the same infer over `sim/`, whose truth is at hand.
They were recorded with the code of commit 2674de3, before episodes held day
ordinals.

A refactor that keeps behaviour keeps these; a deliberate output change
updates them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from tedpc.cli import main
from tedpc.concept_registry import AccuracyLevel, Domain
from tedpc.synthgen import NoiseSpec, SynthConfig, generate_cohort

EXPECTED = {
    "run/dod_cohort.csv": "d736770f556aca52d0e232fde24bbe8aa423e34c734eb8c393702e28d92b8a32",
    "run/episodes.csv": "f182d89efe256233135f88c57c020ca929cf9e094c5a1ae3be5217985f6ce236",
    "run/excluded_episodes.csv": "287c454690687e92f30f35202bb3ab6e6c1ab8fe8cae35a907fb2c432ae7e715",
    "run/ga_cohort.csv": "0852aa5e04e07e3189e9117f2a93dbb138830ab8213b67278f265123ba51d730",
    "run/quarantine.csv": "51b33a0c2a3737a3e174731e3e2685d4e5d23720eb57829b966f9c6d2f1b6217",
    "run/summary.json": "e0df5782c9a7bcd88ea57a58dfa2187a5b318058503216b928798d645f363da7",
    "run/unmatched_dods.csv": "be3ed6f219bd7d3720553d26d316390dc2a450de7911968a37ac6183edbbaf93",
    "run/unmatched_starts.csv": "2206f7ed2305adfce196ea93598455ac4694a828ad0c441bfc0e88cafd6c2d1f",
    "timeline/timing.csv": "faf98ff95d438c1abb8681c94e4a0cc5c8ab1464e45122235005c5cb669aaf43",
    "stats/histogram.csv": "ba2d98e3bbfb46d3aa04bb3fc77a8dfcffcce4415ef209506a468a3d481cff2f",
    "stats/report.csv": "c88bc7d68e58af358bd1e6634c94b8f54bd5db1c863dc39345457fa83688af25",
    "stats/report.md": "6be731d98dfc178d1901a992cd903311e152b71ef1224c96c5a626ade8029e40",
    "sim/events.csv": "36d1fd8d1aa461f3eb9ce9bbc52c513ca2b6a86557b0ee3ebc5db558d538cb67",
    "sim/index_concepts.csv": "d183c99aa5ce9dc75a6292f9eb938cc6a10a4f39c22199b55a8ea86aeebe7cb1",
    "sim/noise_log.csv": "0f154397176bbca29311e0ad9090cb9f484ccb150161b2651a77505141ddde8b",
    "sim/persons.csv": "5860b933c70ca523e5fc66fadd39111f33a322413542cbbfaa58fc2b89a9f1c8",
    "sim/truth.csv": "6374c7326fe328aa583c0c178699f12f4bcfbdf45110c2559405d58155caf1bc",
    "sim_clean/events.csv": "1fa731ada8833b125113e07106d2e3dcb533efd190d5521eae4709c317688d20",
    "sim_clean/index_concepts.csv": "d183c99aa5ce9dc75a6292f9eb938cc6a10a4f39c22199b55a8ea86aeebe7cb1",
    "sim_clean/noise_log.csv": "7dd9ce42084e9fcafc4e716926cad751dfb16570bbafbbb9fab1914621526c96",
    "sim_clean/persons.csv": "5860b933c70ca523e5fc66fadd39111f33a322413542cbbfaa58fc2b89a9f1c8",
    "sim_clean/truth.csv": "dd998728be8182ea2337bd6ecf05622f362e06977f6935c4a0821dc85f239603",
}

DENSE_EXPECTED = {
    "sim_dense/events.csv": "a6b800e0ee78c9075c5d6979b612710a55d4990a0b4a6a9b42ace6c6a72ebb5e",
    "sim_dense/index_concepts.csv": "d183c99aa5ce9dc75a6292f9eb938cc6a10a4f39c22199b55a8ea86aeebe7cb1",
    "sim_dense/noise_log.csv": "295a36cfdf656770b4723ec01bd43658113a6e955db6aeb5ae82d962ecf8f552",
    "sim_dense/persons.csv": "1dee788ed848fe10702b4fad38e89a8104827a40c2fb16ff18ef185468b91014",
    "sim_dense/truth.csv": "f77dd7b7c924deb0f13d4d05d4d6a262a295a3a06bba8c0d121e0f1a4b07c83e",
}

WIDE_EXPECTED = {
    "run_wide/episodes.csv": "d2aa0c6f4087e349e0ca85156d1f697db44b98b13d4940d5882fdaf86fcb971a",
    "run_wide/excluded_episodes.csv": "0060be2ca75eb057ffdb0e4fb79a5f49cf71e3c95dc1716cb0b187a20d53e074",
    "run_wide/quarantine.csv": "51b33a0c2a3737a3e174731e3e2685d4e5d23720eb57829b966f9c6d2f1b6217",
    "run_wide/summary.json": "99f0af4e3cb724e6a35391fe02fc2986e4ef752f444776eeb5e99f1e035eb908",
    "run_wide/unmatched_dods.csv": "b804e76a098fb8fde24ebcdf24c27efdcd9f1fb271c1a34f95dfc9e9ea25cbe1",
    "run_wide/unmatched_starts.csv": "7bdd0c70cefee2e4a248e31b2b223f0627e5a904a3c87fdab04410991dbde468",
    "stats_windows/histogram.csv": "9eb2bebc46b3b077422425a8f622d9bb5d477f9a08b18c36d0b4063b839025b3",
    "stats_windows/report.csv": "f5a188d78421cbda59934324cebfd055b064ff709cccef4763a1ef666ebee869",
    "stats_windows/report.md": "6661d8944a7a13a47eb9353832dbae690eebff9154968a6e1ff810051450ec1a",
}
WIDE_EVALUATE_STDOUT = (
    "truth_episodes=327 inferred_episodes=318 persons=300\n"
    "exact_start=0.7095 start_within_7d=0.7737\n"
    "exact_dod=0.6544 dod_within_1d=0.6606\n"
    "episode_count_match=0.9700\n"
)


def _digests(*directories):
    return {
        f"{directory.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for directory in directories
        for path in sorted(directory.iterdir())
    }


FIXTURE = Path(__file__).parent / "data" / "golden"


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory, ga_registry, dod_registry):
    root = tmp_path_factory.mktemp("golden")
    sim, sim_clean, run, timeline, stats = (root / name for name in ("sim", "sim_clean", "run", "timeline", "stats"))
    simulate = ["simulate", "--seed", "77", "--n-persons", "300", "--index-rate", "0.9"]
    assert main(
        [*simulate, "--out", str(sim), "--drop-ga", "0.1", "--conflict-ga", "0.15", "--shift", "0.3",
         "--shift-max-days", "30", "--drop-dod", "0.1", "--pre-index", "0.3"]
    ) == 0
    assert main([*simulate, "--out", str(sim_clean)]) == 0
    conditions = {
        "first_trimester": [s.concept_id for s in ga_registry if s.week_high <= 13],
        "procedure_delivery": [s.concept_id for s in dod_registry if s.domain is Domain.PROCEDURE],
    }
    for name, ids in conditions.items():
        (root / f"{name}.csv").write_text("concept_id\n" + "".join(f"{i}\n" for i in sorted(ids)))
    persons, events = str(FIXTURE / "persons.csv"), str(FIXTURE / "events.csv")
    assert main(["infer", "--persons", persons, "--events", events, "--out", str(run), "--emit-cohorts"]) == 0
    common = ["--episodes", str(run / "episodes.csv"), "--events", events,
              "--index-events", str(FIXTURE / "index_concepts.csv")]
    assert main(["timeline", *common, "--out", str(timeline)]) == 0
    assert main(
        ["stats", *common, "--persons", persons, "--out", str(stats), "--unsuppressed",
         *(f"--condition={name}={root / name}.csv" for name in conditions)]
    ) == 0
    return root


@pytest.fixture(scope="module")
def outputs(golden_root):
    return _digests(*(golden_root / name for name in ("sim", "sim_clean", "run", "timeline", "stats")))


def test_outputs_match_recorded_digests(outputs):
    assert outputs == EXPECTED


def test_unfiltered_windowed_and_scored_outputs_match_recorded_digests(golden_root, capsys):
    # The paths that turn episode days back into dates: an unfiltered infer with wide matching bounds, which
    # keeps episodes the cohort rules would drop; stats with pre/peri windows over its episodes; and the
    # round-trip score of the same infer over the generated cohort, whose truth the fixture does not have.
    wide = ["--no-cohort-filters", "--match-min", "100", "--match-max", "320"]
    run, stats, sim_run = (golden_root / name for name in ("run_wide", "stats_windows", "sim_run_wide"))
    persons, events = str(FIXTURE / "persons.csv"), str(FIXTURE / "events.csv")
    assert main(["infer", "--persons", persons, "--events", events, "--out", str(run), *wide]) == 0
    windows = golden_root / "windows.json"
    windows.write_text('{"pre_window": ["2018-06-01", "2020-02-29"], "peri_window": ["2020-05-01", "2021-05-31"]}')
    assert main(["stats", "--episodes", str(run / "episodes.csv"), "--events", events, "--persons", persons,
                 "--index-events", str(FIXTURE / "index_concepts.csv"), "--out", str(stats), "--unsuppressed",
                 "--config", str(windows)]) == 0
    sim = golden_root / "sim"
    assert main(["infer", "--persons", str(sim / "persons.csv"), "--events", str(sim / "events.csv"),
                 "--out", str(sim_run), *wide]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--truth", str(sim / "truth.csv"), "--episodes", str(sim_run / "episodes.csv")]) == 0
    assert capsys.readouterr().out == WIDE_EVALUATE_STDOUT
    assert _digests(run, stats) == WIDE_EXPECTED


def test_dense_cohort_matches_recorded_digests(tmp_path, ga_registry, dod_registry):
    counts = {AccuracyLevel.HIGH: 6, AccuracyLevel.MODERATE_HIGH: 4, AccuracyLevel.MODERATE_LOW: 4, AccuracyLevel.LOW: 16}
    noise = NoiseSpec(
        drop_ga_rate=0.1, conflict_ga_rate=0.3, shift_rate=0.3, drop_dod_rate=0.1, pre_pregnancy_index_rate=0.3
    )
    config = SynthConfig(
        seed=77, n_persons=200, ga_events_per_gestation=counts, dod_events_per_gestation=8, noise=noise
    )
    out = tmp_path / "sim_dense"
    generate_cohort(config, ga_registry, dod_registry).write(out)
    assert _digests(out) == DENSE_EXPECTED
