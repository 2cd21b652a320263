"""Arbitrary config-file contents end in exit 0 or a config error naming the file."""

import contextlib
import io
import json

import pytest

from tedpc.cli import main
from tedpc.config import RunConfig

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

KEYS = list(RunConfig._fields)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)
iso_dates = st.dates().map(lambda day: day.isoformat())
window = st.lists(iso_dates, min_size=2, max_size=2)
# Well-typed values too, so that some files pass the type checks and reach validation.
plausible = st.integers(-5, 400) | iso_dates | window
# Both windows, well typed but in any order and overlap, so that window validation runs often.
window_pairs = st.fixed_dictionaries({"pre_window": window, "peri_window": window})
configs = st.dictionaries(st.sampled_from(KEYS), json_values | plausible, max_size=6) | window_pairs


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=100, deadline=None)
@given(payload=configs)
def test_any_config_file_exits_0_or_3_naming_the_file(config_path, payload):
    config_path.write_text(json.dumps(payload))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["stats", "--config", str(config_path), "--print-config"])
    err = stderr.getvalue()
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert str(config_path) in err
    else:
        printed = json.loads(stdout.getvalue())
        assert printed.keys() == set(KEYS)
        if printed["pre_window"] is not None:
            # Accepted windows are each in order and share no day.
            (pre_start, pre_end), (peri_start, peri_end) = printed["pre_window"], printed["peri_window"]
            assert pre_start <= pre_end and peri_start <= peri_end
            assert pre_end < peri_start or peri_end < pre_start
