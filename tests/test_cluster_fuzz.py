"""`anchor_and_absorb` returns exactly the clusters of the plain rescanning reference."""

import pytest

from oracles import anchor_and_absorb_reference
from tedpc.ga_engine import anchor_and_absorb

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Narrow values repeat often, so duplicates and clusters that touch at the window's edge are common.
positions = st.lists(st.integers(-1500, 1500) | st.integers(-5, 5), max_size=60)


@settings(max_examples=500, deadline=None)
@given(positions=positions, window_days=st.integers(1, 400))
def test_matches_reference(positions, window_days):
    assert anchor_and_absorb(positions, window_days) == anchor_and_absorb_reference(positions, window_days)

