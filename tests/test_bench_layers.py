"""The benchmark's per-layer tracer names eicomb functions by attribute;
these checks fail in the test run when one of those names goes away,
instead of only in a traced benchmark run."""

import inspect
import sys
from pathlib import Path

import pytest

from eicomb import series

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    # import bench/layers.py (and its tracer) without writing bytecode there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def test_every_span_target_resolves(layers):
    assert layers.SPANS
    for name, targets in layers.SPANS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def test_term_cap_sits_at_the_traced_position(layers):
    wrapped = {attr for targets in layers.SPANS.values() for _, attr in targets}
    for fn in (series.phi_of_poly, series.phi_series):
        assert fn.__name__ in wrapped
        names = list(inspect.signature(fn).parameters)
        assert names.index("term_cap") == layers._TERM_CAP_ARG, fn.__name__
