"""The benchmark under perfbench/ wraps and calls hvdcfr functions by name
and keyword; these checks read perfbench/ and fail here, in the test
suite, when a change to the package would break those calls."""

import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_layer_functions_and_keywords(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    layers = {f"{fn.__module__}.{fn.__name__}": fn for fn, _, _ in tracing._layer_functions()}
    assert "substep" in inspect.signature(layers["hvdcfr.control.make_lqg"]).parameters
    assert "dt" in inspect.signature(layers["hvdcfr.control.closed_loop"]).parameters
