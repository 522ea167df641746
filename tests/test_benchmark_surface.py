"""The benchmark under perfbench/ wraps and calls hvdcfr functions by name
and keyword; these checks read perfbench/ and fail here, in the test
suite, when a change to the package would break those calls or move an
output past the checked-in references' tolerance."""

import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_layer_functions_and_keywords(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    layers = {f"{fn.__module__}.{fn.__name__}": fn for fn, _, _ in tracing._layer_functions()}
    assert "substep" in inspect.signature(layers["hvdcfr.control.make_lqg"]).parameters
    assert "dt" in inspect.signature(layers["hvdcfr.control.closed_loop"]).parameters


@pytest.mark.parametrize("workload, key", [
    ("cli-pipeline", ("file", 0)), ("seed-study", ("continuous", 0)),
    ("model-fit-clean", ("no_pfc", 0)), ("model-fit-noisy", ("cigre", 0))],
    ids=lambda v: v if isinstance(v, str) else "/".join(map(str, v)))
def test_benchmark_workload_matches_its_reference(monkeypatch, tmp_path, workload, key):
    # one pool input, run in-process as the benchmark's worker runs it and
    # checked against the checked-in reference to its 1e-6 tolerance
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from common import REFERENCE_DIR, read_json
    from inputs import key_name

    reference = read_json(REFERENCE_DIR / f"{workload}.json")[key_name(key)]
    bench = workloads.make(workload, tmp_path)
    assert bench.problems(bench.run(key), reference) == []
