"""Spans around the calls into each hvdcfr layer, recorded from outside
the package.

``Instrumentation`` swaps a timing wrapper in for each listed function at
every module binding of it (``from .x import f`` copies the name, so the
wrapper replaces all copies) and restores the originals afterwards. The
traced code is therefore the same code the untraced run executes, on the
same inputs. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from common import summarize


class Tracer:
    """Span recorder: name, start, end, parent index and operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _layer_functions():
    """(function, span name or namer, attribute recorder) per layer boundary."""
    from hvdcfr import control, harness, numerics, plant, statespace, sysid

    def model_order(args, result):
        return {"model_order": result[1].n_states}

    def samples(args, result):
        return {"samples": result.n_samples}

    def loop_name(args):
        kind = "lqg" if isinstance(args[1], control.LqgController) else "pi"
        return f"control.closed_loop_{kind}"

    return [
        (plant.build_plant, "plant.build", None),
        (plant.simulate, "plant.simulate", samples),
        (statespace.rk4_step_matrices, "statespace.rk4_step_matrices", None),
        (statespace.compound_steps, "statespace.compound_steps", None),
        (harness.build_disturbance_profile, "harness.profile", None),
        (harness.compute_metrics, "harness.metrics", None),
        (harness.compare_cases, "harness.compare", None),
        (sysid.identify, "sysid.identify", model_order),
        (sysid.estimate_observer_markov, "sysid.observer_ls", None),
        (sysid.recover_system_markov, "sysid.markov", None),
        (sysid.build_hankel, "sysid.hankel", None),
        (sysid.era_realize, "sysid.era", None),
        (sysid.to_continuous, "sysid.to_continuous", None),
        (numerics.mat_log_principal, "numerics.logm", None),
        (numerics.solve_care, "numerics.care", None),
        (control.make_lqg, "control.make_lqg", None),
        (control.closed_loop, loop_name, samples),
    ]


def _wrap(tracer: Tracer, fn, name, record_attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name(args) if callable(name) else name) as rec:
            result = fn(*args, **kwargs)
            if record_attrs is not None:
                rec.update(record_attrs(args, result))
            return result
    return wrapper


class Instrumentation:
    """Wrappers for every layer boundary, applied and removed on demand.

    The bindings are found once, so applying and removing cost little
    and stay outside the timed regions.
    """

    def __init__(self, tracer: Tracer):
        from hvdcfr.signals import SignalRecord

        self._swaps = []  # (owner, attribute, original, replacement)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hvdcfr" or name.startswith("hvdcfr."))]
        for fn, name, record_attrs in _layer_functions():
            wrapper = _wrap(tracer, fn, name, record_attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._swaps.append((module, attr, fn, wrapper))

        to_csv = SignalRecord.__dict__["to_csv"]
        from_csv = SignalRecord.__dict__["from_csv"]

        def to_csv_traced(record, path):
            with tracer.span("signals.to_csv") as rec:
                to_csv(record, path)
            rec["bytes"] = Path(path).stat().st_size
        self._swaps.append((SignalRecord, "to_csv", to_csv, to_csv_traced))
        self._swaps.append((SignalRecord, "from_csv", from_csv,
                            staticmethod(_wrap(tracer, from_csv.__func__, "signals.from_csv", None))))

    def apply(self) -> None:
        for owner, attr, _, replacement in self._swaps:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.apply()
        try:
            yield
        finally:
            self.remove()


def nesting_errors(spans: list[dict]) -> list[str]:
    """Child spans that are longer than, or stick out of, their parent."""
    errors = []
    for i, s in enumerate(spans):
        if s["parent"] is None:
            continue
        p = spans[s["parent"]]
        if s["end"] - s["start"] > p["end"] - p["start"] or s["start"] < p["start"] or s["end"] > p["end"]:
            errors.append(f"span {i} {s['name']} outside parent {s['parent']} {p['name']}")
    return errors


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    covered = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, intervals in zip(spans, covered):
        union, reach = 0.0, s["start"]
        for start, end in sorted(intervals):
            start = max(start, reach)
            if end > start:
                union += end - start
                reach = end
        out.append(s["end"] - s["start"] - union)
    return out


def layer_table(spans: list[dict]) -> dict:
    """Per span name: calls, busy and self time totals, per-call quartiles."""
    selfs = self_times(spans)
    busy = defaultdict(list)
    own = defaultdict(list)
    for s, t_self in zip(spans, selfs):
        busy[s["name"]].append(1e3 * (s["end"] - s["start"]))
        own[s["name"]].append(1e3 * t_self)
    return {name: {"calls": len(busy[name]),
                   "busy_ms": sum(busy[name]), "self_ms": sum(own[name]),
                   "busy_per_call_ms": summarize(busy[name]),
                   "self_per_call_ms": summarize(own[name])}
            for name in sorted(busy)}
