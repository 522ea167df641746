"""One workload in one fresh process; started by ``run.py``.

Modes:

- ``run``: set-up, one untimed warm-up input, then timed inputs until
  ``--seconds`` have passed and a whole operation (``op_group``) is
  complete; outputs are checked afterwards
- ``trace``: traced set-up, then pairs of one untraced and one traced run
  of the same operation (alternating which goes first) until
  ``--seconds`` have passed; reports per-layer spans and the overhead
- ``reference``: run every pool entry once and write the reference file

The result goes to ``--out`` as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from common import REFERENCE_DIR, SRC, read_json, write_json  # noqa: E402
from inputs import add_hits, key_name, op_group, pool_keys, sequence_for  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failed_units(wl, problems: list[str]) -> int:
    return min(wl.units_per_op, len(problems))


def timed_loop(wl, seq, seconds: float, refs: dict, group: int) -> dict:
    first = next(seq)
    wl.run(first)  # warm-up, untimed
    key, op_s, unit_s, failures, hits = first, [], [], [], {}
    attempted = failed = 0
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t = time.perf_counter()
        try:
            result, error = wl.run(key), None
        except Exception:  # an operation that raises counts as failed; the run goes on
            result, error = None, traceback.format_exc(limit=3)
        op_s.append(time.perf_counter() - t)
        results.append((key, result, error, op_s[-1]))
        if time.perf_counter() >= deadline and len(results) % group == 0:
            break
        key = next(seq)
    loop_s = time.perf_counter() - start
    for key, result, error, seconds_op in results:
        attempted += wl.units_per_op
        if error is not None:
            failed += wl.units_per_op
            failures.append({"key": key_name(key), "error": error})
            continue
        unit_s.extend(wl.units(result, seconds_op))
        problems = wl.problems(result, refs[key_name(key)])
        failed += failed_units(wl, problems)
        failures.extend({"key": key_name(key), "error": p} for p in problems)
        add_hits(hits, wl.hits(result))
    return {"op_s": op_s, "unit_s": unit_s, "loop_s": loop_s, "attempted": attempted,
            "failed": failed, "failures": failures, "hits": hits}


def traced_loop(wl, seq, seconds: float, refs: dict, tracer, instrumentation) -> dict:
    first = next(seq)
    wl.run(first)  # warm-up, untimed
    key, pairs, failures = first, [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        results, took = {}, {}
        attempted += wl.units_per_op
        try:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = k
                    instrumentation.apply()
                try:
                    t = time.perf_counter()
                    if traced:
                        with tracer.span("op"):
                            results[traced] = wl.run(key)
                    else:
                        results[traced] = wl.run(key)
                    took[traced] = time.perf_counter() - t
                finally:
                    instrumentation.remove()
        except Exception:  # an operation that raises counts as failed; the run goes on
            problems = [traceback.format_exc(limit=3)]
        else:
            pairs.append((took[False], took[True]))
            problems = wl.problems(results[False], refs[key_name(key)])
            if not wl.same(results[False], results[True]):
                problems.append("traced result differs from the untraced one")
        failed += failed_units(wl, problems)
        failures.extend({"key": key_name(key), "error": p} for p in problems)
        k += 1
        if time.perf_counter() >= deadline:
            break
        key = next(seq)
    return {"pairs_s": pairs, "ops": k, "attempted": attempted, "failed": failed,
            "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("run", "trace", "reference"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    # identification reports rank and order decisions as UserWarnings
    warnings.simplefilter("ignore", UserWarning)

    work = Path(args.work)
    import hvdcfr
    if not Path(hvdcfr.__file__).resolve().is_relative_to(SRC):
        print(f"hvdcfr imported from {hvdcfr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.mode == "trace":
        from tracing import Instrumentation, Tracer, layer_table, nesting_errors
        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
        tracer.op = "setup"
        with instrumentation.active(), tracer.span("setup"):
            wl = workloads.make(args.workload, work)
    else:
        wl = workloads.make(args.workload, work)
    setup_s = time.perf_counter() - T0

    if args.mode == "reference":
        refs = {key_name(key): wl.record(wl.run(key)) for key in pool_keys(args.workload)}
        write_json(REFERENCE_DIR / f"{args.workload}.json", refs)
        write_json(args.out, {"entries": len(refs)})
        return 0

    refs = read_json(REFERENCE_DIR / f"{args.workload}.json")
    seq = sequence_for(args.workload, args.seed, args.part)
    if args.mode == "run":
        out = timed_loop(wl, seq, args.seconds, refs, op_group(args.workload))
        out.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        write_json(args.out, out)
        return 0

    out = traced_loop(wl, seq, args.seconds, refs, tracer, instrumentation)
    spans = tracer.spans
    write_json(work / "spans.json", spans)
    out.update(layers=layer_table(spans), nesting_errors=nesting_errors(spans),
               model_orders=[s["model_order"] for s in spans if s["name"] == "sysid.identify"],
               samples=sum(s.get("samples", 0) for s in spans
                           if s["name"].startswith("control.closed_loop")),
               to_csv_bytes=[s["bytes"] for s in spans if s["name"] == "signals.to_csv"],
               spans=len(spans))
    write_json(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
