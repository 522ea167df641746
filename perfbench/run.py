"""hvdcfr benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-reference

Run from anywhere; paths are taken relative to this file's checkout,
which must hold ``src/hvdcfr``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The lines before it hold the
full report: environment, every metric with median, quartiles and sample
count, failures, hit counts and the per-layer table. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

from common import (BENCH_DIR, REFERENCE_DIR, ROOT, SRC, WORK, WORKLOADS, child_env,
                    environment, percentile_90, read_json, summarize)
from inputs import add_hits, cli_scenario, comparison_problems, criteria_hits, key_name, \
    op_group, parse_comparison, pool_keys, sequence_for

# in-process workloads split the timed seconds over this many fresh
# processes; each also gives one set-up sample, and setup_s is their median
RUN_PROCESSES = 3
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every child is stopped before the run exceeds this
CLI_MAIN = "import sys; from hvdcfr.cli import main; sys.exit(main())"
WARMUP_POLICY = {
    "cli-pipeline": "none: every hvdcfr process pays its own import and first-call costs",
    "in-process": "one untimed operation after set-up, before timing starts",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the children of one benchmark run and keeps them within its time limit."""

    def __init__(self, workload: str, seed: int, seconds: float, short: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.processes = 1 if short else RUN_PROCESSES
        self.importtime_samples = 1 if short else IMPORTTIME_SAMPLES
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.env = child_env()
        self.count = 0

    def child(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        return time.perf_counter() - start, proc

    def worker(self, mode: str, part: int = 0, seconds: float | None = None) -> dict:
        self.count += 1
        out = self.work / f"{mode}-{self.count}.json"
        seconds = self.seconds if seconds is None else seconds
        _, proc = self.child([sys.executable, str(BENCH_DIR / "worker.py"),
                              "--workload", self.workload, "--mode", mode,
                              "--seed", str(self.seed), "--seconds", str(seconds),
                              "--part", str(part), "--work", str(self.work), "--out", str(out)])
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-3000:]}")
        return read_json(out)

    def importtime(self) -> dict:
        """Cumulative import times (s) of hvdcfr.cli and scipy.signal."""
        _, proc = self.child([sys.executable, "-X", "importtime", "-c", "import hvdcfr.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import of hvdcfr.cli failed: {proc.stderr[-3000:]}")
        times = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                times[m.group(2)] = int(m.group(1)) * 1e-6
        return {"hvdcfr.cli": times["hvdcfr.cli"], "scipy.signal": times.get("scipy.signal", 0.0)}


def metric(unit: str, values: list[float]) -> dict:
    summary = summarize(values)
    return {"value": summary["p50"], "unit": unit, **summary}


def rate(unit: str, count: int, seconds: float) -> dict:
    return {"value": count / seconds, "unit": unit, "n": count}


# ------------------------------------------------------------ end to end

def run_cli(r: Runner) -> dict:
    """Fresh ``hvdcfr pipeline`` processes, alternating a step-pulse and a
    file-disturbance scenario. The second pair repeats the first, so every
    run checks that one input gives identical output bytes."""
    refs = read_json(REFERENCE_DIR / "cli-pipeline.json")
    paths = {key: cli_scenario(key, r.work / "inputs") for key in pool_keys("cli-pipeline")}
    setup = [r.child([sys.executable, "-c", "import hvdcfr.cli"])[0]
             for _ in range(r.processes)]
    seq = sequence_for("cli-pipeline", r.seed)
    first_pair = [next(seq), next(seq)]
    keys = iter(first_pair + first_pair)
    digests, pairs, by_kind, failures, hits = {}, [], {"step": [], "file": []}, [], {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pair = []
        for _ in range(op_group("cli-pipeline")):
            key = next(keys, None) or next(seq)
            out = r.work / f"out-{attempted}"
            took, proc = r.child([sys.executable, "-c", CLI_MAIN, "pipeline",
                                  "--scenario", str(paths[key]), "--out", str(out)])
            attempted += 1
            pair.append(took)
            by_kind[key[0]].append(took)
            if proc.returncode != 0:
                problems = [f"exit code {proc.returncode}: {proc.stderr[-1000:]}"]
            else:
                table = parse_comparison((out / "comparison.csv").read_text())
                problems = comparison_problems(table, refs[key_name(key)])
                add_hits(hits, criteria_hits(key[0], table["reductions"]))
                digest = hashlib.sha256()
                for f in sorted(out.iterdir()):
                    digest.update(f.name.encode() + b"\0" + f.read_bytes())
                if digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
                    problems.append("output bytes differ between two runs on one input")
            shutil.rmtree(out, ignore_errors=True)
            failed += min(1, len(problems))
            failures.extend({"key": key_name(key), "error": p} for p in problems)
        pairs.append(sum(pair) / len(pair))
        if len(pairs) >= 2 and time.perf_counter() - start >= r.seconds:
            break
    loop_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report = {
        "setup_s": metric("s", setup),
        "pipeline_s.p50": metric("s", pairs),
        "pipeline_s.step": metric("s", by_kind["step"]),
        "pipeline_s.file": metric("s", by_kind["file"]),
        "pipelines_per_s": rate("1/s", attempted, loop_s),
        "failed_frac": {"value": failed / attempted, "unit": "frac", "n": attempted},
        "peak_rss_mb": {"value": peak, "unit": "MB", "n": attempted + len(setup)},
    }
    contract = {
        "setup_s": report["setup_s"],
        "op_ms.p50": {"value": 1e3 * report["pipeline_s.p50"]["value"], "unit": "ms"},
        "ops_per_s": report["pipelines_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {"report": report, "contract": contract, "attempted": attempted, "failed": failed,
            "failures": failures, "hits": hits}


def run_inprocess(r: Runner) -> dict:
    """The timed seconds split over fresh processes that each set up, warm
    up and time their own part of the seed's operation stream. A
    seed-study operation is one step-pulse and two continuous disturbances
    (nine evals); a model-fit operation is one design per sweep condition."""
    parts = [r.worker("run", part=j, seconds=r.seconds / r.processes)
             for j in range(r.processes)]
    res = {key: sum((p[key] for p in parts), []) for key in ("unit_s", "failures")}
    size = op_group(r.workload)
    res["op_s"] = [sum(p["op_s"][i:i + size]) for p in parts
                   for i in range(0, len(p["op_s"]), size)]
    res.update({key: sum(p[key] for p in parts) for key in ("loop_s", "attempted", "failed")})
    res["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    res["hits"] = {}
    for p in parts:
        add_hits(res["hits"], p["hits"])
    setup = [p["setup_s"] for p in parts]
    report = {
        "setup_s": metric("s", setup),
        "op_ms.p50": metric("ms", [1e3 * s for s in res["op_s"]]),
        "ops_per_s": rate("1/s", len(res["op_s"]), res["loop_s"]),
        "failed_frac": {"value": res["failed"] / res["attempted"], "unit": "frac",
                        "n": res["attempted"]},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB", "n": len(parts)},
    }
    units_ms = [1e3 * s for s in res["unit_s"]]
    if r.workload == "seed-study":
        report["evals_per_s"] = rate("1/s", len(units_ms), res["loop_s"])
        report["eval_ms.p50"] = metric("ms", units_ms)
        report["eval_ms.p90"] = {"value": percentile_90(units_ms), "unit": "ms",
                                 "n": len(units_ms)}
    else:
        report["designs_per_s"] = rate("1/s", len(units_ms), res["loop_s"])
        report["design_ms.p50"] = metric("ms", units_ms)
    contract = {name: report[name] for name in ("setup_s", "op_ms.p50", "ops_per_s", "peak_rss_mb")}
    return {"report": report, "contract": contract, "attempted": res["attempted"],
            "failed": res["failed"], "failures": res["failures"], "hits": res["hits"]}


# ------------------------------------------------------------ traced

LAYER_SPANS = {  # per-layer metric -> span name whose median busy time per call it is
    "harness.profile_ms": "harness.profile",
    "harness.metrics_ms": "harness.metrics",
    "harness.compare_ms": "harness.compare",
    "plant.build_ms": "plant.build",
    "plant.simulate_ms": "plant.simulate",
    "sysid.identify_ms": "sysid.identify",
    "sysid.observer_ls_ms": "sysid.observer_ls",
    "sysid.markov_ms": "sysid.markov",
    "sysid.hankel_ms": "sysid.hankel",
    "sysid.era_ms": "sysid.era",
    "sysid.to_continuous_ms": "sysid.to_continuous",
    "numerics.care_ms": "numerics.care",
    "numerics.logm_ms": "numerics.logm",
    "control.make_lqg_ms": "control.make_lqg",
    "control.closed_loop_lqg_ms": "control.closed_loop_lqg",
    "control.closed_loop_pi_ms": "control.closed_loop_pi",
    "signals.to_csv_ms": "signals.to_csv",
    "signals.from_csv_ms": "signals.from_csv",
}


def layer_metrics(res: dict, imports: list[dict]) -> dict:
    """Every per-layer metric the traced run measured (None where the
    workload does not pass through the layer)."""
    layers = res["layers"]

    def per_call(span, key="busy_per_call_ms"):
        return layers[span][key]["p50"] if span in layers else None

    out = {name: {"value": per_call(span), "unit": "ms"} for name, span in LAYER_SPANS.items()}
    out["cli.import_s"] = {"value": statistics.median(i["hvdcfr.cli"] for i in imports),
                           "unit": "s"}
    out["cli.import_scipy_signal_s"] = {
        "value": statistics.median(i["scipy.signal"] for i in imports), "unit": "s"}
    out["sysid.identify_self_ms"] = {"value": per_call("sysid.identify", "self_per_call_ms"),
                                     "unit": "ms"}
    builds = layers.get("statespace.compound_steps", {}).get("calls", 0)
    out["statespace.step_matrices_ms"] = {
        "value": ((layers["statespace.rk4_step_matrices"]["busy_ms"]
                   + layers["statespace.compound_steps"]["busy_ms"]) / builds) if builds else None,
        "unit": "ms"}
    out["sysid.model_order"] = {
        "value": statistics.median(res["model_orders"]) if res["model_orders"] else None,
        "unit": "count"}
    loop_ms = sum(layers[s]["busy_ms"] for s in ("control.closed_loop_lqg", "control.closed_loop_pi")
                  if s in layers)
    out["control.closed_loop_samples_per_s"] = {
        "value": 1e3 * res["samples"] / loop_ms if loop_ms else None, "unit": "1/s"}
    out["signals.to_csv_bytes"] = {
        "value": statistics.median(res["to_csv_bytes"]) if res["to_csv_bytes"] else None,
        "unit": "bytes"}
    plain = sum(p for p, _ in res["pairs_s"])
    out["trace.overhead_frac"] = {
        "value": sum(t for _, t in res["pairs_s"]) / plain - 1.0 if plain else None,
        "unit": "frac"}
    return out


def run_traced(r: Runner) -> dict:
    imports = [r.importtime() for _ in range(r.importtime_samples)]
    res = r.worker("trace")
    shutil.copyfile(r.work / "spans.json", WORK / f"spans-{r.workload}.json")
    metrics = layer_metrics(res, imports)
    failures = res["failures"] + [{"key": "trace", "error": e} for e in res["nesting_errors"]]
    report = {"layers": res["layers"], "per_layer": metrics, "spans": res["spans"],
              "traced_pairs": len(res["pairs_s"]), "nesting_errors": len(res["nesting_errors"]),
              "import_samples": imports}
    return {"report": report, "contract": metrics, "attempted": res["attempted"],
            "failed": res["failed"] + len(res["nesting_errors"]), "failures": failures,
            "hits": {}}


# ------------------------------------------------------------ entry points

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 short: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (full report, final result line)."""
    spec = read_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    compileall.compile_dir(str(SRC / "hvdcfr"), quiet=1)
    r = Runner(workload, seed, seconds, short)
    r.work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            out = run_traced(r)
        elif workload == "cli-pipeline":
            out = run_cli(r)
        else:
            out = run_inprocess(r)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    measured = {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in out["contract"].items() if m["value"] is not None}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    metrics = {m["name"]: measured[m["name"]] for m in wanted if m["name"] in measured}
    if missing:
        out["failures"].append({"key": "metrics", "error": f"not measured: {missing}"})
    result = {"correct": out["failed"] == 0 and not missing, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(),
              "warmup": WARMUP_POLICY["cli-pipeline" if workload == "cli-pipeline" and not trace
                                      else "in-process"],
              "metrics": out["report"], "hits": out["hits"], "failures": out["failures"]}
    return report, result


def self_test() -> int:
    """One short run of every workload, untraced and traced, checked against
    BENCHMARK.json: every metric present with its unit, outputs correct, and
    no child span longer than its parent."""
    spec = read_json(ROOT / "BENCHMARK.json")
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            report, result = run_workload(workload, seed=1, seconds=0, trace=trace, short=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            label = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: incorrect: {report['failures'][:3]}")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{label}: metric {m['name']} missing or wrong unit: {got}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{label}: extra metrics {sorted(result['metrics'])}")
            if trace and report["metrics"]["nesting_errors"]:
                problems.append(f"{label}: child spans longer than their parents")
            print(f"self-test {label}: attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def make_reference() -> int:
    """Write reference/<workload>.json from the current checkout's code."""
    for workload in WORKLOADS:
        r = Runner(workload, seed=0, seconds=0, short=True)
        r.deadline = time.perf_counter() + 3600
        r.work.mkdir(parents=True, exist_ok=True)
        try:
            print(workload, r.worker("reference"), flush=True)
        finally:
            shutil.rmtree(r.work, ignore_errors=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "hvdcfr" / "__init__.py").is_file():
        print(f"error: no hvdcfr sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
