"""Run one benchmark workload against the `pdp` sources of this checkout.

    python3 perfbench/run.py --workload agent --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the directory holding `src/pdp`).  The
workload's documents are made from the seed (gen.py) and written under
`.perfbench/`; a fresh worker process (worker.py) imports `pdp.cli` and
runs the operations one at a time, in-process, in a fixed order.  After
the timed loop every output is checked by check.py, which does not use
`pdp`.  Times are CPU times rescaled to the reference machine's quiet speed
by the calibrations taken during the run (calib.py), since the machine's
own speed drifts by up to 2x.  The last line of standard output is one
JSON object: `correct`,
`attempted`, `failed` and `metrics` -- the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The traced run also
runs the plan once untraced, to report the tracing overhead, and writes
its spans to `.perfbench/trace-<workload>-<seed>.tsv`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402

# Start-ups timed besides the worker's own: half before the timed loop and
# half after the check, so the median spans the run's changes of machine speed.
SETUP_PROBES = 30
TIME_LIMIT_S = 170  # a run must end within 180 seconds

# (name, unit): every per-layer metric of the traced run.  `X_ms` is the
# self time of layer X summed over the run, `X_calls` its call count.
PER_LAYER = (
    ("cli.parse_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("core.derived_params_ms", "ms"),
    ("core.derived_params_calls", "count"),
    ("core.derived_params_cache_size", "count"),
    ("agent.greedy_ms", "ms"),
    ("agent.oracle_ms", "ms"),
    ("agent.oracle_masks", "count"),
    ("agent.is_feasible_calls", "count"),
    ("agent.is_feasible_ms", "ms"),
    ("designer.preprocess_ms", "ms"),
    ("designer.fptas_ms", "ms"),
    ("designer.fptas_bins", "count"),
    ("designer.oracle_ms", "ms"),
    ("designer.oracle_masks", "count"),
    ("designer.oracle_peak_mb", "MB"),
    ("multiagent.solve_ms", "ms"),
    ("multiagent.grid_points", "count"),
    ("multiagent.competitive_ms", "ms"),
    ("multiagent.competitive_calls", "count"),
    ("multiagent.competitive_profit_ms", "ms"),
    ("multiagent.competitive_profit_calls", "count"),
    ("multiplatform.prune_ms", "ms"),
    ("multiplatform.prune_calls", "count"),
    ("multiplatform.greedy_ms", "ms"),
    ("game.nash_ms", "ms"),
    ("game.dynamics_ms", "ms"),
    ("game.best_response_calls", "count"),
    ("game.profile_profit_calls", "count"),
    ("trace.overhead_ms", "ms"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def start_worker(args: list, deadline: float):
    """Run worker.py to its end; returns (set-up s, calibration ns): the
    CPU time of interpreter start plus `import pdp.cli`, which the worker
    prints when ready, and a calibration taken here just before the start."""
    cal = calib.measure()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline().split()
        _, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"run exceeded {TIME_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:  # stop the worker on every way out
            proc.kill()
            proc.communicate()
    if len(ready) != 2 or ready[0] != "ready" or proc.returncode != 0:
        raise HarnessError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return int(ready[1]) / 1e9, cal


def run_worker(work: str, plan: str, deadline: float, trace: str | None = None):
    """Run the whole plan in one fresh worker; returns ((set-up s,
    calibration ns), summary)."""
    outputs, summary = os.path.join(work, "outputs.jsonl"), os.path.join(work, "summary.json")
    args = [plan, outputs, summary] + (["--trace", trace] if trace else [])
    setup = start_worker(args, deadline)
    with open(summary, encoding="utf-8") as fh:
        return setup, json.load(fh)


def records(work: str):
    with open(os.path.join(work, "outputs.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def op_times(recs: list) -> list:
    """Each operation's CPU time in ms, rescaled by the calibrations the
    worker took between operations (calib.rescale)."""
    calibrations, at = [], []
    for rec in recs:
        if rec["cal_ns"] is not None:
            calibrations.append(rec["cal_ns"])
        at.append(len(calibrations) - 1)
    return calib.rescale([rec["ns"] / 1e6 for rec in recs], calibrations, at)


def judge(work: str, ops: list):
    """Check every output after the timed loop.  Returns (op times in ms,
    failed count, correct): a nonzero exit or exception is a failed
    operation, and `correct` speaks of the operations that did not fail."""
    recs = list(records(work))
    if len(recs) != len(ops):
        raise HarnessError(f"worker recorded {len(recs)} of {len(ops)} operations")
    failed, problems = 0, []
    for op, rec in zip(ops, recs):
        if rec["rc"] != 0:
            failed += 1
            print(f"failed: {op['id']} {op['command']}: exit {rec['rc']}: {rec['err'].strip()[-300:]}", file=sys.stderr)
            continue
        problem = check.check(op, rec["out"])
        if problem:
            problems.append(problem)
            print(f"wrong: {op['id']} {op['command']}: {problem}", file=sys.stderr)
    return op_times(recs), failed, not problems


def grid_points(ops: list) -> int:
    """Size of the (theta, D) guess grid of the multi-agent DP, summed over
    the multi-agent documents: per agent, one theta per distinct potential
    plus "adopt nothing", and one D per multiple of delta up to n * max z."""
    total = 0
    for op in ops:
        doc = op["doc"]
        if doc["kind"] != "multi-agent":
            continue
        delta = check.F(doc["quantization"]["delta"])
        cost = [check.F(c) for c in doc["cost"]]
        size = 1
        for fields in doc["agents"]:
            f = check.flower(fields, cost=cost)
            size *= (1 + len(set(f.phi))) * (f.n * max(int(z / delta) for z in f.z) + 1)
        total += size
    return total


def end_to_end(times: list, failed: int, setups: list, summary: dict) -> dict:
    completed = len(times) - failed
    seconds, cals = zip(*setups)
    setup = calib.rescale(list(seconds), list(cals), list(range(len(setups))))
    return {
        "ops_per_s": (completed / (sum(times) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[-1], "ms"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(layers: dict, ops: list, overhead_ms: float) -> dict:
    if layers["absent"]:
        print(f"absent (reported as 0): {', '.join(layers['absent'])}", file=sys.stderr)
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith("_ms") and name[:-3] in layers["ms"]:
            value = layers["ms"][name[:-3]]
        elif name.endswith("_calls") and name[:-6] in layers["calls"]:
            value = layers["calls"][name[:-6]]
        elif name == "multiagent.grid_points":
            value = grid_points(ops)
        elif name == "trace.overhead_ms":
            value = overhead_ms
        else:
            value = layers["counts"][name]
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one pdp benchmark workload.")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pdp", "cli.py")):
        print("error: src/pdp/cli.py not found; run from the root of a pdp checkout", file=sys.stderr)
        return 2

    ops = gen.operations(args.workload, args.seed, args.seconds)
    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = []
        for index, op in enumerate(ops):
            path = os.path.join(work, f"{index:05d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["doc"], fh)
            plan.append([op["command"], os.path.relpath(path, root), *op["args"]])
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        if args.trace:
            run_worker(work, plan_path, deadline)
            plain_ms = sum(op_times(list(records(work))))
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.tsv")
            _, summary = run_worker(work, plan_path, deadline, trace=trace_path)
            times, failed, correct = judge(work, ops)
            metrics = per_layer(summary["layers"], ops, sum(times) - plain_ms)
            print(f"spans: {summary['layers']['spans']} in {trace_path}", file=sys.stderr)
        else:
            start_worker(["--probe"], deadline)  # compiles bytecode; not counted
            setups = [start_worker(["--probe"], deadline) for _ in range(SETUP_PROBES // 2)]
            setup, summary = run_worker(work, plan_path, deadline)
            setups.append(setup)
            times, failed, correct = judge(work, ops)
            setups += [start_worker(["--probe"], deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics = end_to_end(times, failed, setups, summary)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
