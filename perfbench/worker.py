"""Benchmark worker: one fresh process that runs a plan of `pdp` commands.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py PLAN OUTPUTS SUMMARY [--trace TRACE]

The worker imports `pdp.cli` from `src/` under the current directory and
prints `ready` on standard output with its CPU time so far, which run.py
takes as the set-up time (`--probe` stops there).  It then runs each
operation of the plan as `pdp.cli.main(argv)` in-process, one at a time,
with standard output and error captured, and takes the CPU time of each
call.  Before an operation, once the operations since the last calibration
have used CALIBRATE_EVERY_NS of CPU time, it times calib.measure(), which
run.py uses to rescale the operation times.  After each call, outside the
timed region, it appends the operation's exit code, CPU time, calibration
and captured output to OUTPUTS (JSON lines), so outputs never accumulate in
the worker's memory and `ru_maxrss` reflects the program.  SUMMARY gets the
peak RSS and, with `--trace`, the per-layer totals; TRACE gets every span
recorded.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import pdp.cli  # noqa: E402  (timed as set-up)

print("ready", time.process_time_ns(), flush=True)  # set-up CPU time

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calib  # noqa: E402
import tracer  # noqa: E402

# CPU time of operations after which the machine's speed is measured again.
CALIBRATE_EVERY_NS = 20_000_000


def run(plan_path: str, outputs_path: str, summary_path: str, trace_path: str | None) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    main = pdp.cli.main
    spans = None
    if trace_path:
        spans = tracer.Tracer()
        main = spans.install()
    real_out, real_err = sys.stdout, sys.stderr
    since = CALIBRATE_EVERY_NS
    with open(outputs_path, "w", encoding="utf-8") as sink:
        for index, argv in enumerate(plan):
            out, err = io.StringIO(), io.StringIO()
            if spans:
                spans.op = index
            cal = None
            if since >= CALIBRATE_EVERY_NS:
                cal, since = calib.measure(), 0
            sys.stdout, sys.stderr = out, err
            start = time.process_time_ns()
            try:
                rc = main(argv)
            except (Exception, SystemExit):  # a crash is a failed operation
                rc = None
                err.write(traceback.format_exc())
            finally:
                elapsed = time.process_time_ns() - start
                sys.stdout, sys.stderr = real_out, real_err
            since += elapsed
            record = {"rc": rc, "ns": elapsed, "cal_ns": cal, "out": out.getvalue(), "err": err.getvalue()[-2000:]}
            sink.write(json.dumps(record) + "\n")
    summary = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spans:
        summary["layers"] = spans.totals()
        spans.write(trace_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args != ["--probe"]:
        trace = args[args.index("--trace") + 1] if "--trace" in args else None
        run(args[0], args[1], args[2], trace)
