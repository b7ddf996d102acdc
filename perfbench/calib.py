"""Machine-speed calibration for the benchmark's timings.

The reference machine is a shared host whose speed changes by up to 2x over
seconds to minutes, so a raw time says as much about the neighbours as about
the program.  `measure()` times a fixed task that never touches `pdp`: it
parses JSON, builds exact fractions, does arithmetic on them and writes JSON,
the same kind of work the solvers and the CLI do.  The benchmark runs it
between operations and rescales each operation's time by
`REFERENCE_MS / (calibration time nearby)`, which gives the time the operation
would take on the reference machine in a quiet phase.  A change to `pdp`
moves the rescaled times as it moves the raw ones; a change in the machine's
speed moves the operation and the calibration alike and cancels.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

# CPU time of one warm `calibrate()` call, in ms, on the reference machine
# (2-vCPU x86-64 VM, Python 3.11.7) in a quiet phase.  It only sets the
# scale of the rescaled times.
REFERENCE_MS = 0.65

_DOC = json.dumps(
    {
        key: [f"{(i * m) % 97 + 1}/{(i * m) % 89 + 100}" for i in range(24)]
        for m, key in enumerate("pqyc", 3)
    }
)


def calibrate() -> None:
    doc = json.loads(_DOC)
    p, q, y, c = ([Fraction(v) for v in doc[key]] for key in "pqyc")
    lam = [a / (1 - b) for a, b in zip(p, q)]
    w = [a / (1 - b - d) for a, b, d in zip(p, q, y)]
    phi = sorted((wi * ci - li) / (wi - li + 1) for wi, ci, li in zip(w, c, lam))
    best = max(sum(phi[:i], Fraction(0)) / (i + 1) for i in range(len(phi)))
    json.dumps({"phi": [str(v) for v in phi], "best": str(best)})


def measure(clock=time.process_time_ns) -> int:
    """Time of one warm `calibrate()` call on `clock`, in ns.

    The first call warms the caches after whatever ran before.  The cyclic
    collector is off meanwhile, so the size of the program's heap cannot
    change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        calibrate()
        start = clock()
        calibrate()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def rescale(times: list, calibrations: list, at: list, window: int = 10) -> list:
    """Rescale `times` (ms) to the reference machine's quiet speed.

    `calibrations` are calibration times in ns, in the order taken, and
    `at[i]` is the index of the last calibration taken before time i.  Time
    i is scaled by REFERENCE_MS over the median of the calibrations within
    `window` places of that one, which follows the machine's speed over a
    second or so and ignores a single slow calibration.
    """
    local = []
    for k in range(len(calibrations)):
        near = calibrations[max(0, k - window) : k + window + 1]
        local.append(statistics.median(near) / 1e6)
    return [t * REFERENCE_MS / local[k] for t, k in zip(times, at)]
