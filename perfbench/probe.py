"""One set-up of a benchmark workload in a fresh interpreter.

run.py starts this script several times and times each start to exit: the
interpreter start, ``import bergman``, building the seeded inputs and the
first-call costs the workload pays once per process.  The body, from
``import workloads`` on, runs under a speed-corrected clock (speed.py).  The
last line of standard output gives the body's elapsed time (calibration
loops included), its speed-corrected time, and the time of one untimed
warm-up of the calibration loop, which run.py leaves out of ``setup_s``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from speed import Clock, calibration_loop  # noqa: E402

# The loop's first run in a fresh interpreter is up to 1.5x slower than the
# next ones; the clock's samples must see the warm loop.
warm_s = calibration_loop()
clock = Clock()
T0 = time.perf_counter()
clock.start_round()

import workloads  # noqa: E402  (imports bergman)

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
ap.add_argument("--seed", type=int, required=True)
args = ap.parse_args()
workloads.make_inputs(args.workload, args.seed, HERE.parent)
workloads.warm(args.workload)
_, corrected = clock.end_round()
print(json.dumps({"elapsed_s": time.perf_counter() - T0, "corrected_s": corrected,
                  "warm_s": warm_s}))
