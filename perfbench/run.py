"""Benchmark of the bergman package: one command, three workloads.

    python3 perfbench/run.py --workload sweep|orbifold|expansion \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``bergman`` from
``src/``.  Within ``--seconds`` it first times five fresh-interpreter set-ups
(``setup_s``), then repeats whole rounds of the workload, checking every
output, while another round still fits in the time (at least one round).
``wall_s`` and ``setup_s`` are medians of times corrected for the machine's
momentary speed (speed.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  See README.md in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "orbifold", "expansion")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-corrected wall times of fresh interpreters that import
    bergman, build the inputs and pay the first-call costs (probe.py), each
    started and awaited here.  The corrected time is the time outside the
    probe's body (process start and exit, uncorrected) plus the body's
    speed-corrected time; neither includes the probe's calibration loops."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
           "--seed", str(seed)]
    raw, corrected = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        body = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(wall)
        corrected.append(wall - body["warm_s"] - body["elapsed_s"] + body["corrected_s"])
    return raw, corrected


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bergman" / "__init__.py").is_file():
        print(f"error: no bergman sources under {SRC}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    setup_raw, setup_times = measure_setup(args.workload, args.seed)

    sys.path[:0] = [str(SRC), str(HERE)]
    import bergman
    if Path(bergman.__file__).resolve().parent != (SRC / "bergman").resolve():
        raise RuntimeError(f"imported bergman from {bergman.__file__}, not {SRC}")
    import workloads
    from tracer import Tracer

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)  # the shipped configs write to a relative out/
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
        workloads.warm(args.workload)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        round_fn = workloads.ROUNDS[args.workload]
        clock = Clock(calibrate=not args.trace)
        elapsed, raw_times, round_times, outcomes = [], [], [], []
        while True:  # whole rounds; another only if it should end in time
            t0 = time.perf_counter()
            clock.start_round()
            outcomes += round_fn(inputs, workdir)
            raw, corrected = clock.end_round()
            t1 = time.perf_counter()
            elapsed.append(t1 - t0)
            raw_times.append(raw)
            round_times.append(corrected)
            if t1 + statistics.median(elapsed) > deadline:
                break
        if tracer:
            tracer.uninstall()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for status, _, _ in outcomes if status == workloads.FAILED)
    wrong = sum(1 for status, _, _ in outcomes if status == workloads.WRONG)
    for status, label, msg in outcomes:
        if status != workloads.OK:
            print(f"{status}: {label}: {msg}", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(round_times)
    if tracer:
        metrics = tracer.layer_metrics(len(round_times))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not wrong, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "round_wall_s": round_times,
              "round_raw_s": raw_times, "calibration_loop_s": clock.loop_s,
              "setup_probe_s": setup_times, "setup_probe_raw_s": setup_raw, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"trace-{stem}.json", detail)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
