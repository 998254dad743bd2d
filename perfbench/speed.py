"""Round times corrected for the machine's momentary speed.

The benchmark runs on a shared virtual machine whose speed changes by up to
2x over seconds to minutes, independently of the program.  A raw round time
therefore depends on when the round ran.  ``Clock`` cuts a round into slices
of about ``SLICE_S`` seconds with an interval timer (SIGALRM) and, at the end
of each slice, times a fixed calibration loop.  Each slice's work time is
scaled by ``CAL_REF_S / loop time``: the time the slice would have taken had
the machine run the loop in ``CAL_REF_S``.  Calibration time is excluded
from both the raw and the corrected round time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The loop spends about half its time in pure-Python float arithmetic and
# half in numpy calls on 64-element arrays, the two kinds of work the
# package does.  Either half alone tracked one workload poorly (README.md).
CAL_PY_STEPS = 50_000
CAL_NP_STEPS = 1_500
_A = np.linspace(0.0, 1.0, 64)
_B = np.linspace(1.0, 2.0, 64)
# Time of the loop at the machine's full speed (about the fastest tenth of
# loop times on the reference machine).  It only sets the scale: corrected
# times are seconds at that speed.
CAL_REF_S = 0.0042
SLICE_S = 0.25


def calibration_loop() -> float:
    """Seconds taken by the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_PY_STEPS):
        acc += i * 0.5
    for _ in range(CAL_NP_STEPS):
        np.exp(_A * _B + _A)
    return time.perf_counter() - t0


class Clock:
    """Raw and speed-corrected time of rounds.

    With ``calibrate=False`` (traced runs) no timer or loop runs and the
    corrected time equals the raw time."""

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.loop_s: list[float] = []
        self._slices: list[tuple[float, float]] = []
        self._t = 0.0
        self._busy = False

    def start_round(self) -> None:
        self._slices = []
        self._t = time.perf_counter()
        if self.calibrate:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._close_slice()

    def _close_slice(self) -> None:
        self._busy = True
        work = time.perf_counter() - self._t
        loop = calibration_loop() if self.calibrate else CAL_REF_S
        self._slices.append((work, loop))
        self._t = time.perf_counter()
        self._busy = False

    def end_round(self) -> tuple[float, float]:
        """(raw, corrected) seconds of the round; closes its last slice."""
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_slice()
        if self.calibrate:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.loop_s += [loop for _, loop in self._slices]
        raw = sum(work for work, _ in self._slices)
        corrected = sum(work * CAL_REF_S / loop for work, loop in self._slices)
        return raw, corrected
