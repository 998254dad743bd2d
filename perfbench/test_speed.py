"""The speed-corrected clock keeps calibration out of the measured time and
scales each slice by the reference loop time.

    python3 -m pytest perfbench/test_speed.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def busy(seconds):
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        pass


def test_uncalibrated_clock_reports_raw_time():
    clock = speed.Clock(calibrate=False)
    clock.start_round()
    busy(0.05)
    raw, corrected = clock.end_round()
    assert raw == corrected
    assert raw == pytest.approx(0.05, abs=0.02)
    assert clock.loop_s == []


def test_calibrated_clock_slices_and_scales():
    clock = speed.Clock()
    clock.start_round()
    t0 = time.perf_counter()
    busy(3.2 * speed.SLICE_S)
    raw, corrected = clock.end_round()
    elapsed = time.perf_counter() - t0
    slices = len(clock.loop_s)
    assert slices >= 3  # timer slices plus the closing one
    assert raw < elapsed - 0.9 * sum(clock.loop_s)  # loops are not work
    assert raw == pytest.approx(3.2 * speed.SLICE_S, abs=0.05)
    lo = raw * speed.CAL_REF_S / max(clock.loop_s)
    hi = raw * speed.CAL_REF_S / min(clock.loop_s)
    assert lo <= corrected <= hi


def test_timer_is_disarmed_after_a_round():
    clock = speed.Clock()
    clock.start_round()
    clock.end_round()
    n = len(clock.loop_s)
    busy(2 * speed.SLICE_S)
    assert len(clock.loop_s) == n
