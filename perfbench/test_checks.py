"""Each benchmark check passes on the right value and fails on a value off by
more than its tolerance.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

Z3 = ((1, 3),)
Z3Z5 = ((1, 3), (1, 5))
EPS = checks.EPS_WITNESS


def fails(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def test_closed_form_sum_matches_known_values():
    # rho(0) = q, and the C/Z_3 witness at t^2 = 2/sqrt(3)
    assert checks.closed_form_sum(Z3Z5, [0, 0]) == pytest.approx(15.0, rel=1e-15)
    t = math.sqrt(2.0 / math.sqrt(3.0))
    assert checks.closed_form_sum(Z3, [t]) == pytest.approx(EPS, rel=1e-14)


def test_certificate():
    r = (1.0, 3.1708203932499384)
    checks.check_certificate(Z3Z5, r, 10)
    fails(checks.check_certificate, Z3Z5, r, 1)            # not the cosine maximum
    fails(checks.check_certificate, Z3Z5, (1.0, 0.0), 10)  # argmax not unique
    fails(checks.check_certificate, Z3Z5, r, 0)            # j outside 1..q-1
    fails(checks.check_certificate, Z3Z5, (-1.0, 1.0), 10)
    # at j = 3 the cosine sum is 1 against -1/2 elsewhere, but both phases
    # are 0 or pi, so the sine sum vanishes
    with pytest.raises(CheckFailed, match="sine"):
        checks.check_certificate(((1, 2), (1, 3)), (0.0, 1.0), 3)


def test_rho_origin():
    checks.check_rho_origin(15.0, 15)
    fails(checks.check_rho_origin, 15.0 * (1 + 1e-10), 15)


def test_witness():
    t = math.sqrt(2.0 / math.sqrt(3.0))
    checks.check_witness(Z3, [t], EPS)
    fails(checks.check_witness, Z3, [t], EPS + 1e-7)   # disagrees with own sum
    fails(checks.check_witness, Z3, [0.1], 2.9)        # not a sub-unity point


def test_ray_minimum():
    t_max, nodes = 3.0, 256
    ts = np.linspace(t_max / nodes, t_max, nodes)
    own = checks.closed_form_sum(Z3, ts[:, None])
    i = int(np.argmin(own))
    checks.check_ray_minimum(Z3, [1.0], t_max, nodes, ts[i], own[i])
    fails(checks.check_ray_minimum, Z3, [1.0], t_max, nodes, ts[i], own[i] + 1e-6)
    j = i + 20  # a true value of the sum, but not the minimum of the scan
    fails(checks.check_ray_minimum, Z3, [1.0], t_max, nodes, ts[j], own[j])
    fails(checks.check_ray_minimum, Z3, [1.0], t_max, nodes, 2 * t_max, own[i])


def test_oracle():
    checks.check_oracle(0.98360146581284, 0.98360146581266, 2.0e-13, 3)
    fails(checks.check_oracle, 0.9836014658, 0.9836014668, 2.0e-13, 3)


def test_eps_witness():
    checks.check_eps_witness(0.9913331589800337)
    fails(checks.check_eps_witness, 0.9913331589800337 + 1e-9)


def _row(k=40, m=100, inf_norm=0.99, sup_norm=2.8, argmin_r=0.1, verdict=True):
    return SimpleNamespace(k=k, m=m, inf_norm=inf_norm, sup_norm=sup_norm,
                           argmin_r=argmin_r, verdict=verdict)


def test_verdict_rule():
    checks.check_verdict(_row(), EPS)
    checks.check_verdict(_row(inf_norm=1.01, verdict=False), EPS)
    fails(checks.check_verdict, _row(verdict=False), EPS)
    fails(checks.check_verdict, _row(sup_norm=3.31), EPS)
    fails(checks.check_verdict, _row(argmin_r=0.31), EPS)


def test_dip():
    checks.check_dip(_row(), EPS)
    fails(checks.check_dip, _row(inf_norm=1.0 - (1.0 - EPS) / 2.0 + 1e-6), EPS)
    fails(checks.check_dip, _row(sup_norm=2.39), EPS)
    fails(checks.check_dip, _row(sup_norm=3.31), EPS)
    fails(checks.check_dip, _row(argmin_r=3.0 / math.sqrt(100) + 1e-6), EPS)


def test_dimension():
    checks.check_dimension(101.0 + 9e-7, 100)
    fails(checks.check_dimension, 101.0 + 2e-6, 100)
    fails(checks.check_dimension, float("nan"), 100)


def test_gram_dimension_covers_the_known_quadrature_error():
    checks.check_gram_dimension(129.0 + 5.8e-3, 128)  # today's O(h^2) error
    checks.check_gram_dimension(129.0, 128)           # an exact quadrature
    fails(checks.check_gram_dimension, 129.0 + 2e-2, 128)


def test_round_constant():
    checks.check_round_constant([26.0 * (1 + 5e-9), 26.0], 25)
    fails(checks.check_round_constant, [26.0 * (1 + 2e-8), 26.0], 25)
    fails(checks.check_round_constant, [], 25)


def test_fscurrent_round():
    checks.check_fscurrent_round(20, math.log(21) / 20)
    fails(checks.check_fscurrent_round, 20, math.log(21) / 20 * (1 + 1e-7))


def test_decreasing():
    checks.check_decreasing([0.3, 0.2, 0.1], "cone")
    fails(checks.check_decreasing, [0.3, 0.2, 0.2], "cone")


def test_lp_round():
    checks.check_lp_round(16, 0.06249999999898881)
    fails(checks.check_lp_round, 16, 0.0625 * (1 + 1e-7))


def test_halving():
    checks.check_halving({8: 0.125, 16: 0.0625, 32: 0.0313, 64: 0.016, 128: 0.009})
    fails(checks.check_halving, {8: 0.125, 16: 0.09})
    fails(checks.check_halving, {8: 0.125, 16: 0.04})


def test_cpn():
    checks.check_cpn(2, 3, 20)
    checks.check_cpn(3, 7, 720)
    fails(checks.check_cpn, 2, 3, 21)


def test_tyz():
    checks.check_tyz(2, 3.0)
    fails(checks.check_tyz, 2, 3.0 + 1e-8)


def test_positive():
    checks.check_positive([1.0, 2.0], "rho")
    fails(checks.check_positive, [1.0, -1e-3], "rho")
    fails(checks.check_positive, [1.0, float("nan")], "rho")


def test_peak_tail():
    m, radius = 20, 0.15
    a = 1.0 / math.sqrt(4.0 * math.pi)
    tail = math.cos(0.5 * radius / a) ** (2 * (m + 1))
    checks.check_peak_tail(m, radius, tail, 21.0)
    fails(checks.check_peak_tail, m, radius, tail * (1 + 1e-7), 21.0)
    fails(checks.check_peak_tail, m, radius, tail, 21.0 * (1 + 1e-7))
