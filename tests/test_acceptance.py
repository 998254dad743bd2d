"""End-to-end acceptance checks.

Each test exercises one headline capability through the public API and prints
a single pass/fail line so a full run reads as a scorecard.  Timed checks
assert their budget as part of the criterion.
"""

import glob
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from bergman.analysis import fs_current_sup, lp_deviation, tyz_a1_estimate
from bergman.cli import parse_config, run
from bergman.gram import GramModel, gram_matrix, rho_gram_field
from bergman.kernels import (
    cpn_fs_exact,
    cpn_fs_oracle,
    kernel_area_integral,
    log_monomial_norms,
    peak_section_tail,
    rho_revolution,
)
from bergman.models import (
    PerturbedPotential,
    make_cone_family,
    make_cyclic_weights,
    rescale_to_area,
    round_sphere,
)
from bergman.orbifold import degree_cap_for, min_on_ray, rho_closed, rho_oracle
from bergman.potential import build_potential
from bergman.resonance import (
    construct_certificate,
    find_subunity_point,
    verify_certificate,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WITNESS = 1 - 2 * math.exp(-math.sqrt(3) * math.pi)
RAY_MIN_Z3 = 0.973420066524  # 12-digit fixture, independent 1-D minimization


def report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_weight_systems(count, seed, q_max=60, n_max=3):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, n_max + 1))
        pairs = []
        for _ in range(n):
            q = int(rng.integers(2, 13))
            ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
            pairs.append((int(rng.choice(ps)), q))
        w = make_cyclic_weights(pairs)
        if 3 <= w.q <= q_max:
            out.append(w)
    return out


def test_criterion_01_closed_form_vs_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for pairs in ([(1, 2)], [(1, 3)], [(2, 5)], [(1, 3), (1, 5)]):
        w = make_cyclic_weights(pairs)
        for _ in range(200):
            z = rng.normal(size=w.n) + 1j * rng.normal(size=w.n)
            nz = np.linalg.norm(z)
            if nz > 3.0:
                z *= 3.0 / nz
            cap = degree_cap_for(w, z, 1e-11)
            res = rho_oracle(w, z, cap)
            err = abs(res.value - rho_closed(w, z)) - res.tail_bound
            worst = max(worst, err)
    dt = time.time() - t0
    report(1, worst <= 1e-10 and dt < 10,
           f"4 systems x 200 pts, worst err-tail {worst:.2e}, {dt:.1f}s")


def test_criterion_02_orbifold_property_suite():
    rng = np.random.default_rng(20240824)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(1, 4))
        pairs = []
        for _ in range(n):
            q = int(rng.integers(1, 13))
            ps = [p for p in range(q) if math.gcd(p, q) == 1] or [0]
            pairs.append((int(rng.choice(ps)), q))
        w = make_cyclic_weights(pairs)
        if w.q > 60:
            continue
        z = rng.normal(size=w.n) + 1j * rng.normal(size=w.n)
        worst = max(worst, abs(rho_closed(w, np.zeros(w.n)) - w.q))
        if w.q == 1:
            worst = max(worst, abs(rho_closed(w, z) - 1.0))
        base = rho_closed(w, z)
        a = int(rng.integers(1, w.q + 1))
        worst = max(worst,
                    abs(rho_closed(w, z * np.exp(1j * w.phases(a))) - base) / max(base, 1.0))
    report(2, worst < 1e-12,
           f"rho(0)=q, q=1 identity, sigma-invariance; worst dev {worst:.2e}")


def test_criterion_03_resonance_battery():
    t0 = time.time()
    systems = random_weight_systems(200, seed=777)
    worst_k = -1
    for w in systems:
        cert = construct_certificate(w)
        ok, margin, _ = verify_certificate(w, cert)
        if not (ok and margin > 0):
            report(3, False, f"certificate rejected for {w.pairs}")
        wit = find_subunity_point(w, cert)
        if not (wit.rho < 1.0 and wit.k <= 50):
            report(3, False, f"no sub-unity point for {w.pairs}")
        worst_k = max(worst_k, wit.k)
    dt = time.time() - t0
    report(3, dt < 60,
           f"200 systems certified + sub-unity (max k {worst_k}), {dt:.1f}s")


def test_criterion_04_z3_witness_and_ray_minimum():
    w = make_cyclic_weights([(1, 3)])
    cert = construct_certificate(w)
    wit = find_subunity_point(w, cert)
    e_closed = abs(wit.rho - WITNESS)
    cap = degree_cap_for(w, wit.z, 1e-12)
    res = rho_oracle(w, np.array(wit.z), cap)
    e_oracle = abs(res.value - WITNESS) - res.tail_bound
    _, rho_star = min_on_ray(w, [1.0], 3.0)
    e_ray = abs(rho_star - RAY_MIN_Z3)
    ok = e_closed < 1e-10 and e_oracle < 1e-10 and e_ray < 1e-10
    report(4, ok, f"witness err closed {e_closed:.1e} / oracle {e_oracle:.1e}, "
                  f"ray-min err {e_ray:.1e}")


def test_criterion_05_round_sphere_exactness():
    t0 = time.time()
    prof = round_sphere()
    table = build_potential(prof)
    worst = 0.0
    for m in range(1, 51):
        fld = rho_revolution(prof, m, table=table)
        worst = max(worst, abs(fld.sup - (m + 1)) / (m + 1),
                    abs(fld.inf - (m + 1)) / (m + 1))
    dt = time.time() - t0
    report(5, worst < 1e-8 and dt < 30,
           f"rho_m = m+1, m=1..50, worst rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_06_dimension_identity():
    profiles = [("round", round_sphere())]
    profiles += [(f"cone{k}", rescale_to_area(make_cone_family(k), 1))
                 for k in (10, 20, 40)]
    worst = 0.0
    for _, prof in profiles:
        table = build_potential(prof)
        for m in (25, 100):
            val = kernel_area_integral(table, m, log_monomial_norms(table, m))
            worst = max(worst, abs(val - (m + 1)))
    report(6, worst < 1e-6,
           f"integral rho_m dA = m+1 on 4 profiles x m in {{25,100}}, "
           f"worst err {worst:.2e}")


def _solve_exact(a, b):
    """Gaussian elimination over Fractions."""
    n = len(b)
    a = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def test_criterion_07_cpn_exact_and_a1():
    for n in (1, 2, 3):
        for m in range(0, 31):
            if Fraction(cpn_fs_exact(n, m)) != cpn_fs_oracle(n, m):
                report(7, False, f"oracle mismatch at n={n}, m={m}")
    worst = 0.0
    for n in (1, 2, 3):
        if n <= 2:
            # two-point estimate is exact when rho has no terms below m^(n-2)
            a1, _ = tyz_a1_estimate(cpn_fs_exact(n, 10), cpn_fs_exact(n, 20),
                                    10, 20, n)
        else:
            # rho_m is a degree-n polynomial in m, so exact interpolation
            # through n+1 points recovers the subleading coefficient
            ms = list(range(20, 20 + n + 1))
            vand = [[Fraction(m) ** e for e in range(n, -1, -1)] for m in ms]
            vals = [Fraction(cpn_fs_exact(n, m)) for m in ms]
            coeffs = _solve_exact(vand, vals)
            a1 = float(coeffs[1])
        worst = max(worst, abs(a1 - n * (n + 1) / 2))
    report(7, worst < 1e-10,
           f"CP^n exact = oracle (n<=3, m<=30), a1 err {worst:.2e}")


def test_criterion_08_cone_family_counterexample():
    # k = 40 rather than 20: at k = 20 the profile is still too far from its
    # flat-cone blow-up limit for the dip to clear the stated threshold
    t0 = time.time()
    k, m = 40, 100
    prof = rescale_to_area(make_cone_family(k), 1)
    fld = rho_revolution(prof, m)
    dip = fld.inf / m
    spike = fld.sup / m
    near = fld.argmin_r <= 3 / math.sqrt(m)
    dt = time.time() - t0
    ok = dip <= 0.996 and near and 2.4 <= spike <= 3.3 and dt < 300
    report(8, ok, f"(k,m)=({k},{m}): inf/m {dip:.5f} <= 0.996, argmin "
                  f"{fld.argmin_r:.4f} <= {3 / math.sqrt(m):.4f}, sup/m "
                  f"{spike:.3f} in [2.4,3.3], {dt:.1f}s")


def test_criterion_09_lp_expansion():
    pert = PerturbedPotential(6)
    l1 = {}
    for m in (8, 16, 32):
        fld = rho_gram_field(GramModel(m, pert))
        l1[m] = lp_deviation(fld, 1.0)
    r1, r2 = l1[8] / l1[16], l1[16] / l1[32]
    prof = round_sphere()
    worst = max(abs(lp_deviation(rho_revolution(prof, m), 1.0) - 1 / m)
                for m in (8, 16, 32))
    ok = all(1.5 <= r <= 3.0 for r in (r1, r2)) and worst < 1e-9
    report(9, ok, f"perturbed L1 halving ratios {r1:.2f}, {r2:.2f} in [1.5,3]; "
                  f"round L1 = 1/m within {worst:.1e}")


def test_criterion_10_fs_current_normalization():
    detail = []
    ok = True
    for name, prof in (("round", round_sphere()),
                       ("cone10", rescale_to_area(make_cone_family(10), 1))):
        vals = [fs_current_sup(rho_revolution(prof, m)) for m in (10, 20, 40, 80)]
        mono = all(a > b for a, b in zip(vals, vals[1:]))
        ok = ok and mono
        detail.append(f"{name} {vals[0]:.3f}->{vals[-1]:.3f}"
                      f"{'' if mono else ' NOT MONOTONE'}")
    report(10, ok, "sup|log rho_m|/m decreasing over m=10..80: "
           + ", ".join(detail))


def test_criterion_11_peak_section_decay():
    prof = round_sphere()
    table = build_potential(prof)
    m = 25
    radius = 5 / math.sqrt(m)
    _, tail, _ = peak_section_tail(prof, m, 0.0, radius, table=table)
    radii = np.linspace(0.2, 1.6, 8)
    tails = [peak_section_tail(prof, m, 0.0, R, table=table)[1] for R in radii]
    mono = all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
    report(11, tail <= 0.01 and mono,
           f"tail outside 5m^(-1/2) is {tail:.2e} <= 0.01, monotone in radius")


def test_criterion_12_shipped_config_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("out")
    configs = sorted(glob.glob(os.path.join(REPO, "configs", "*.json")))
    assert configs, "no shipped configs found"
    for path in configs:
        out = parse_config(path).params["out"]
        assert run(["config", path]) == 0
        first = open(out, "rb").read()
        assert run(["config", path]) == 0
        if open(out, "rb").read() != first:
            report(12, False, f"non-deterministic output for {path}")
    report(12, True, f"{len(configs)} shipped configs re-run byte-identical")
