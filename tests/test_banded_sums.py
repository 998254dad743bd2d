"""The banded monomial sums of the revolution path against dense sums.

The reference forms every term of every row (in row blocks, to keep memory
small) and sums it with SciPy's logsumexp; it lives here only, so the
banded code in kernels.py has no dense twin to fall back on."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import bergman
from bergman import kernels
from bergman.kernels import kernel_area_integral, log_monomial_norms, rho_revolution
from bergman.models import make_cone_family, rescale_to_area, round_sphere
from bergman.potential import build_potential

PROFILES = {"round": round_sphere,
            **{f"cone{k}": (lambda k=k: rescale_to_area(make_cone_family(k), 1))
               for k in (10, 40, 300)}}
MS = (1, 7, 25, 400, 1600)
REL = 1e-14


def dense_rows(term, n_rows, n_cols, block=256):
    return np.concatenate([logsumexp(term(slice(j, j + block), slice(0, n_cols)), axis=1)
                           for j in range(0, n_rows, block)])


def dense_log_norms(table, m):
    log_w, u, phi, log_psi = table.nodes
    base = log_w + math.log(2.0 * math.pi) + log_psi - 2.0 * math.pi * m * phi
    ks = np.arange(m * table.d + 1)
    return dense_rows(lambda k, i: 2.0 * ks[k, None] * u[i] + base[i], len(ks), len(u))


def dense_log_rho(u, phi, m, log_norms):
    ks = np.arange(len(log_norms))
    c = 2.0 * math.pi * m * phi
    return dense_rows(lambda j, k: 2.0 * ks[k] * u[j, None] - c[j, None] - log_norms[k],
                      len(u), len(ks))


@pytest.fixture(scope="module", params=sorted(PROFILES))
def table(request):
    return build_potential(PROFILES[request.param]())


@pytest.mark.parametrize("m", MS)
def test_band_matches_dense_reference(table, m):
    # the same inputs go into both sums, so each comparison sees one band
    log_norms = log_monomial_norms(table, m)
    ref = dense_log_norms(table, m)
    assert np.all(np.abs(log_norms - ref) <= REL * np.maximum(1.0, np.abs(ref)))

    log_w, u, phi, log_psi = table.check_nodes
    ref_area = 2.0 * math.pi * np.sum(np.exp(log_w + log_psi + dense_log_rho(u, phi, m, log_norms)))
    assert abs(kernel_area_integral(table, m, log_norms) - ref_area) <= REL * ref_area

    prof = table.profile
    fld = rho_revolution(prof, m, table=table)  # the default grid, sorted in u
    want = np.exp(dense_log_rho(fld.u, table.phi(fld.u), m, log_norms))
    assert np.all(np.abs(fld.values - want) <= REL * want)
    assert 0.0 <= fld.tail_bound <= 1e-16

    radii = np.linspace(0.0, prof.length, 301)
    shuffled = np.random.default_rng(m).permutation(radii)
    by_r, mixed = (rho_revolution(prof, m, points=p, table=table) for p in (radii, shuffled))
    assert np.array_equal(mixed.r, shuffled)
    assert np.array_equal(mixed.values, by_r.values[np.searchsorted(radii, shuffled)])
    want = np.exp(dense_log_rho(mixed.u, table.phi(mixed.u), m, log_norms))
    assert np.all(np.abs(mixed.values - want) <= REL * want)


def recorded_sum(t):
    """The banded sum of the matrix t, with the columns each row was summed on."""
    cols = {}

    def term(rows, c):
        for j in range(*rows.indices(t.shape[0])):
            assert j not in cols, f"row {j} summed twice"
            cols[j] = range(*c.indices(t.shape[1]))
        return t[rows, c].copy()

    out, tail = kernels._banded_logsumexp(term, *t.shape)
    return out, tail, cols


@pytest.mark.parametrize("m", [100, 400])
def test_band_holds_every_term_above_the_cut(table, m):
    # each row's summed columns must contain every term within e^-CUT of its
    # largest, and the bound must cover what lies outside them
    log_norms = log_monomial_norms(table, m)
    log_w, u, phi, log_psi = table.nodes
    base = log_w + math.log(2.0 * math.pi) + log_psi - 2.0 * math.pi * m * phi
    ks = np.arange(len(log_norms))
    _, uc, phic, _ = table.check_nodes
    for t in (2.0 * ks[:, None] * u + base,
              2.0 * ks * uc[:, None] - 2.0 * math.pi * m * phic[:, None] - log_norms):
        out, tail, cols = recorded_sum(t)
        assert sorted(cols) == list(range(t.shape[0]))
        assert 0.0 < tail <= 1e-16
        for j, c in cols.items():
            above = np.flatnonzero(t[j] >= t[j].max() - kernels._CUT)
            assert c.start <= above[0] and above[-1] < c.stop, f"row {j}: band {c} misses {above}"
            left_out = np.r_[t[j, :c.start], t[j, c.stop:]]
            assert np.sum(np.exp(left_out - out[j])) <= tail * (1.0 + 1e-12)
        assert np.all(np.abs(out - logsumexp(t, axis=1)) <= REL * np.maximum(1.0, np.abs(out)))


def test_points_outside_the_profile_rejected():
    prof = round_sphere()
    for bad in ([-0.5], [prof.length + 3.0], [0.2, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="points must be radii"):
            rho_revolution(prof, 10, points=bad)
    fld = rho_revolution(prof, 10, points=[0.0, prof.length])
    assert np.allclose(fld.values, 11.0, rtol=1e-8)


# the child's own peak RSS: getrusage's ru_maxrss would also count the test
# process, whose high-water mark the child inherits through fork and exec
PEAK_RSS_MB = ("int(next(ln.split()[1] for ln in open('/proc/self/status') "
               "if ln.startswith('VmHWM'))) / 1024")


def test_round_sphere_m6400_in_bounded_memory():
    src = str(Path(bergman.__file__).resolve().parents[1])
    code = ("import time; from bergman import round_sphere, rho_revolution; "
            "t0 = time.perf_counter(); f = rho_revolution(round_sphere(), 6400); "
            "dt = time.perf_counter() - t0; "
            "print(f.sup / 6401 - 1, f.inf / 6401 - 1, f.integral - 6401, f.tail_bound, dt, "
            f"{PEAK_RSS_MB})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    sup, inf, resid, tail, seconds, rss_mb = map(float, proc.stdout.split())
    assert abs(sup) < 1e-8 and abs(inf) < 1e-8
    assert abs(resid) < 1e-6
    assert tail <= 1e-16
    assert rss_mb < 100.0, f"peak RSS {rss_mb:.0f} MB ({seconds:.2f} s)"
