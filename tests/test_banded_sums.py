"""The banded monomial sums of the revolution path against dense sums.

The reference forms every term of every row (in row blocks, to keep memory
small) and sums it with SciPy's logsumexp; it lives here only, so the
banded code in kernels.py has no dense twin to fall back on."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

import bergman
from bergman import kernels
from bergman.analysis import lp_deviation
from bergman.kernels import kernel_area_integral, log_monomial_norms, rho_at_u, rho_revolution
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
    order = np.searchsorted(radii, shuffled)
    assert np.array_equal(mixed.values, by_r.values[order])
    # the trapezoid weights are formed in sorted u and follow the points
    assert np.array_equal(mixed.weights, by_r.weights[order])
    assert lp_deviation(mixed, 1.0) == pytest.approx(lp_deviation(by_r, 1.0), rel=1e-14)
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


def close_to_scipy(got, want):
    """Within REL of SciPy's logsumexp, relative to max(1, |value|), and equal
    to it where it is not finite."""
    inf = ~np.isfinite(want)
    return (np.array_equal(got[inf], want[inf]) and
            np.all(np.abs(got[~inf] - want[~inf]) <= REL * np.maximum(1.0, np.abs(want[~inf]))))


def banded_matrix(y, b=0.0):
    """2 x_j y_i + b_i for 300 rows with x ascending: increasing differences for
    y ascending, terms up to e^800, so a sum that does not shift by the row
    maximum overflows."""
    return np.multiply.outer(np.linspace(0.0, 10.0, 300), 2.0 * y) + b


def test_block_sum_with_tied_maxima():
    t = np.array([[750.0, 750.0, 749.0, 700.0], [-800.0, -801.0, -800.0, -800.0],
                  [3.0, 3.0, 3.0, 3.0], [0.0, -1e-300, 0.0, -40.0]])
    block = t.copy()
    assert close_to_scipy(kernels._block_logsumexp(block), logsumexp(t, axis=1))
    # the block ends as e^{t - row max}, the terms an edge row's left-out bound reads
    assert np.allclose(block, np.exp(t - t.max(axis=1, keepdims=True)), rtol=1e-15, atol=0.0)
    # banded: every column of y appears twice, so each row's maximum is tied
    t = banded_matrix(np.repeat(np.linspace(0.0, 40.0, 200), 2))
    out, tail, cols = recorded_sum(t)
    assert sorted(cols) == list(range(300)) and 0.0 < tail <= 1e-16
    assert close_to_scipy(out, logsumexp(t, axis=1))


def test_block_sum_with_minus_inf_entries():
    inf = math.inf
    t = np.array([[-inf, 1.0, 1.0, -inf], [-inf] * 4, [inf, 1.0, -inf, 0.0],
                  [-inf, -760.0, -761.0, -inf], [800.0, -inf, 799.0, 798.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = logsumexp(t, axis=1)
    assert close_to_scipy(kernels._block_logsumexp(t.copy()), want)
    # banded: a column of -inf terms inside every band, and one at each edge
    b = np.zeros(700)
    b[[0, 350, 699]] = -inf
    t = banded_matrix(np.linspace(0.0, 40.0, 700), b)
    out, tail, cols = recorded_sum(t)
    assert sorted(cols) == list(range(300)) and 0.0 < tail <= 1e-16
    assert close_to_scipy(out, logsumexp(t, axis=1))


def test_point_blocks_column_major(monkeypatch):
    # the kernel sum hands the block sum column-major blocks (the points
    # contiguous), each summed to SciPy's value
    blocks, block_sum = [], kernels._block_logsumexp

    def checked(t):
        blocks.append(t.shape)
        assert t.shape[0] == 1 or t.flags.f_contiguous
        want = logsumexp(t, axis=1)
        got = block_sum(t)
        assert close_to_scipy(got, want)
        return got
    table = build_potential(PROFILES["cone10"]())
    log_norms = log_monomial_norms(table, 400)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_block_logsumexp", checked)
        kernel_area_integral(table, 400, log_norms)
    assert sum(rows > 1 and n > 1 for rows, n in blocks) > 1
    # a column-major term through the banded sum equals the row-major one
    t = banded_matrix(np.linspace(0.0, 40.0, 700))
    out_f, tail_f = kernels._banded_logsumexp(lambda r, c: np.array(t[r, c], order="F"), *t.shape)
    out_c, tail_c = kernels._banded_logsumexp(lambda r, c: np.array(t[r, c], order="C"), *t.shape)
    assert tail_f == tail_c and close_to_scipy(out_f, logsumexp(t, axis=1))
    assert np.all(np.abs(out_f - out_c) <= REL * np.abs(out_c))


VECTOR_EXP_BOUND = -707.7  # below about this, numpy's exp leaves its vector loop


class ExpRecorder:
    """numpy for kernels.py, with np.exp recording the least argument of each call."""

    def __init__(self):
        self.least = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.least.append(float(np.min(x)))
        return np.exp(x, *args, **kwargs)


def test_no_exp_argument_below_the_floor(monkeypatch):
    # every np.exp inside a banded sum of the sweep's cells (k 10, 40 x m 25,
    # 100, 400) sees arguments at or above the floor, and some at it
    assert VECTOR_EXP_BOUND < kernels._EXP_FLOOR <= -700.0
    exp, least, block_sum = ExpRecorder(), [], kernels._block_logsumexp

    def recorded(t):
        n = len(exp.least)
        out = block_sum(t)
        least.extend(exp.least[n:])
        return out
    monkeypatch.setattr(kernels, "np", exp)
    monkeypatch.setattr(kernels, "_block_logsumexp", recorded)
    bergman.cone_sweep([10, 40], [25, 100, 400])
    assert len(least) > 100 and min(least) == kernels._EXP_FLOOR


def four_pass_block_sum(t):
    """The block sum without a floor: max, then subtract, exp and sum in place."""
    t_max = t.max(axis=1)
    with np.errstate(invalid="ignore"):
        np.exp(np.subtract(t, t_max[:, None], out=t), out=t)
        return np.where(np.isfinite(t_max), np.log(t.sum(axis=1)) + t_max, t_max)


def test_floor_moves_no_bit_of_a_block_sum():
    # hostile blocks: 400 rows of 1 to 2000 terms spread down to 1e4 below
    # their peak, so most lie under the floor; then -inf entries, whole
    # +-inf and -inf rows and NaN, which take the branch for infinite maxima
    rng = np.random.default_rng(29)
    inf = math.inf
    blocks = []
    for n in (1, 7, 64, 2000):
        t = rng.uniform(-50.0, 50.0, (400, 1)) - rng.uniform(0.0, 1.0, (400, n)) ** 3 * 1e4
        assert n == 1 or np.mean(t - t.max(axis=1, keepdims=True) < -708.0) > 0.5
        blocks.append(t)
        t = t.copy()
        t[rng.random(t.shape) < 0.2] = -inf
        t[:, 0] = np.maximum(t[:, 0], 0.0)  # keep every maximum finite
        blocks.append(t)
        t = t.copy()
        t[5], t[9], t[17, 0], t[33] = inf, -inf, math.nan, -inf
        t[33, -1] = inf
        blocks.append(t)
    for t in blocks:
        for order in "CF":
            want = four_pass_block_sum(np.array(t, order=order))
            got = kernels._block_logsumexp(np.array(t, order=order))
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 400])  # summed whole, and banded
@pytest.mark.parametrize("field", [1, 2], ids=["u", "phi"])
def test_nan_in_rule_does_not_converge(m, field):
    table = build_potential(round_sphere())
    nodes = [a.copy() for a in table.nodes]
    nodes[field][len(nodes[field]) // 2] = math.nan
    with pytest.raises(ArithmeticError, match="did not converge"):
        log_monomial_norms(SimpleNamespace(nodes=tuple(nodes), d=table.d), m)


def test_points_outside_the_profile_rejected():
    prof = round_sphere()
    for bad in ([-0.5], [prof.length + 3.0], [0.2, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="points must be radii"):
            rho_revolution(prof, 10, points=bad)
    fld = rho_revolution(prof, 10, points=[0.0, prof.length])
    assert np.allclose(fld.values, 11.0, rtol=1e-8)


def test_rho_at_u_outside_the_window_rejected():
    table = build_potential(round_sphere())
    assert np.allclose(rho_at_u(table, 10, [table.u_min, table.u_max]), 11.0, rtol=1e-8)
    for bad in (table.u_max + 5.0, 100.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="u must lie in"):
            rho_at_u(table, 10, bad)


def test_repeated_radius_gets_a_finite_weight():
    fld = rho_revolution(round_sphere(), 10, points=[0.3, 0.1, 0.3])
    assert np.all(np.isfinite(fld.weights)) and np.all(fld.weights >= 0.0)
    assert lp_deviation(fld, 1.0) == pytest.approx(0.1, rel=1e-8)  # rho_10 = 11


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
