"""Bergman kernels of revolution metrics on CP^1 and the exact CP^n values.

Rotation invariance decouples the Fourier modes, so the kernel is a diagonal
sum over monomial sections z^k with weighted L^2 norms N_k.  All per-term
arithmetic is done in log space; e^{2ku} overflows long before m reaches the
interesting range otherwise.

Both diagonal sums are local (peak sections): the norm N_k lives on the
nodes near the radius where 2ku - 2 pi m phi peaks, and rho_m at a point on
the k near its moment-map value.  One banded evaluator, _banded_logsumexp,
sums either kind in blocks of rows with temporaries of about _BUDGET
entries, each block only over the columns within e^-_CUT of its edge rows'
largest terms.  It bounds the mass it leaves out from terms it has
computed, refuses a bound above _TAIL_LIMIT and reports the rest; a
KernelField carries the largest as ``tail_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .models import RevolutionProfile
from .potential import PotentialTable, build_potential

__all__ = [
    "KernelField",
    "monomial_norms",
    "log_monomial_norms",
    "rho_revolution",
    "rho_at_u",
    "kernel_area_integral",
    "peak_section_tail",
    "cpn_fs_exact",
    "cpn_fs_oracle",
]

_BUDGET = 1 << 16  # entries per temporary of a banded sum
_BLOCK_COST = 1 << 12  # a block's fixed cost (edge-row work, calls) in entries
_CUT = 45.0  # a band holds the terms within e^-_CUT of its edge rows' largest
_TAIL_LIMIT = 1e-16  # largest bound on the relative mass a band may leave out


def logsumexp(a, axis=None):
    """log sum exp(a) over an axis (all of a by default), bit for bit the value
    of scipy.special.logsumexp: every entry equal to the maximum is taken out
    of the sum and counted, log1p(s/m) + log(m) + max.  Where that is not
    finite (no finite maximum) the value is log sum exp(a) itself."""
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = np.exp(a - a_max)
        np.copyto(e, 0.0, where=top)
        m = np.sum(top, axis=axis, keepdims=True, dtype=float)
        out = np.log1p(np.sum(e, axis=axis, keepdims=True) / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _banded_logsumexp(term, n_rows: int, n_cols: int):
    """log sum_i e^{t_ji} for every row j of an n_rows x n_cols exponent
    matrix t, and a bound on the mass left out relative to the kept sum.

    ``term(rows, cols)`` returns the block of t on two slices.  t must have
    increasing differences, t_ji - t_ji' nondecreasing in j for i > i'; any
    2 x_j y_i + a_j + b_i with x and y sorted ascending has them.  A matrix of
    at most _BUDGET entries is summed whole.  Otherwise the edge rows j0 < j1
    of each block are summed in full, and their bands (the columns within
    e^-_CUT of the row's largest term, at p0 and p1) span the block's band
    [lo, hi]; the rows between are summed on it alone, at most _BUDGET
    entries at a time.  For j0 <= j <= j1, increasing differences give
    t_ji - t_jp0 <= t_j0i - t_j0p0 for i < lo and t_ji - t_jp1 <= t_j1i - t_j1p1
    for i > hi, so row j leaves out at most
    sum_{i<lo} e^{t_j0i - t_j0p0} + sum_{i>hi} e^{t_j1i - t_j1p1} of its kept
    sum.  The largest such bound is returned; above _TAIL_LIMIT the sum is
    refused with ArithmeticError.

    A block of s rows costs about s (w + s v) + n_cols + _BLOCK_COST entries,
    w the band width and v the columns its peak moves per row, so the next
    block takes s = sqrt((n_cols + _BLOCK_COST) / v) rows, v measured on the
    last block, and at most twice as many rows as the last."""
    if n_rows * n_cols <= _BUDGET:
        return logsumexp(term(slice(None), slice(None)), axis=1), 0.0
    out = np.empty(n_rows)

    def edge(j):  # row j in full: its exponents, the peak and the band
        e = term(slice(j, j + 1), slice(None))[0]
        out[j] = logsumexp(e)
        p = int(np.argmax(e))
        band = np.flatnonzero(~(e < e[p] - _CUT))  # NaN keeps every column
        return e, p, band[0], band[-1] + 1

    j0, (e0, p0, lo0, hi0) = 0, edge(0)
    step, tail = max(1, _BUDGET // n_cols), 0.0
    while j0 < n_rows - 1:
        j1 = min(n_rows - 1, j0 + step)
        e1, p1, lo1, hi1 = edge(j1)
        lo, hi = min(lo0, lo1), max(hi0, hi1)
        rows = max(1, _BUDGET // (hi - lo))
        for j in range(j0 + 1, j1, rows):
            block = slice(j, min(j + rows, j1))
            out[block] = logsumexp(term(block, slice(lo, hi)), axis=1)
        left_out = np.sum(np.exp(e0[:lo] - e0[p0])) + np.sum(np.exp(e1[hi:] - e1[p1]))
        tail = max(tail, float(left_out))
        fit = math.isqrt((n_cols + _BLOCK_COST) * (j1 - j0) // max(p1 - p0, 1))
        step = max(1, min(2 * step, fit))
        j0, e0, p0, lo0, hi0 = j1, e1, p1, lo1, hi1
    if tail > _TAIL_LIMIT:
        raise ArithmeticError(f"banded sum left out a relative mass of up to {tail:.3g}")
    return out, tail


def _log_norms_on(rule, m: int, ks: np.ndarray):
    """log of 2 pi int e^{2ku - 2 pi m phi} psi dr on a rule (log weights,
    u, phi, log psi) sorted in u, for every k in ks (sorted), and the bound
    on the mass the band left out.

    The monomial integrands are smooth in r, so one fixed rule converges
    exponentially for every k at once."""
    log_w, u, phi, log_psi = rule
    if np.any(u[1:] < u[:-1]):
        raise ArithmeticError("rule nodes are not sorted in u")
    base = log_w + math.log(2.0 * math.pi) + log_psi - 2.0 * math.pi * m * phi
    return _banded_logsumexp(lambda k, i: 2.0 * ks[k, None] * u[i] + base[i], len(ks), len(u))


def log_monomial_norms(table: PotentialTable, m: int,
                       tail_bounds: list | None = None) -> np.ndarray:
    """log N_k for k = 0..md, N_k = 2 pi int e^{2ku - 2 pi m phi} psi dr.

    The bound on the mass the band left out of any N_k, relative to it, is
    appended to ``tail_bounds`` when one is given."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out, tail = _log_norms_on(table.nodes, m, np.arange(m * table.d + 1))
    if tail_bounds is not None:
        tail_bounds.append(tail)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ArithmeticError(f"monomial norm k={bad[0]} did not converge")
    return out


def monomial_norms(table: PotentialTable, m: int) -> np.ndarray:
    return np.exp(log_monomial_norms(table, m))


def _log_rho(u, phi, m: int, log_norms: np.ndarray):
    """log rho_m = log sum_k e^{2ku - 2 pi m phi} / N_k at points (u, phi),
    in the order given, and the bound on the mass the band left out."""
    order = np.argsort(u, kind="stable")  # the band needs the points sorted in u
    u, c = u[order], 2.0 * math.pi * m * phi[order]
    ks = np.arange(len(log_norms))
    log_rho, tail = _banded_logsumexp(
        lambda j, k: 2.0 * ks[k] * u[j, None] - c[j, None] - log_norms[k], len(u), len(ks))
    out = np.empty_like(log_rho)
    out[order] = log_rho
    return out, tail


def rho_at_u(table: PotentialTable, m: int, u, log_norms: np.ndarray | None = None):
    """Kernel rho_m(u) = sum_k e^{2ku - 2 pi m phi(u)} / N_k, in log space."""
    if log_norms is None:
        log_norms = log_monomial_norms(table, m)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.exp(_log_rho(u, np.asarray(table.phi(u), dtype=float), m, log_norms)[0])


@dataclass(frozen=True)
class KernelField:
    """Sampled Bergman kernel with area weights and summary statistics."""

    m: int
    r: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # area elements per sample
    inf: float
    sup: float
    argmin_r: float
    integral: float  # int rho dA on an independent rule
    tail_bound: float = 0.0  # largest bound on the relative mass a band left out


def kernel_area_integral(table: PotentialTable, m: int, log_norms: np.ndarray,
                         tail_bounds: list | None = None) -> float:
    """int rho_m dA = 2 pi int rho psi dr on the table's half-width rule.

    On the nodes of the norm rule the identity int rho dA = md+1 would hold
    by construction; the independent rule keeps it a check.  The kernel sum
    at the nodes is banded, so its temporaries stay small at large m; the
    bound on the mass its band left out, relative to rho, is appended to
    ``tail_bounds`` when one is given."""
    log_w, u, phi, log_psi = table.check_nodes
    log_rho, tail = _log_rho(u, phi, m, log_norms)
    if tail_bounds is not None:
        tail_bounds.append(tail)
    return float(2.0 * math.pi * np.sum(np.exp(log_w + log_psi + log_rho)))


def rho_revolution(profile: RevolutionProfile, m: int, points=None,
                   table: PotentialTable | None = None, n_samples: int = 512) -> KernelField:
    """Bergman kernel field of a revolution profile at tensor power m.

    ``points`` may be a list of radii in [0, L], in any order; by default the
    field is sampled on a uniform conformal grid (dense near both poles in
    r).  ``tail_bound`` is the largest bound on the mass a band left out of
    a norm, a value or the area integral's kernel, relative to the sum.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if points is not None:
        points = np.asarray(points, dtype=float)
        if not np.all((points >= 0.0) & (points <= profile.length)):  # NaN fails too
            raise ValueError(f"points must be radii in [0, {profile.length!r}]")
    if table is None:
        table = build_potential(profile)
    tails = []
    log_norms = log_monomial_norms(table, m, tails)
    if points is None:
        u = np.linspace(table.u_min, table.u_max, n_samples)
    else:
        u = np.asarray(table.u_of_r(points))
    r, phi, psi, _ = table.locate(u)  # one u -> r inversion for r, phi and lambda
    if points is not None:
        r = points
    log_vals, tail = _log_rho(u, phi, m, log_norms)
    vals = np.exp(log_vals)
    tails.append(tail)
    # trapezoid area weights in u: dA = 2 pi lambda du, lambda = psi^2
    if len(u) > 1 and np.all(np.diff(u) > 0):
        du = np.gradient(u)
        weights = 2.0 * math.pi * psi ** 2 * du
    else:
        weights = np.zeros_like(u)
    i_min = int(np.argmin(vals))
    integral = kernel_area_integral(table, m, log_norms, tails)
    return KernelField(m=m, r=r, u=u, values=vals, weights=weights,
                       inf=float(np.min(vals)), sup=float(np.max(vals)),
                       argmin_r=float(r[i_min]), integral=integral, tail_bound=max(tails))


def peak_section_tail(profile: RevolutionProfile, m: int, center_r: float,
                      radius: float, table: PotentialTable | None = None):
    """Peak section at geodesic radius center_r and its L^2 mass outside the
    band of meridian distance > radius from the centre.

    Returns (coefficients, tail_mass, rho_at_center).  In the diagonal case
    the peak section's coefficient on z^k is proportional to e^{k u0}/N_k;
    for a centre at a pole only the extreme monomial survives.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if table is None:
        table = build_potential(profile)
    log_norms = log_monomial_norms(table, m)
    ks = np.arange(len(log_norms))
    u0 = table.u_of_r(center_r)
    # log |c_k|^2 before normalization: c_k = e^{k u0} / N_k (common frame
    # factors drop out of the mass ratio)
    log_c2 = 2.0 * ks * u0 - 2.0 * log_norms
    log_mass_k = log_c2 + log_norms  # |c_k|^2 N_k
    log_total = logsumexp(log_mass_k)
    rho0 = float(rho_at_u(table, m, u0, log_norms)[0])

    lo_r = max(center_r - radius, 0.0)
    hi_r = min(center_r + radius, profile.length)
    bands = [_log_norms_on(table.band(a, b), m, ks)[0]
             for a, b in ((0.0, lo_r), (hi_r, profile.length)) if a < b]
    tail = 0.0
    if bands:
        log_out = logsumexp(np.array(bands), axis=0)
        tail = float(np.exp(logsumexp(log_c2 + log_out) - log_total))
    coeffs = np.exp(0.5 * (log_c2 - log_total))
    return coeffs, min(tail, 1.0), rho0


def cpn_fs_exact(n: int, m: int) -> int:
    """Constant kernel value prod_{i=1..n} (m+i) on CP^n with the degree-1
    Fubini-Study polarization and measure omega^n/n!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for i in range(1, n + 1):
        out *= m + i
    return out


def cpn_fs_oracle(n: int, m: int) -> Fraction:
    """Independent exact value from monomial norms.

    N_alpha = alpha! (m-|alpha|)! / (m+n)! (Dirichlet integral in the affine
    chart); at the origin only alpha = 0 contributes, so rho(0) = 1/N_0.  The
    dimension count sum_alpha 1 over the total volume 1/n! must agree with the
    same number, and both are returned as one exact rational after the
    consistency check.
    """
    N0 = Fraction(math.factorial(m), math.factorial(m + n))
    rho_origin = 1 / N0
    dim = math.comb(m + n, n)
    rho_homog = Fraction(dim * math.factorial(n), 1)
    if rho_origin != rho_homog:
        raise AssertionError("CP^n oracle internal inconsistency")
    return rho_origin
