"""Bergman kernel of the flat model C^n/Z_q.

Two independent routes: the q-term closed-form character sum, and a truncated
sum over invariant monomials with a rigorous Poisson tail bound
q P(N > cap), N ~ Poisson(pi |z|^2).  The second exists purely to check the
first.  The character sum is taken in real arithmetic over the half j <= q/2
of its conjugate pairs (j, q-j), with a rounding floor from the same rows.
On a ray z = t sqrt(r) its rows scale with t^2: ray minimization forms them once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import log_factorials, logsumexp
from .models import CyclicWeights

__all__ = [
    "rho_closed",
    "rho_closed_detailed",
    "rho_oracle",
    "admissible_indices",
    "degree_cap_for",
    "min_on_ray",
    "OracleResult",
]

MAX_ORACLE_INDICES = 10_000
MAX_ORACLE_CANDIDATES = 1 << 21  # keeps admissible_indices under about 150 MB
_BLOCK_TERMS = 1 << 16  # points x rows per batched block, bounds the temporaries


def _check_point(w: CyclicWeights, z, batch: bool = False) -> np.ndarray:
    """z as a complex array of shape (n,), or also (N, n) when batch is set;
    NaN, inf and |z_l| > sqrt(max float / 4n), where pi |z|^2 may overflow, are refused."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (w.n,) or z.ndim not in ((1, 2) if batch else (1,)):
        raise ValueError(f"point must have length n={w.n}, got shape {z.shape}")
    if not np.abs(z).max(initial=0.0) <= math.sqrt(sys.float_info.max / (4.0 * w.n)):
        raise ValueError("point must be finite, as must pi |z|^2")
    return z


def _rows(w: CyclicWeights, s: np.ndarray, k: int):
    """(N, k) arrays a_j = pi sum_l s_l cos theta_l(j) - pi sum_l s_l, b_j = pi sum_l
    s_l sin theta_l(j) for rows j < k at each row s = |z|^2 of s, each sum over l
    accumulated one coordinate at a time, which keeps rows independent of the batch."""
    e = w.characters  # (q, n), its cos and sin in .real and .imag
    re, im = s[:, :1] * e.real[:k, 0], s[:, :1] * e.imag[:k, 0]
    for l in range(1, w.n):
        re += s[:, l:l + 1] * e.real[:k, l]
        im += s[:, l:l + 1] * e.imag[:k, l]
    return np.pi * re - np.pi * np.sum(s, axis=1)[:, None], np.pi * im


def _fold(q: int, terms):
    """The sum over all q rows from the rows j <= q/2 of terms, on its last
    axis: row 0, twice each conjugate pair (j, q-j), the middle row j = q/2 once."""
    value = terms[..., 0] + 2.0 * np.sum(terms[..., 1:(q + 1) // 2], axis=-1)
    return value + terms[..., q // 2] if q % 2 == 0 else value


def _closed_form(w: CyclicWeights, z):
    """(rho, floor) from the rows j <= q/2, terms t_j = e^{a_j + i b_j}: rho is
    _fold of e^{a_j} cos b_j, floor = 2 eps (1 + pi |z|^2) times _fold of
    e^{a_j}, the sum of |t_j| over all q rows.  Points go in blocks of at
    most _BLOCK_TERMS rows."""
    z = _check_point(w, z, batch=True)
    s = np.abs(np.atleast_2d(z)) ** 2
    half = w.q // 2 + 1
    block = max(1, _BLOCK_TERMS // half)
    parts = []
    for i in range(0, len(s), block):
        a, b = _rows(w, s[i:i + block], half)
        mag = np.exp(a)
        scale = 2.0 * sys.float_info.epsilon * (1.0 + np.pi * np.sum(s[i:i + block], axis=1))
        parts.append((_fold(w.q, mag * np.cos(b)), scale * _fold(w.q, mag)))
    return (tuple(float(x[0]) for x in parts[0]) if z.ndim == 1
            else tuple(map(np.concatenate, zip(*parts))))


def rho_closed_detailed(w: CyclicWeights, z):
    """Closed-form kernel value and its rounding floor.

    rho(z) = e^{-pi|z|^2} sum_{j=0}^{q-1} exp(pi sum_l |z_l|^2 e^{2 pi i j p_l / q_l}).

    z is one point of shape (n,), giving two floats, or N points of shape
    (N, n), giving two arrays of shape (N,); a batched row equals the
    single-point call bit for bit, and the value equals rho_closed's.  The
    floor, 2 eps (1 + pi |z|^2) sum_j |t_j| over the q terms t_j, bounds the
    value's rounding error: the exponents and phases carry errors of about
    eps pi |z|^2 each, the products and the sum a few eps.  Against 40-digit
    sums on 201 seeded points, q <= 360, n <= 4, |z| <= 8, the error reaches
    0.42 of it."""
    return _closed_form(w, z)


def rho_closed(w: CyclicWeights, z):
    """Closed-form Bergman kernel of C^n/Z_q at the orbit of z (m = 1).

    A float for one point of shape (n,), an array for points of shape (N, n).
    Only the terms j <= q/2 are formed, and _fold adds them."""
    return _closed_form(w, z)[0]


def admissible_indices(w: CyclicWeights, degree_cap: int) -> np.ndarray:
    """Multi-indices j with |j| <= cap and sum_l j_l p_l / q_l integral, as the
    rows of a (count, n) int64 array in graded lexicographic order.

    All comb(cap + n, n) indices with |j| <= cap are built as one array, so
    more than MAX_ORACLE_CANDIDATES of them raise ValueError."""
    if degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    candidates = math.comb(degree_cap + w.n, w.n)
    if candidates > MAX_ORACLE_CANDIDATES:
        raise ValueError(f"degree cap {degree_cap} on C^{w.n} spans {candidates} > "
                         f"{MAX_ORACLE_CANDIDATES} candidate indices")
    q = w.q
    weights = np.array([p * (q // ql) for p, ql in w.pairs])
    j = np.zeros((1, 0), dtype=np.int64)
    for _ in range(w.n):  # append a column of every value that keeps |j| <= cap
        room = degree_cap + 1 - j.sum(axis=1)
        rows = np.repeat(np.arange(len(j)), room)
        j = np.column_stack((j[rows], np.arange(rows.size) - (np.cumsum(room) - room)[rows]))
    j = j[j @ weights % q == 0]  # lexicographic order so far
    return j[np.argsort(j.sum(axis=1), kind="stable")]


def _log_poisson_tails(lam: float, caps: int) -> np.ndarray:
    """log P(N > c), N ~ Poisson(lam), for c = 0..caps: the log of gammainc(c+1,
    lam), in one pass.  l_k = -lam + sum_{i<=k} log(lam/i) is summed as parts
    on a 2^-20 grid, which add exactly, plus small remainders; a tail is its
    first term's grid part plus the rest.  Terms run 2 lam + 64 past the caps,
    leaving out below 2^-64; for lam > caps + 1 a tail is 1 minus a head."""
    if lam == 0.0 or lam == math.inf:  # no tail, or all of it
        return np.full(caps + 1, 0.0 if lam else -math.inf)
    upper = lam <= caps + 1  # tails summed from the far end; else 1 minus the heads
    k = np.arange(1.0, caps + 1 + (64 + 2 * math.ceil(lam) if upper else 0))
    x = np.concatenate(([-lam], np.log(lam / k)))
    grid = np.round(x * 2.0 ** 20) / 2.0 ** 20
    H, L = np.cumsum(grid), np.cumsum(x - grid)
    l = H + L
    if not upper:
        return np.log1p(-np.exp(np.logaddexp.accumulate(l)))
    r = np.logaddexp.accumulate(l[::-1])[::-1]  # r_k = log sum_{i >= k} p_i
    c = slice(1, caps + 2)
    return H[c] + (L[c] + np.logaddexp(0.0, r[2:caps + 3] - l[c]))


def degree_cap_for(w: CyclicWeights, z, tol: float) -> int:
    """Smallest cap in 1..2000 whose Poisson tail bound q P(N > cap),
    N ~ Poisson(pi |z|^2), is at most tol; raises if there is none.  Whether
    rho_oracle can afford the cap's indices is its own check."""
    z = _check_point(w, z)
    lam = math.pi * float(np.sum(np.abs(z) ** 2))
    for caps in (64, 2000):  # most caps are below 64; the short range saves the long one
        hit = np.flatnonzero(w.q * np.exp(_log_poisson_tails(lam, caps)[1:]) <= tol)
        if hit.size:
            break
    else:
        raise ValueError("tail bound does not reach tolerance at a sane cap")
    return int(hit[0]) + 1


@dataclass(frozen=True)
class OracleResult:
    value: float
    tail_bound: float
    degree_cap: int
    n_indices: int


def rho_oracle(w: CyclicWeights, z, degree_cap: int) -> OracleResult:
    """Truncated invariant-monomial sum for the kernel, with tail bound.

    value = q e^{-pi|z|^2} sum_j pi^{|j|} |z^j|^2 / prod j_l!  over admissible
    multi-indices with |j| <= degree_cap.  Terms are evaluated in log space.
    """
    z = _check_point(w, z)
    s = np.abs(z) ** 2
    lam = math.pi * float(np.sum(s))
    j = admissible_indices(w, degree_cap)
    if len(j) > MAX_ORACLE_INDICES:
        raise ValueError(f"{len(j)} indices exceed the {MAX_ORACLE_INDICES} cap")
    with np.errstate(divide="ignore"):
        log_pi_s = math.log(math.pi) + np.log(s)
    lt = np.multiply(j, log_pi_s, out=np.zeros(j.shape), where=j > 0).sum(axis=1)
    live = np.isfinite(lt)  # z_l = 0 with j_l > 0: term vanishes
    logs = lt[live] - np.sum(log_factorials(degree_cap)[j[live]], axis=1)
    value = w.q * math.exp(logsumexp(logs) - lam) if logs.size else 0.0
    tail = w.q * math.exp(_log_poisson_tails(lam, degree_cap)[-1])
    return OracleResult(value=float(value), tail_bound=tail,
                        degree_cap=degree_cap, n_indices=len(j))


def _brent_min(f, a: float, b: float, xatol: float):
    """Brent's bounded minimization of f on [a, b] (Forsythe, Malcolm and
    Moler's fmin): a parabolic step through the three best points where it
    is trusted, a golden-section step otherwise.  Returns (x, f(x))."""
    c, sqrt_eps = 0.5 * (3.0 - math.sqrt(5.0)), math.sqrt(2.2e-16)
    v = w = x = a + c * (b - a)
    fv = fw = fx = f(x)
    d = e = 0.0
    for _ in range(499):  # evaluations after the first
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(x) + xatol / 3.0
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        e_prev, parabolic = e, False
        if abs(e) > tol1:
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q, e = (-p if q > 0.0 else p), abs(q), d
            parabolic = abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                d = tol1 if xm >= x else -tol1
        else:
            e = (a if x >= xm else b) - x
            d = c * e
        u = x + (d if abs(d) >= tol1 else tol1 if d >= 0.0 else -tol1)
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _ray(w: CyclicWeights, r: np.ndarray):
    """f(x) = rho(sqrt(x r)), x = t^2, on the ray z = t sqrt(r): _fold of e^{x a_j}
    cos(x b_j), the closed form's rows j <= q/2 at s = r formed once.  f takes a float,
    or a 1-D array of x >= 0 in blocks of at most _BLOCK_TERMS terms, less those 0 at a
    block's least x: each value the float's bit for bit, at x = 1 rho_closed's at |z|^2 = r."""
    a, b = (v[0] for v in _rows(w, r[None], w.q // 2 + 1))
    block = max(1, _BLOCK_TERMS // len(a))

    def f(x):
        if not (one := isinstance(x, float)) and x.ndim == 1:  # as columns, block by block
            return np.concatenate([f(x[i:i + block, None]) for i in range(0, len(x), block)])
        if one or math.exp((x_min := x.min()) * a.min()) != 0.0:  # no e^{x_min a_j} is 0
            return _fold(w.q, np.exp(x * a) * np.cos(x * b))
        terms, live = np.zeros((len(x), len(a))), np.exp(x_min * a) > 0  # 0 at x_min, 0 after
        terms[:, live] = np.exp(x * a[live]) * np.cos(x * b[live])
        return _fold(w.q, terms)
    return f


def min_on_ray(w: CyclicWeights, direction, t_max: float, nodes: int = 512) -> tuple[float, float]:
    """Scan t -> rho(t*sqrt(r)) on (0, t_max] and refine the best node.

    Returns (t*, rho*), rho* = rho_closed at t* sqrt(r).  The scan and the
    refinement, Brent's bounded search between the best node's neighbours
    with |dt| tolerance 1e-8, evaluate the ray's own character sum _ray.
    """
    r = np.asarray(direction, dtype=float)
    if r.shape != (w.n,) or not np.all(np.isfinite(r)) or np.any(r < 0) or not np.any(r > 0):
        raise ValueError("direction must be finite, nonnegative, not all zero, length n")
    if not 0.0 < t_max < math.inf:  # also rejects NaN
        raise ValueError("t_max must be positive and finite")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    f = _ray(w, r)
    ts = np.linspace(t_max / nodes, t_max, nodes)
    vals = f(ts * ts)
    i = int(np.argmin(vals))
    lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, nodes - 1)])
    t_best = float(ts[i])
    if lo < hi:
        t, v = _brent_min(lambda t: float(f(t * t)), lo, hi, 1e-8)
        t_best = t if v <= vals[i] else t_best
    return t_best, rho_closed(w, t_best * np.sqrt(r))
