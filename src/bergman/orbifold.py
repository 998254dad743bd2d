"""Bergman kernel of the flat model C^n/Z_q.

Two independent routes: the q-term closed-form character sum, and a truncated
sum over invariant monomials with a rigorous Gaussian tail bound.  The second
exists purely to check the first.
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
_BLOCK_TERMS = 1 << 16  # points x q terms per batched block, bounds the temporaries


def _check_point(w: CyclicWeights, z, batch: bool = False) -> np.ndarray:
    """z as a complex array of shape (n,), or also (N, n) when batch is set;
    NaN, inf and |z_l| > sqrt(max float / 4n), where pi |z|^2 may overflow, are refused."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (w.n,) or z.ndim not in ((1, 2) if batch else (1,)):
        raise ValueError(f"point must have length n={w.n}, got shape {z.shape}")
    if not np.abs(z).max(initial=0.0) <= math.sqrt(sys.float_info.max / (4.0 * w.n)):
        raise ValueError("point must be finite, as must pi |z|^2")
    return z


def rho_closed_detailed(w: CyclicWeights, z):
    """Closed-form kernel value and the accumulated imaginary residue.

    rho(z) = e^{-pi|z|^2} sum_{j=0}^{q-1} exp(pi sum_l |z_l|^2 e^{2 pi i j p_l / q_l}).

    z is one point of shape (n,), giving two floats, or N points of shape
    (N, n), giving two arrays of shape (N,); a batched row equals the
    single-point call bit for bit.  Terms j and q-j are complex conjugates;
    they are added pairwise so the imaginary parts cancel before accumulation.
    The residue reported is the magnitude of the imaginary part left by naive
    accumulation, relative terms included, and should sit at machine noise.
    """
    z = _check_point(w, z, batch=True)
    q, e = w.q, w.characters  # e: (q, n)
    rows = max(1, _BLOCK_TERMS // q)
    if z.ndim == 2 and len(z) > rows:
        value, resid = zip(*(rho_closed_detailed(w, z[i:i + rows])
                             for i in range(0, len(z), rows)))
        return np.concatenate(value), np.concatenate(resid)
    s = np.abs(z) ** 2
    # exponent_j = pi * sum_l s_l e^{i theta_l(j)} - pi |z|^2; an elementwise
    # sum rather than a matrix product keeps rows independent of the batch
    expo = np.pi * np.sum(s[..., None, :] * e, axis=-1) \
        - np.pi * np.sum(s, axis=-1)[..., None]
    terms = np.exp(expo)
    lo = terms[..., 1:(q + 1) // 2]   # j = 1 .. ceil(q/2)-1
    hi = terms[..., q - 1:q // 2:-1]  # their conjugates q-j
    value = terms[..., 0].real + 2.0 * np.sum(lo.real, axis=-1)
    resid = np.sum(np.abs(lo.imag + hi.imag), axis=-1)
    if q % 2 == 0:  # j = q/2 is its own conjugate
        value = value + terms[..., q // 2].real
        resid = resid + np.abs(terms[..., q // 2].imag)
    if z.ndim == 1:
        return float(value), float(resid)
    return value, resid


def rho_closed(w: CyclicWeights, z):
    """Closed-form Bergman kernel of C^n/Z_q at the orbit of z (m = 1).

    A float for one point of shape (n,), an array for points of shape (N, n)."""
    value, _ = rho_closed_detailed(w, z)
    return value


def admissible_indices(w: CyclicWeights, degree_cap: int) -> list[tuple[int, ...]]:
    """Multi-indices j with |j| <= cap and sum_l j_l p_l / q_l integral,
    in graded lexicographic order.

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
    j = j[np.argsort(j.sum(axis=1), kind="stable")]
    return list(map(tuple, j.tolist()))


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
    """Smallest cap in 1..2000 whose Gaussian tail bound q gammainc(cap+1,
    pi |z|^2) is at most tol.

    Raises if there is none, or if the admissible index count would exceed
    MAX_ORACLE_INDICES.
    """
    z = _check_point(w, z)
    lam = math.pi * float(np.sum(np.abs(z) ** 2))
    hit = np.flatnonzero(w.q * np.exp(_log_poisson_tails(lam, 2000)[1:]) <= tol)
    if not hit.size:
        raise ValueError("tail bound does not reach tolerance at a sane cap")
    cap = int(hit[0]) + 1
    count = len(admissible_indices(w, cap))
    if count > MAX_ORACLE_INDICES:
        raise ValueError(f"oracle would need {count} > {MAX_ORACLE_INDICES} indices")
    return cap


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
    idx = admissible_indices(w, degree_cap)
    if len(idx) > MAX_ORACLE_INDICES:
        raise ValueError(f"{len(idx)} indices exceed the {MAX_ORACLE_INDICES} cap")
    with np.errstate(divide="ignore"):
        log_pi_s = math.log(math.pi) + np.log(s)
    j = np.array(idx, dtype=np.int64).reshape(-1, w.n)
    lt = np.multiply(j, log_pi_s, out=np.zeros(j.shape), where=j > 0).sum(axis=1)
    live = np.isfinite(lt)  # z_l = 0 with j_l > 0: term vanishes
    logs = lt[live] - np.sum(log_factorials(degree_cap)[j[live]], axis=1)
    value = w.q * math.exp(logsumexp(logs) - lam) if logs.size else 0.0
    tail = w.q * math.exp(_log_poisson_tails(lam, degree_cap)[-1])
    return OracleResult(value=float(value), tail_bound=tail,
                        degree_cap=degree_cap, n_indices=len(idx))


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


def min_on_ray(w: CyclicWeights, direction, t_max: float, nodes: int = 512) -> tuple[float, float]:
    """Scan t -> rho(t*sqrt(r)) on (0, t_max] and refine the best node.

    Returns (t*, rho*).  The refinement is Brent's bounded search between the
    best node's neighbours, with |dt| tolerance 1e-8.
    """
    r = np.asarray(direction, dtype=float)
    if r.shape != (w.n,) or not np.all(np.isfinite(r)) or np.any(r < 0) or not np.any(r > 0):
        raise ValueError("direction must be finite, nonnegative, not all zero, length n")
    if not 0.0 < t_max < math.inf:  # also rejects NaN
        raise ValueError("t_max must be positive and finite")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    sq = np.sqrt(r)
    ts = np.linspace(t_max / nodes, t_max, nodes)
    vals = rho_closed(w, ts[:, None] * sq)
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, nodes - 1)]
    if lo == hi:
        return float(ts[i]), float(vals[i])
    t_best, v_best = _brent_min(lambda t: rho_closed(w, t * sq), float(lo), float(hi), 1e-8)
    if vals[i] < v_best:
        t_best, v_best = float(ts[i]), float(vals[i])
    return t_best, v_best
