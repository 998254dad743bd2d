"""Bergman kernel of the flat model C^n/Z_q.

Two independent routes: the q-term closed-form character sum, and a truncated
sum over invariant monomials with a rigorous Gaussian tail bound.  The second
exists purely to check the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import logsumexp
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
    """z as a finite complex array of shape (n,), or also (N, n) when batch
    is set."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (w.n,) or z.ndim not in ((1, 2) if batch else (1,)):
        raise ValueError(f"point must have length n={w.n}, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("point must be finite")
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
    q = w.q
    rows = max(1, _BLOCK_TERMS // q)
    if z.ndim == 2 and len(z) > rows:
        value, resid = zip(*(rho_closed_detailed(w, z[i:i + rows])
                             for i in range(0, len(z), rows)))
        return np.concatenate(value), np.concatenate(resid)
    s = np.abs(z) ** 2
    e = np.exp(1j * w.phases(np.arange(q)))  # (q, n)
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


def degree_cap_for(w: CyclicWeights, z, tol: float) -> int:
    """Smallest cap whose Gaussian tail bound is below tol.

    Raises if the admissible index count would exceed MAX_ORACLE_INDICES.
    """
    from scipy.special import gammainc

    z = _check_point(w, z)
    lam = math.pi * float(np.sum(np.abs(z) ** 2))
    cap = 1
    while w.q * gammainc(cap + 1, lam) > tol:
        cap += 1
        if cap > 2000:
            raise ValueError("tail bound does not reach tolerance at a sane cap")
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
    from scipy.special import gammainc, gammaln

    z = _check_point(w, z)
    s = np.abs(z) ** 2
    lam = math.pi * float(np.sum(s))
    idx = admissible_indices(w, degree_cap)
    if len(idx) > MAX_ORACLE_INDICES:
        raise ValueError(f"{len(idx)} indices exceed the {MAX_ORACLE_INDICES} cap")
    with np.errstate(divide="ignore"):
        log_s = np.where(s > 0, np.log(np.maximum(s, 1e-300)), -np.inf)
    j = np.array(idx, dtype=float).reshape(-1, w.n)
    with np.errstate(invalid="ignore"):
        lt = np.sum(np.where(j > 0, j * (math.log(math.pi) + log_s), 0.0), axis=1)
    live = np.isfinite(lt)  # z_l = 0 with j_l > 0: term vanishes
    logs = lt[live] - np.sum(gammaln(j[live] + 1.0), axis=1)
    value = w.q * math.exp(logsumexp(logs) - lam) if logs.size else 0.0
    tail = w.q * float(gammainc(degree_cap + 1, lam)) if lam > 0 else 0.0
    return OracleResult(value=float(value), tail_bound=tail,
                        degree_cap=degree_cap, n_indices=len(idx))


def min_on_ray(w: CyclicWeights, direction, t_max: float, nodes: int = 512) -> tuple[float, float]:
    """Scan t -> rho(t*sqrt(r)) on (0, t_max] and refine the best node.

    Returns (t*, rho*).  The refinement is a bounded golden-section search
    with |dt| tolerance 1e-8.
    """
    from scipy.optimize import minimize_scalar

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
    res = minimize_scalar(lambda t: rho_closed(w, t * sq), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-8})
    t_best, v_best = float(res.x), float(res.fun)
    if vals[i] < v_best:
        t_best, v_best = float(ts[i]), float(vals[i])
    return t_best, v_best
