"""Bergman kernels on CP^1 through Gram matrices of monomials.

The base metric is degree-1 Fubini-Study normalized to area 1, whose Gram
matrix is diagonal with Beta-function entries.  A perturbation of the
potential (supported in the unit disc of the affine chart) adds a correction
integral on a polar grid, its integrand formed on the first octant's angles
for both signs of phi and gathered once into angle order.  The Gram matrix
and the kernel's quadratic form are both taken in the one basis
e_k = z^k / sqrt(N_k^FS), with one Cholesky factor per model.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import _EXP_FLOOR, KernelField, log_factorials
from .models import PerturbedPotential

__all__ = [
    "GramModel",
    "fs_log_norms",
    "gram_matrix",
    "rho_gram",
    "rho_gram_field",
    "perturbed_area_density",
    "perturbed_scalar_curvature",
]


@dataclass(frozen=True)
class GramModel:
    """Monomial basis z^0..z^m on CP^1 with an optional potential perturbation.

    The weight is the FS one, (1+|z|^2)^{-m} e^{m phi} d mu, with the measure
    d mu the perturbed area form; quadrature for the correction runs on an
    n_r x n_theta polar tensor grid over the perturbation's support, its
    angles and fields taken on the first octant: n_theta is a multiple of 8
    and, with a perturbation, above m, the highest harmonic the grid must hold."""

    m: int
    pert: PerturbedPotential | None = None
    n_r: int = 160
    n_theta: int = 512

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n_r < 8 or self.n_theta < 8 or self.n_theta % 8:
            raise ValueError("quadrature grid too small, or n_theta not a multiple of 8")
        if self.pert is not None and self.m >= self.n_theta:
            raise ValueError(f"m = {self.m} needs more than n_theta = {self.n_theta} angles")


def fs_log_norms(m: int) -> np.ndarray:
    """log of the FS monomial norms i!(m-i)!/(m+1)! (area-1 normalization)."""
    log_fact = log_factorials(m + 1)
    return log_fact[:m + 1] + log_fact[m::-1] - log_fact[m + 1]


def _phi_density(pert: PerturbedPotential | None, x, y, rho, sign=1.0):
    """phi and the density D of the area form D dx dy at x + iy with
    rho = |x + iy|, broadcast: the FS base minus Laplacian(phi)/(4 pi), phi
    and Laplacian(phi) taken times sign.

    The curvature-form convention ties the metric to the potential as
    omega = omega_FS - (i/2 pi) d dbar phi."""
    base = 1.0 / (math.pi * (1.0 + (x * x + y * y)) ** 2)
    phi, lap = (np.zeros_like(base),) * 2 if pert is None else pert.fields(x, y, rho)
    return phi * sign, base - lap * sign / (4.0 * math.pi)


def perturbed_area_density(pert: PerturbedPotential | None, x, y):
    """Density D of the area form D dx dy at the points x + iy."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return _phi_density(pert, x, y, np.hypot(x, y))[1]


def perturbed_scalar_curvature(pert: PerturbedPotential | None, x: float, y: float) -> float:
    """S = K/(2 pi) with Gauss curvature K = -(1/2D) Laplacian(log D).

    Central second differences of log D with step 1e-4; the density itself is
    analytic.  Calibrated so the unperturbed sphere returns S = 2."""
    h = 1e-4
    def logD(xx, yy):
        return math.log(float(perturbed_area_density(pert, xx, yy)))

    lap = (logD(x + h, y) + logD(x - h, y) + logD(x, y + h) + logD(x, y - h)
           - 4.0 * logD(x, y)) / (h * h)
    D = float(perturbed_area_density(pert, x, y))
    K = -lap / (2.0 * D)
    return K / (2.0 * math.pi)


# (nodes, weights) on [-1, 1]; every caller shares them and none writes to them
_gauss = functools.lru_cache(np.polynomial.legendre.leggauss)


def _panels(edges, counts):
    """Composite Gauss-Legendre nodes and weights, counts[i] nodes on the
    panel from edges[i] to edges[i+1]; the edges may run either way."""
    h = 0.5 * np.diff(edges)
    x = np.concatenate([e + hi * (1.0 + _gauss(n)[0]) for e, hi, n in zip(edges, h, counts)])
    return x, np.concatenate([abs(hi) * _gauss(n)[1] for hi, n in zip(h, counts)])


def _radial_rule(n_r: int):
    """Nodes rho and weights (Jacobian rho included) of the correction's rule
    on [0, 1]: n_r nodes on two panels that meet at the cutoff's seam 1/2."""
    rho, w = _panels([0.0, 0.5, 1.0], [n_r // 2, n_r - n_r // 2])
    return rho, w * rho


def _octant(n: int):
    """cos, sin of 2 pi j/n for j <= n/8; for all j < n: octant column, swap, signs."""
    j = np.arange(n)
    sy, j = np.where(j > n // 2, -1.0, 1.0), np.minimum(j, n - j)
    sx, j = np.where(j > n // 4, -1.0, 1.0), np.minimum(j, n // 2 - j)
    theta = 2.0 * math.pi * np.arange(n // 8 + 1) / n
    return np.cos(theta), np.sin(theta), np.minimum(j, n // 4 - j), j > n // 8, sx, sy


def _octant_fields(pert: PerturbedPotential | None, rho: np.ndarray, n_theta: int):
    """phi and D on the n/8 + 1 octant columns at radii rho, phi and
    Laplacian(phi) times +1, then -1: (len(rho), 2(n/8 + 1)) arrays, cutoff
    taken once per radius.  Column idx[j] holds angle 2 pi j/n of the whole
    grid, cos and sin reflected from the octant: phi and Laplacian(phi) are
    odd in x and in y and even under x <-> y, the base even under all three."""
    c, s, o, _, sx, sy = _octant(n_theta)
    col = rho[:, None, None]
    phi, D = _phi_density(pert, col * c, col * s, col, np.array([[1.0], [-1.0]]))
    idx = o + (n_theta // 8 + 1) * (sx * sy < 0)
    return phi.reshape(len(rho), -1), D.reshape(len(rho), -1), idx


def _correction_matrix(model: GramModel) -> np.ndarray:
    """C_ij = int z^i conj(z)^j (1+s)^{-m} [e^{m phi} D - D_0] dx dy over the
    unit disc (basis z^k), on a polar tensor grid with FFT over the angle.
    D, e^{m phi} and the integrand are formed on the octant's columns for both
    signs, and the integrand gathered once into the FFT's angle order."""
    m = model.m
    rho, wr = _radial_rule(model.n_r)
    nt = model.n_theta
    phi, D, idx = _octant_fields(model.pert, rho, nt)  # idx takes every column
    if D.min() <= 0.0:  # no metric; a NaN passes on to _finite, a failed computation
        raise ValueError(f"area density not positive on the grid (minimum {D.min():.3e})")
    s = (rho * rho)[:, None]
    W = ((1.0 + s) ** (-m) * (np.exp(m * phi) * D - 1.0 / (math.pi * (1.0 + s) ** 2)))[:, idx]
    # angular transform: A[r, d] = int W e^{-i d theta} d theta; W is real, so
    # column d > nt/2 is the conjugate of column nt - d
    A = np.fft.rfft(W, axis=1) * (2.0 * math.pi / nt)
    if m > nt // 2:
        A = np.hstack((A, A[:, nt // 2 - 1:0:-1].conj()))
    # z^i conj(z)^j carries rho^(i+j) e^{-i (j-i) theta}: C_ij = M[i+j, j-i];
    # P = wr rho^k is an exact 0 below e^_EXP_FLOOR, so it holds no subnormal
    k = np.arange(2 * m + 1)
    P = np.power(rho[:, None], k, out=np.zeros((len(rho), k.size)),
                 where=k < ((_EXP_FLOOR - np.log(wr)) / np.log(rho))[:, None])
    P *= wr[:, None]
    M = P.T @ A[:, :m + 1]
    i, j = np.indices((m + 1, m + 1))
    C = M[i + j, np.abs(j - i)]
    return np.where(j > i, C, C.conj())


def _finite(a, what: str):
    """a itself; a NaN or an overflow is a failed computation, not bad input."""
    if not np.isfinite(a).all():
        raise ArithmeticError(f"{what} is not finite")
    return a


def gram_matrix(model: GramModel) -> np.ndarray:
    """Hermitian Gram matrix of e_k = z^k / sqrt(N_k^FS), k = 0..m, in the
    model's weighted L^2 product: the identity plus the correction C_ij s_i s_j,
    s_k = N_k^FS^{-1/2}; exactly the identity without perturbation."""
    G = np.eye(model.m + 1, dtype=complex)
    if model.pert is not None:
        s = np.exp(-0.5 * fs_log_norms(model.m))
        G = G + np.outer(s, s) * _correction_matrix(model)  # s_i s_j is s_j s_i: exactly Hermitian
    return _finite(G, "Gram matrix")


def _inverse_factor(G: np.ndarray) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of G, which must exist."""
    try:
        return np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as e:  # a ValueError, which would read as bad input
        raise ArithmeticError("Gram matrix not positive definite (smallest eigenvalue "
                              f"{np.linalg.eigvalsh(G)[0]:.3e})") from e


def _log_frame(m: int, r: np.ndarray) -> np.ndarray:
    """log |e_k(z)| (1+|z|^2)^{-m/2} at |z| = r, shape (len(r), m+1)."""
    k = np.arange(m + 1)
    with np.errstate(divide="ignore"):  # at r = 0, k log r is -inf for k > 0 and 0 for k = 0
        log_r = np.log(r)[:, None]
    k_log_r = np.multiply(k, log_r, out=np.zeros((len(r), m + 1)), where=k > 0)
    log_weight = fs_log_norms(m) + m * np.log1p(r * r)[:, None]
    return k_log_r - 0.5 * log_weight


def _check_points(zs) -> None:
    """Refuse a point not finite or with |z| > sqrt(max float), where 1 + |z|^2 overflows."""
    if not np.abs(zs).max(initial=0.0) <= math.sqrt(sys.float_info.max):
        raise ValueError("point must be finite, with |z| at most sqrt(max float)")


def rho_gram(G: np.ndarray, model: GramModel, z):
    """Bergman kernel v* G^{-1} v (1+|z|^2)^{-m} e^{m phi(z)}, v = (e_k(z)) and
    G = gram_matrix(model), at affine-chart points: |L^{-1} v|^2 e^{m phi}, L the
    Cholesky factor of G, the weight's root folded into v.  One point gives a float,
    an array of points an array of the same shape; |z| > sqrt(max float) is refused."""
    m = model.m
    zs = np.asarray(z, dtype=complex).ravel()
    _check_points(zs)
    V = np.exp(_log_frame(m, np.abs(zs)) + 1j * np.angle(zs)[:, None] * np.arange(m + 1))
    W = _inverse_factor(G) @ V.T
    phi = 0.0 if model.pert is None else np.asarray(model.pert.phi(zs), dtype=float)
    rho = _finite(np.sum(np.abs(W) ** 2, axis=0) * np.exp(m * phi), "kernel value")
    return float(rho[0]) if np.ndim(z) == 0 else rho.reshape(np.shape(z))


def rho_gram_field(model: GramModel, G: np.ndarray | None = None) -> KernelField:
    """Kernel sampled over the whole surface through the Gram path.

    |z| = tan(lat/2) covers the chart, with FS area element d(-cos lat)
    d theta / (4 pi) and the perturbed density in place of the FS factor.
    The rule is composite Gauss-Legendre in cos(lat) on 96 latitudes, edges
    at the cutoff's seams |z| = 1 and 1/2, times the trapezoid rule on 128
    angles.  On a latitude
    v* A v = sum_d c_d e^{i d theta}, c_d = sum_j |e_j| |e_{j+d}| A_{j,j+d}
    with A = G^{-1}, G = gram_matrix(model) in the basis e_k: one diagonal
    at a time, then d folded mod n_theta and one inverse FFT.  The recorded
    radius is the FS geodesic distance from the chart origin."""
    if G is None:
        G = gram_matrix(model)
    m, n_lat, n_theta = model.m, 96, 128
    L_inv = _inverse_factor(G)
    A = L_inv.conj().T @ L_inv  # (L L^H)^{-1}
    edges = np.array([1.0, 0.6, 0.0, -1.0])  # t = cos(lat) at |z| = 0, 1/2, 1, inf
    t, wt = _panels(edges, np.diff(np.round(n_lat * (1.0 - edges) / 2.0)).astype(int))
    r = np.sqrt((1.0 - t) / (1.0 + t))
    a = np.exp(_log_frame(m, r))
    c = np.stack([(a[:, :m + 1 - d] * a[:, d:]) @ np.diagonal(A, d) for d in range(m + 1)], axis=1)
    c[:, 0] = 0.5 * c[:, 0].real  # v* A v = 2 Re sum_{d >= 0} c_d e^{i d theta}, c_0 halved
    c = np.pad(c, ((0, 0), (0, -(m + 1) % n_theta))).reshape(n_lat, -1, n_theta).sum(axis=1)
    phi, D, idx = _octant_fields(model.pert, r, n_theta)
    vals = 2.0 * n_theta * np.fft.ifft(c, axis=1).real * np.exp(m * phi)[:, idx]
    vals = _finite(vals, "kernel field").ravel()
    # dx dy = r dr d theta = dt d theta / (1+t)^2
    weights = (D[:, idx] * (wt / (1.0 + t) ** 2)[:, None] * (2.0 * math.pi / n_theta)).ravel()
    flat_r = np.repeat(np.arccos(t) / math.sqrt(4.0 * math.pi), n_theta)  # area-1 sphere radius
    return KernelField(
        m=m, r=flat_r, u=np.zeros_like(flat_r), values=vals, weights=weights,
        inf=float(vals.min()), sup=float(vals.max()),
        argmin_r=float(flat_r[np.argmin(vals)]), integral=float(np.sum(vals * weights)))
