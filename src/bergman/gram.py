"""Bergman kernels on CP^1 through Gram matrices of monomials.

The base metric is degree-1 Fubini-Study normalized to area 1, whose Gram
matrix is diagonal with Beta-function entries.  A perturbation of the
potential (supported in the unit disc of the affine chart) adds a correction
integral; the Gram inverse then gives the kernel as a quadratic form, taken
in the basis e_k = z^k / sqrt(N_k^FS) with one Cholesky factor per model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import gammaln, xlogy

from .kernels import KernelField
from .models import PerturbedPotential

__all__ = [
    "GramModel",
    "fs_log_norms",
    "gram_matrix",
    "rho_gram",
    "rho_gram_field",
    "scaled_gram",
    "perturbed_area_density",
    "perturbed_scalar_curvature",
]


@dataclass(frozen=True)
class GramModel:
    """Monomial basis z^0..z^m on CP^1 with an optional potential perturbation.

    The weight is the FS one, (1+|z|^2)^{-m} e^{m phi} d mu, with the measure
    d mu the perturbed area form; quadrature for the correction runs on an
    n_r x n_theta polar tensor grid over the perturbation's support."""

    m: int
    pert: PerturbedPotential | None = None
    n_r: int = 160
    n_theta: int = 512

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n_r < 8 or self.n_theta < 8:
            raise ValueError("quadrature grid too small")

    def refined(self, factor: int = 2) -> "GramModel":
        return GramModel(self.m, self.pert, self.n_r * factor, self.n_theta * factor)


def fs_log_norms(m: int) -> np.ndarray:
    """log of the FS monomial norms i!(m-i)!/(m+1)! (area-1 normalization)."""
    i = np.arange(m + 1)
    return gammaln(i + 1.0) + gammaln(m - i + 1.0) - gammaln(m + 2.0)


def perturbed_area_density(pert: PerturbedPotential | None, x, y):
    """Density D of the area form D dx dy: FS base minus Laplacian(phi)/(4 pi).

    The curvature-form convention ties the metric to the potential as
    omega = omega_FS - (i/2 pi) d dbar phi."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x * x + y * y
    base = 1.0 / (math.pi * (1.0 + s) ** 2)
    if pert is None:
        return base
    return base - pert.laplacian_phi(x + 1j * y) / (4.0 * math.pi)


def perturbed_scalar_curvature(pert: PerturbedPotential | None, x: float, y: float,
                               h: float = 1e-4) -> float:
    """S = K/(2 pi) with Gauss curvature K = -(1/2D) Laplacian(log D).

    Central second differences of log D; the density itself is analytic.
    Calibrated so the unperturbed sphere returns S = 2."""
    def logD(xx, yy):
        return math.log(float(perturbed_area_density(pert, xx, yy)))

    lap = (logD(x + h, y) + logD(x - h, y) + logD(x, y + h) + logD(x, y - h)
           - 4.0 * logD(x, y)) / (h * h)
    D = float(perturbed_area_density(pert, x, y))
    K = -lap / (2.0 * D)
    return K / (2.0 * math.pi)


# (nodes, weights) on [-1, 1]; every caller shares them and none writes to them
_gauss = functools.lru_cache(np.polynomial.legendre.leggauss)


def _polar_fields(pert: PerturbedPotential | None, rho: np.ndarray, theta: np.ndarray):
    """phi and the density D of perturbed_area_density on the polar grid
    rho x theta, the cutoff and its derivatives taken once per radius."""
    c, s = np.cos(theta), np.sin(theta)
    x, y = rho[:, None] * c, rho[:, None] * s
    base = perturbed_area_density(None, x, y)
    if pert is None:
        return np.zeros_like(x), base
    k, amp, d1 = pert.k, -pert.k ** -4.0, pert.cutoff_d1(rho)
    sx, cx, sy, cy = np.sin(2 * k * x), np.cos(2 * k * x), np.sin(2 * k * y), np.cos(2 * k * y)
    # Laplacian of A eta, A = amp sin(2kx) sin(2ky): A (-8k^2 eta + lap eta) + 2 grad A . grad eta
    radial = -8.0 * k * k * pert.cutoff(rho) + pert.cutoff_d2(rho) + d1 / np.maximum(rho, 1e-300)
    lap = amp * (sx * sy * radial[:, None] + (4.0 * k * d1)[:, None] * (cx * sy * c + sx * cy * s))
    return np.asarray(pert.phi(x + 1j * y), dtype=float), base - lap / (4.0 * math.pi)


def _correction_matrix(model: GramModel) -> np.ndarray:
    """C_ij = int z^i conj(z)^j (1+s)^{-m} [e^{m phi} D - D_0] dx dy over the
    unit disc, on a polar tensor grid with FFT over the angle."""
    m = model.m
    # Gauss-Legendre in rho on [0, 1]
    xg, wg = _gauss(model.n_r)
    rho = 0.5 * (xg + 1.0)
    wr = 0.5 * wg * rho  # includes the Jacobian rho
    nt = model.n_theta
    phi, D = _polar_fields(model.pert, rho, 2.0 * math.pi * np.arange(nt) / nt)
    s = (rho * rho)[:, None]
    W = (1.0 + s) ** (-m) * (np.exp(m * phi) * D - 1.0 / (math.pi * (1.0 + s) ** 2))
    # angular transform: A[r, d] = int W e^{-i d theta} d theta
    A = np.fft.fft(W, axis=1) * (2.0 * math.pi / nt)
    # z^i conj(z)^j carries rho^(i+j) e^{-i (j-i) theta}: C_ij = M[i+j, j-i]
    P = wr[:, None] * rho[:, None] ** np.arange(2 * m + 1)
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
    """Hermitian Gram matrix of z^0..z^m in the model's weighted L^2 product."""
    G = np.diag(np.exp(fs_log_norms(model.m))).astype(complex)
    if model.pert is not None:
        G = G + _correction_matrix(model)
    return _finite(G, "Gram matrix")


def scaled_gram(G: np.ndarray) -> np.ndarray:
    """S G S with S = diag(N_k^FS)^{-1/2}: the Gram matrix in the basis
    e_k = z^k / sqrt(N_k^FS), the identity without perturbation."""
    s = np.exp(-0.5 * fs_log_norms(len(G) - 1))
    return s[:, None] * G * s


def _scaled_factor(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of scaled_gram(G), taken once per model."""
    try:
        return cholesky(scaled_gram(G), lower=True)
    except np.linalg.LinAlgError as e:
        lam = np.linalg.eigvalsh(scaled_gram(G))[0]
        raise np.linalg.LinAlgError(
            f"Gram matrix not positive definite (smallest eigenvalue {lam:.3e})") from e


def _log_frame(m: int, r: np.ndarray) -> np.ndarray:
    """log |e_k(z)| (1+|z|^2)^{-m/2} at |z| = r, shape (len(r), m+1)."""
    log_weight = fs_log_norms(m) + m * np.log1p(r * r)[:, None]
    return xlogy(np.arange(m + 1), r[:, None]) - 0.5 * log_weight


def rho_gram(G: np.ndarray, model: GramModel, z):
    """Bergman kernel v* G^{-1} v (1+|z|^2)^{-m} e^{m phi(z)}, v = (z^k), at
    affine-chart points: |L^{-1} v|^2 e^{m phi} in the basis e_k, with L the
    factor of scaled_gram(G) and the weight's root folded into v.  One point
    gives a float, an array of points an array of the same shape."""
    m = model.m
    zs = np.asarray(z, dtype=complex).ravel()
    V = np.exp(_log_frame(m, np.abs(zs)) + 1j * np.angle(zs)[:, None] * np.arange(m + 1))
    W = solve_triangular(_scaled_factor(G), V.T, lower=True)
    phi = 0.0 if model.pert is None else np.asarray(model.pert.phi(zs), dtype=float)
    rho = _finite(np.sum(np.abs(W) ** 2, axis=0) * np.exp(m * phi), "kernel value")
    return float(rho[0]) if np.ndim(z) == 0 else rho.reshape(np.shape(z))


def rho_gram_field(model: GramModel, G: np.ndarray | None = None,
                   n_lat: int = 96, n_theta: int = 128) -> KernelField:
    """Kernel sampled over the whole surface through the Gram path.

    |z| = tan(lat/2) covers the chart, with FS area element d(-cos lat)
    d theta / (4 pi) and the perturbed density in place of the FS factor.
    The rule is composite Gauss-Legendre in cos(lat), edges at the cutoff's
    seams |z| = 1 and 1/2, times the trapezoid rule in theta.  On a latitude
    v* A v = sum_d c_d e^{i d theta}, c_d = sum_j |e_j| |e_{j+d}| A_{j,j+d}
    with A the inverse of the scaled Gram matrix: one diagonal at a time,
    then d folded mod n_theta and one inverse FFT.  The recorded radius is
    the FS geodesic distance from the chart origin."""
    if G is None:
        G = gram_matrix(model)
    m = model.m
    A = cho_solve((_scaled_factor(G), True), np.eye(m + 1))
    edges = np.array([1.0, 0.6, 0.0, -1.0])  # t = cos(lat) at |z| = 0, 1/2, 1, inf
    h, n = 0.5 * np.diff(edges), np.diff(np.round(n_lat * (1.0 - edges) / 2.0)).astype(int)
    t = np.concatenate([e + hi * (1.0 + _gauss(ni)[0]) for e, hi, ni in zip(edges, h, n)])
    wt = np.concatenate([-hi * _gauss(ni)[1] for hi, ni in zip(h, n)])
    r = np.sqrt((1.0 - t) / (1.0 + t))
    a = np.exp(_log_frame(m, r))
    c = np.stack([(a[:, :m + 1 - d] * a[:, d:]) @ np.diagonal(A, d) for d in range(m + 1)], axis=1)
    c[:, 0] = 0.5 * c[:, 0].real  # v* A v = 2 Re sum_{d >= 0} c_d e^{i d theta}, c_0 halved
    c = np.pad(c, ((0, 0), (0, -(m + 1) % n_theta))).reshape(n_lat, -1, n_theta).sum(axis=1)
    phi, D = _polar_fields(model.pert, r, 2.0 * math.pi * np.arange(n_theta) / n_theta)
    vals = 2.0 * n_theta * np.fft.ifft(c, axis=1).real * np.exp(m * phi)
    vals = _finite(vals, "kernel field").ravel()
    # dx dy = r dr d theta = dt d theta / (1+t)^2
    weights = (D * (wt / (1.0 + t) ** 2)[:, None] * (2.0 * math.pi / n_theta)).ravel()
    flat_r = np.repeat(np.arccos(t) / math.sqrt(4.0 * math.pi), n_theta)  # area-1 sphere radius
    return KernelField(
        m=m, r=flat_r, u=np.zeros_like(flat_r), values=vals, weights=weights,
        inf=float(vals.min()), sup=float(vals.max()),
        argmin_r=float(flat_r[np.argmin(vals)]), integral=float(np.sum(vals * weights)))
