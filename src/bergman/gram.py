"""Bergman kernels on CP^1 through Gram matrices of monomials.

The base metric is degree-1 Fubini-Study normalized to area 1, whose Gram
matrix is diagonal with Beta-function entries.  A perturbation of the
potential (supported in the unit disc of the affine chart) adds a correction
integral; the Gram inverse then gives the kernel as a quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln

from .kernels import KernelField
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


def _correction_matrix(model: GramModel) -> np.ndarray:
    """C_ij = int z^i conj(z)^j (1+s)^{-m} [e^{m phi} D - D_0] dx dy over the
    unit disc, on a polar tensor grid with FFT over the angle."""
    m = model.m
    pert = model.pert
    # Gauss-Legendre in rho on [0, 1]
    xg, wg = np.polynomial.legendre.leggauss(model.n_r)
    rho = 0.5 * (xg + 1.0)
    wr = 0.5 * wg * rho  # includes the Jacobian rho
    nt = model.n_theta
    theta = 2.0 * math.pi * np.arange(nt) / nt
    X = rho[:, None] * np.cos(theta)[None, :]
    Y = rho[:, None] * np.sin(theta)[None, :]
    s = rho * rho
    base = 1.0 / (math.pi * (1.0 + s) ** 2)
    D = perturbed_area_density(pert, X, Y)
    phi = pert.phi(X + 1j * Y)
    W = (1.0 + s[:, None]) ** (-m) * (np.exp(m * phi) * D - base[:, None])
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


def _chol(G: np.ndarray):
    try:
        return cho_factor(G, lower=True)
    except np.linalg.LinAlgError as e:
        lam_min = float(np.min(np.linalg.eigvalsh(G)))
        raise np.linalg.LinAlgError(
            f"Gram matrix not positive definite (smallest eigenvalue {lam_min:.3e})"
        ) from e


def rho_gram(G: np.ndarray, model: GramModel, z: complex) -> float:
    """Bergman kernel at an affine-chart point: v* G^{-1} v times the frame
    weight (1+|z|^2)^{-m} e^{m phi(z)}.

    For |z| > 1 the evaluation vector is rescaled by |z|^{-m} (the other
    chart's frame) to keep the quadratic form finite; the rescaling cancels
    exactly in the kernel."""
    m = model.m
    z = complex(z)
    ks = np.arange(m + 1)
    az = abs(z)
    if az <= 1.0:
        v = z ** ks
        scale_log = 0.0
    else:
        v = z ** ks * az ** (-float(m))
        scale_log = 2.0 * m * math.log(az)
    c = _chol(G)
    w = cho_solve(c, _finite(v, f"evaluation vector at z={z}"))
    quad = float(np.real(np.vdot(v, w)))
    s = az * az
    if model.pert is not None:
        phi = float(model.pert.phi(z))
    else:
        phi = 0.0
    log_weight = -m * math.log1p(s) + m * phi + scale_log
    return quad * math.exp(log_weight)


def rho_gram_field(model: GramModel, G: np.ndarray | None = None,
                   n_lat: int = 96, n_theta: int = 128) -> KernelField:
    """Kernel sampled over the whole surface through the Gram path.

    The chart is covered by the latitude substitution |z| = tan(lat/2), whose
    area element is sin(lat)/(4 pi) d lat d theta for the unperturbed metric;
    the perturbed density replaces the FS factor pointwise.  The recorded
    radius is the FS geodesic distance from the chart origin."""
    if G is None:
        G = gram_matrix(model)
    m = model.m
    c = _chol(G)
    lat = (np.arange(n_lat) + 0.5) * math.pi / n_lat
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    d_lat = math.pi / n_lat
    d_theta = 2.0 * math.pi / n_theta
    rho = np.tan(0.5 * lat)
    R = 1.0 / math.sqrt(4.0 * math.pi)  # area-1 sphere radius
    ks = np.arange(m + 1)
    vals = np.empty((n_lat, n_theta))
    weights = np.empty((n_lat, n_theta))
    for i, (li, ri) in enumerate(zip(lat, rho)):
        z = ri * np.exp(1j * theta)
        if ri <= 1.0:
            V = z[:, None] ** ks[None, :]
            scale_log = 0.0
        else:
            V = z[:, None] ** ks[None, :] * ri ** (-float(m))
            scale_log = 2.0 * m * math.log(ri)
        W = cho_solve(c, _finite(V.T, f"evaluation vectors at |z|={ri}"))
        quad = np.real(np.einsum("ik,ki->i", V.conj(), W))
        if model.pert is not None:
            phi = np.asarray(model.pert.phi(z), dtype=float)
        else:
            phi = np.zeros_like(theta)
        logw = -m * math.log1p(ri * ri) + m * phi + scale_log
        vals[i] = quad * np.exp(logw)
        D = np.asarray(perturbed_area_density(model.pert, z.real, z.imag), dtype=float)
        # rho d rho = (1/2)(1+rho^2) tan(lat/2) d lat
        weights[i] = D * 0.5 * (1.0 + ri * ri) * ri * d_lat * d_theta
    r_geo = np.repeat(R * lat[:, None], n_theta, axis=1)
    flat_v = vals.ravel()
    flat_w = weights.ravel()
    flat_r = r_geo.ravel()
    i_min = int(np.argmin(flat_v))
    return KernelField(
        m=m, r=flat_r, u=np.zeros_like(flat_r), values=flat_v, weights=flat_w,
        inf=float(flat_v.min()), sup=float(flat_v.max()),
        argmin_r=float(flat_r[i_min]), integral=float(np.sum(flat_v * flat_w)),
    )
