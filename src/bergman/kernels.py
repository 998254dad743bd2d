"""Bergman kernels of revolution metrics on CP^1 and the exact CP^n values.

Rotation invariance decouples the Fourier modes, so the kernel is a diagonal
sum over monomial sections z^k with weighted L^2 norms N_k.  All per-term
arithmetic is done in log space; e^{2ku} overflows long before m reaches the
interesting range otherwise.
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

_AREA_BLOCK = 2048  # nodes per kernel evaluation in kernel_area_integral


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


def _log_norms_on(rule, m: int, ks: np.ndarray) -> np.ndarray:
    """log of 2 pi int e^{2ku - 2 pi m phi} psi dr on a rule (log weights,
    u, phi, log psi), for every k in ks.

    The monomial integrands are smooth in r, so one fixed rule converges
    exponentially for every k at once."""
    log_w, u, phi, log_psi = rule
    base = log_w + math.log(2.0 * math.pi) + log_psi - 2.0 * math.pi * m * phi
    return logsumexp(2.0 * ks[:, None] * u + base, axis=1)


def log_monomial_norms(table: PotentialTable, m: int) -> np.ndarray:
    """log N_k for k = 0..md, N_k = 2 pi int e^{2ku - 2 pi m phi} psi dr."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = _log_norms_on(table.nodes, m, np.arange(m * table.d + 1))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ArithmeticError(f"monomial norm k={bad[0]} did not converge")
    return out


def monomial_norms(table: PotentialTable, m: int) -> np.ndarray:
    return np.exp(log_monomial_norms(table, m))


def _log_rho(u, phi, m: int, log_norms: np.ndarray) -> np.ndarray:
    """log rho_m = log sum_k e^{2ku - 2 pi m phi} / N_k at points (u, phi)."""
    ks = np.arange(len(log_norms))
    log_terms = (2.0 * ks[None, :] * u[:, None]
                 - 2.0 * math.pi * m * phi[:, None]
                 - log_norms[None, :])
    return logsumexp(log_terms, axis=1)


def rho_at_u(table: PotentialTable, m: int, u, log_norms: np.ndarray | None = None):
    """Kernel rho_m(u) = sum_k e^{2ku - 2 pi m phi(u)} / N_k, in log space."""
    if log_norms is None:
        log_norms = log_monomial_norms(table, m)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.exp(_log_rho(u, np.asarray(table.phi(u), dtype=float), m, log_norms))


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


def kernel_area_integral(table: PotentialTable, m: int, log_norms: np.ndarray) -> float:
    """int rho_m dA = 2 pi int rho psi dr on the table's half-width rule.

    On the nodes of the norm rule the identity int rho dA = md+1 would hold
    by construction; the independent rule keeps it a check.  The kernel is
    evaluated in blocks of nodes so the nodes x (md+1) temporaries stay
    small at large m."""
    log_w, u, phi, log_psi = table.check_nodes
    log_rho = np.concatenate([
        _log_rho(u[i:i + _AREA_BLOCK], phi[i:i + _AREA_BLOCK], m, log_norms)
        for i in range(0, len(u), _AREA_BLOCK)])
    return float(2.0 * math.pi * np.sum(np.exp(log_w + log_psi + log_rho)))


def rho_revolution(profile: RevolutionProfile, m: int, points=None,
                   table: PotentialTable | None = None, n_samples: int = 512) -> KernelField:
    """Bergman kernel field of a revolution profile at tensor power m.

    ``points`` may be a list of radii; by default the field is sampled on a
    uniform conformal grid (dense near both poles in r).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if table is None:
        table = build_potential(profile)
    log_norms = log_monomial_norms(table, m)
    if points is None:
        u = np.linspace(table.u_min, table.u_max, n_samples)
    else:
        u = np.asarray(table.u_of_r(np.asarray(points, dtype=float)))
    r, phi, psi, _ = table.locate(u)  # one u -> r inversion for r, phi and lambda
    if points is not None:
        r = np.asarray(points, dtype=float)
    vals = np.exp(_log_rho(u, phi, m, log_norms))
    # trapezoid area weights in u: dA = 2 pi lambda du, lambda = psi^2
    if len(u) > 1 and np.all(np.diff(u) > 0):
        du = np.gradient(u)
        weights = 2.0 * math.pi * psi ** 2 * du
    else:
        weights = np.zeros_like(u)
    i_min = int(np.argmin(vals))
    integral = kernel_area_integral(table, m, log_norms)
    return KernelField(m=m, r=r, u=u, values=vals, weights=weights,
                       inf=float(np.min(vals)), sup=float(np.max(vals)),
                       argmin_r=float(r[i_min]), integral=integral)


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
    bands = [_log_norms_on(table.band(a, b), m, ks)
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
