"""Model geometries: cyclic weight systems, surfaces of revolution, and the
oscillating perturbation of the round sphere.

All model objects are immutable after construction and safe to share between
threads.  Profiles are a vectorized callable plus the radii of its seams, the
points where it is only finitely smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd, lcm

import numpy as np
from scipy.integrate import quad

__all__ = [
    "CyclicWeights",
    "RevolutionProfile",
    "PerturbedPotential",
    "ConeApproxFamily",
    "make_cyclic_weights",
    "eval_f_k",
    "f_k_domain_end",
    "f_k_alpha",
    "round_sphere",
    "cone_approx_profile",
    "make_cone_family",
    "rescale_to_area",
]

DEFAULT_GRID_NODES = 2048


@dataclass(frozen=True)
class CyclicWeights:
    """Weight data (p_l, q_l) of a diagonal cyclic action on C^n.

    ``q`` is the order of the group, the lcm of the q_l.  Pairs are stored
    normalized: 0 <= p_l < q_l and gcd(p_l, q_l) = 1.
    """

    pairs: tuple[tuple[int, int], ...]
    q: int

    @property
    def n(self) -> int:
        return len(self.pairs)

    def phases(self, k) -> np.ndarray:
        """Angles 2*pi*k*p_l/q_l of the k-th power of the generator; an
        integer array k gives one row per power, shape (len(k), n)."""
        p, ql = np.array(self.pairs).T
        return 2.0 * math.pi * np.asarray(k)[..., None] * p / ql

    def sigma(self, z: np.ndarray, a: int = 1) -> np.ndarray:
        """Apply the a-th power of the generator to a point of C^n."""
        return np.asarray(z, dtype=complex) * np.exp(1j * self.phases(a))


def make_cyclic_weights(pairs) -> CyclicWeights:
    """Validate and normalize a list of (p, q) integer pairs."""
    pairs = [(int(p), int(ql)) for p, ql in pairs]
    if not pairs:
        raise ValueError("weight list must be non-empty")
    norm = []
    for p, ql in pairs:
        if ql <= 0:
            raise ValueError(f"q must be positive, got ({p},{ql})")
        p = p % ql
        if gcd(p, ql) != 1:
            raise ValueError(f"gcd({p},{ql})≠1: pair ({p},{ql}) is not coprime")
        norm.append((p, ql))
    return CyclicWeights(pairs=tuple(norm), q=lcm(*(ql for _, ql in norm)))


# ---------------------------------------------------------------------------
# The f_k piecewise profile of the 1-dimensional cone-approximation family.
# ---------------------------------------------------------------------------

def f_k_alpha(k: int) -> float:
    return math.acos(1.0 / 3.0) / (2 * k)


def f_k_domain_end(k: int) -> float:
    return f_k_alpha(k) + (4 * k + math.sqrt(2)) * math.pi / (6 * k)


def eval_f_k(k: int, r):
    """Piecewise profile with a small cap of slope 1 resolving a 2*pi/3 cone.

    Branches: (1/2k) sin(2kr) on [0, alpha_k); sqrt(2)/3k + (1/3) sin(r-alpha_k)
    on [alpha_k, alpha_k + pi/2); a stretched sine arc closing the far pole on
    the rest.  C^1 across the junctions.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    a = f_k_alpha(k)
    end = f_k_domain_end(k)
    r_arr = np.asarray(r, dtype=float)
    if (r_arr < -1e-15).any() or (r_arr > end + 1e-12).any():
        raise ValueError(f"r outside [0, {end}]")
    rr = np.clip(r_arr, 0.0, end)
    s2 = math.sqrt(2.0)
    out = np.where(
        rr < a,
        np.sin(2 * k * rr) / (2 * k),
        np.where(
            rr < a + math.pi / 2,
            s2 / (3 * k) + np.sin(rr - a) / 3.0,
            (k + s2) / (3 * k) * np.sin(math.pi / 2 + 3 * k * (rr - a - math.pi / 2) / (k + s2)),
        ),
    )
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Revolution profiles
# ---------------------------------------------------------------------------

def _pole_clustered_grid(length: float, nodes: int) -> np.ndarray:
    """Interior grid on (0, L) geometrically refined toward both poles."""
    # arcsinh stretching of a uniform grid clusters nodes at both ends
    t = np.linspace(-1.0, 1.0, nodes + 2)[1:-1]
    c = 4.0
    x = np.arcsinh(t * math.sinh(c)) / c
    return (x + 1.0) * (length / 2.0)


@dataclass(frozen=True)
class RevolutionProfile:
    """Warp factor psi(r) of a metric dr^2 + psi(r)^2 dtheta^2 on S^2.

    ``seams`` lists the radii in (0, length) where psi is only finitely
    smooth; the potential table puts panel edges there."""

    length: float
    psi: object  # callable r -> psi(r), vectorized
    d: int
    cone_slopes: tuple[float, float]
    name: str = "profile"
    seams: tuple[float, ...] = ()

    def __call__(self, r):
        return self.psi(r)

    def area(self, rel_tol: float = 1e-12) -> float:
        """Total area 2*pi*int_0^L psi dr."""
        val, _ = quad(self.psi, 0.0, self.length, points=self.seams or None,
                      epsabs=0.0, epsrel=rel_tol, limit=500)
        return 2.0 * math.pi * val


def _finalize_profile(psi, length, d, slopes, name, seams=()) -> RevolutionProfile:
    if (np.asarray(psi(_pole_clustered_grid(length, DEFAULT_GRID_NODES))) <= 0.0).any():
        raise ValueError(f"profile {name!r}: psi must be positive on the interior")
    return RevolutionProfile(
        length=float(length), psi=psi, d=int(d), cone_slopes=(float(slopes[0]), float(slopes[1])),
        name=name, seams=tuple(float(s) for s in seams),
    )


def round_sphere(d: int = 1) -> RevolutionProfile:
    """Round sphere normalized to area d (degree-d polarization)."""
    if d < 1:
        raise ValueError("degree must be a positive integer")
    radius = math.sqrt(d / (4.0 * math.pi))
    psi = lambda r: radius * np.sin(np.asarray(r) / radius)
    return _finalize_profile(psi, math.pi * radius, d, (1.0, 1.0), f"round(d={d})")


def rescale_to_area(profile: RevolutionProfile, d: int) -> RevolutionProfile:
    """Return psi~(r) = c*psi(r/c) with c = sqrt(d/A); area becomes exactly d."""
    if d < 1:
        raise ValueError("degree must be a positive integer")
    a = profile.area()
    if not math.isfinite(a) or a <= 0:
        raise ValueError("profile area is not finite and positive")
    c = math.sqrt(d / a)
    if abs(c - 1.0) < 1e-13:
        return profile
    base = profile.psi
    psi = lambda r: c * base(np.asarray(r) / c)
    return _finalize_profile(
        psi, c * profile.length, d, profile.cone_slopes,
        profile.name + f"->area{d}", seams=[c * s for s in profile.seams],
    )


# ---------------------------------------------------------------------------
# Smoothed cone-approximation family
# ---------------------------------------------------------------------------

def _fk_derivs(k: int, r: float):
    """One-sided (f, f', f'') of f_k away from the junctions."""
    a = f_k_alpha(k)
    s2 = math.sqrt(2.0)
    if r < a:
        return (math.sin(2 * k * r) / (2 * k), math.cos(2 * k * r), -2 * k * math.sin(2 * k * r))
    if r < a + math.pi / 2:
        return (s2 / (3 * k) + math.sin(r - a) / 3.0, math.cos(r - a) / 3.0, -math.sin(r - a) / 3.0)
    c = 3 * k / (k + s2)
    arg = math.pi / 2 + c * (r - a - math.pi / 2)
    amp = (k + s2) / (3 * k)
    return (amp * math.sin(arg), amp * c * math.cos(arg), -amp * c * c * math.sin(arg))


@dataclass(frozen=True)
class ConeApproxFamily:
    """Smoothed member of the f_k family: C^2, equal to f_k outside the
    mollification windows, with -psi'' >= kappa*psi verified on the grid."""

    k: int
    alpha_k: float
    smoothing_width: float
    kappa: float
    profile: RevolutionProfile = field(repr=False, compare=False)


def _hermite_slope_blend(x, x0, x1, base, g0, m0, g1, m1):
    """psi on [x0, x1] whose derivative is the cubic Hermite of (g, m) data.

    Smoothing the slope instead of the value keeps psi'' between the one-sided
    second derivatives (the Hermite cubic of a decreasing slope with concave
    end data stays decreasing here), so concavity survives the junction."""
    h = x1 - x0
    t = (np.asarray(x) - x0) / h
    t2, t3, t4 = t * t, t**3, t**4
    # antiderivatives of the Hermite basis h00, h10, h01, h11, times h
    H00 = 0.5 * t4 - t3 + t
    H10 = 0.25 * t4 - (2.0 / 3.0) * t3 + 0.5 * t2
    H01 = -0.5 * t4 + t3
    H11 = 0.25 * t4 - t3 / 3.0
    return base + h * (g0 * H00 + h * m0 * H10 + g1 * H01 + h * m1 * H11)


def _smoothstep_c2(t):
    """Quintic smoothstep: 0 -> 1 with vanishing first and second derivative."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def _smoothed_fk_callable(k: int):
    """C^2 profile equal to f_k outside (alpha_k/2, alpha_k + 2 pi/3).

    At each f'' jump the slope f' is replaced by its cubic Hermite on a small
    window; the resulting value offset (the Hermite misses the exact increment
    of f) is carried as a constant shift and removed by a C^2 smoothstep on
    the last branch, where -psi''/psi is largest and absorbs it harmlessly.
    Returns psi, the first window's half-width and the seams x0..x4.
    """
    a = f_k_alpha(k)
    w1 = 0.25 * a  # keeps r < alpha_k/2 untouched and sin(w1)/3 >= ~2 kappa psi
    w2 = 0.05
    b = a + math.pi / 2
    x0, x1 = a - w1, a + w1
    x2, x3 = b - w2, b + w2
    x4 = a + 2.0 * math.pi / 3.0

    f0, g0, m0 = _fk_derivs(k, x0)
    f1, g1, m1 = _fk_derivs(k, x1)
    f2, g2, m2 = _fk_derivs(k, x2)
    f3, g3, m3 = _fk_derivs(k, x3)

    # constant shifts picked up across each slope-smoothing window
    psi_x1 = float(_hermite_slope_blend(x1, x0, x1, f0, g0, m0, g1, m1))
    d1 = psi_x1 - f1
    psi_x3 = float(_hermite_slope_blend(x3, x2, x3, f2 + d1, g2, m2, g3, m3))
    d2 = psi_x3 - f3

    def psi(r):
        rr = np.asarray(r, dtype=float)
        out = np.asarray(eval_f_k(k, rr), dtype=float)
        mid1 = (rr > x1) & (rr < x2)
        out = np.where(mid1, out + d1, out)
        win1 = (rr >= x0) & (rr <= x1)
        if win1.any():
            out = np.where(win1, _hermite_slope_blend(rr, x0, x1, f0, g0, m0, g1, m1), out)
        win2 = (rr >= x2) & (rr <= x3)
        if win2.any():
            out = np.where(win2, _hermite_slope_blend(rr, x2, x3, f2 + d1, g2, m2, g3, m3), out)
        fade = (rr > x3) & (rr < x4)
        if fade.any():
            out = np.where(fade, out + d2 * (1.0 - _smoothstep_c2((rr - x3) / (x4 - x3))), out)
        return out if out.shape else float(out)

    return psi, w1, (x0, x1, x2, x3, x4)


def cone_approx_profile(k: int) -> RevolutionProfile:
    """Smoothed f_k profile (cone of angle 2*pi/3 at the r=0 pole as k grows)."""
    psi, _, seams = _smoothed_fk_callable(k)
    end = f_k_domain_end(k)
    return _finalize_profile(psi, end, 1, (1.0, 1.0), f"cone(k={k})", seams)


def make_cone_family(k: int, kappa: float = 0.05, nodes: int = DEFAULT_GRID_NODES) -> ConeApproxFamily:
    """Build the smoothed family member and verify -psi'' >= kappa*psi on the grid."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    prof = cone_approx_profile(k)
    psi, w, _ = _smoothed_fk_callable(k)
    # second-difference check on a uniform grid
    r = np.linspace(0.0, prof.length, 4 * nodes + 1)[1:-1]
    h = r[1] - r[0]
    vals = np.asarray(psi(r))
    d2 = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
    bad = -d2 < kappa * vals[1:-1] - 1e-9
    if bad.any():
        worst = np.min((-d2 - kappa * vals[1:-1])[bad])
        raise ValueError(f"curvature bound -psi'' >= {kappa}*psi fails by {worst:.3e}")
    return ConeApproxFamily(k=k, alpha_k=f_k_alpha(k), smoothing_width=w, kappa=kappa, profile=prof)


# ---------------------------------------------------------------------------
# Perturbed Fubini-Study potential (oscillating metric family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedPotential:
    """Oscillation phi = -k^-4 sin(2kx) sin(2ky) eta(|z|) in the unit disc of
    the affine chart, on top of the degree-1 Fubini-Study metric."""

    k: int

    @property
    def amplitude(self) -> float:
        return self.k ** -4

    def cutoff(self, rho):
        """Radial bump: 1 on [0,1/2], 0 on [1,inf), quintic smoothstep between."""
        return 1.0 - _smoothstep_c2(2.0 * (np.asarray(rho, dtype=float) - 0.5))

    def cutoff_d1(self, rho):
        rho = np.asarray(rho, dtype=float)
        t = 2.0 * (rho - 0.5)
        inside = (t > 0.0) & (t < 1.0)
        ds = -2.0 * (30.0 * t * t - 60.0 * t**3 + 30.0 * t**4)
        return np.where(inside, ds, 0.0)

    def cutoff_d2(self, rho):
        rho = np.asarray(rho, dtype=float)
        t = 2.0 * (rho - 0.5)
        inside = (t > 0.0) & (t < 1.0)
        d2 = -4.0 * (60.0 * t - 180.0 * t * t + 120.0 * t**3)
        return np.where(inside, d2, 0.0)

    def phi(self, z):
        """Perturbation value at complex chart coordinate z."""
        z = np.asarray(z, dtype=complex)
        x, y = z.real, z.imag
        k = self.k
        rho = np.abs(z)
        return -(k ** -4.0) * np.sin(2 * k * x) * np.sin(2 * k * y) * self.cutoff(rho)

    def laplacian_phi(self, z):
        """Euclidean Laplacian of phi (needed for the polarized area form)."""
        z = np.asarray(z, dtype=complex)
        x, y = z.real, z.imag
        k = self.k
        rho = np.abs(z)
        amp = -(k ** -4.0)
        A = amp * np.sin(2 * k * x) * np.sin(2 * k * y)
        Ax = amp * 2 * k * np.cos(2 * k * x) * np.sin(2 * k * y)
        Ay = amp * 2 * k * np.sin(2 * k * x) * np.cos(2 * k * y)
        lapA = -8.0 * k * k * A
        eta = self.cutoff(rho)
        d1 = self.cutoff_d1(rho)
        d2 = self.cutoff_d2(rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            nx = np.where(rho > 0, x / np.maximum(rho, 1e-300), 0.0)
            ny = np.where(rho > 0, y / np.maximum(rho, 1e-300), 0.0)
            lap_eta = d2 + np.where(rho > 0, d1 / np.maximum(rho, 1e-300), 0.0)
        grad_dot = Ax * d1 * nx + Ay * d1 * ny
        return lapA * eta + 2.0 * grad_dot + A * lap_eta
