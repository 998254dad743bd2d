"""Model geometries: cyclic weight systems, surfaces of revolution, and the
oscillating perturbation of the round sphere.

All model objects are immutable after construction and safe to share between
threads; the one lazy field, the table ``CyclicWeights.characters``, is filled
on first read and read-only.  Profiles are a vectorized callable plus the radii
of its seams, the points where it is only finitely smooth; their positivity is
checked where psi is used, on the nodes of the potential table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

__all__ = [
    "CyclicWeights",
    "RevolutionProfile",
    "PerturbedPotential",
    "make_cyclic_weights",
    "eval_f_k",
    "f_k_domain_end",
    "f_k_alpha",
    "round_sphere",
    "make_cone_family",
    "rescale_to_area",
]

MAX_CHARACTERS = 1 << 22  # entries of a character table, 64 MB of complex128
# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the positive nodes, the
# weights (the last for the centre), and the order in which it adds node pairs
_K21_NODES = np.array([
    0.9956571630258080807355272806890028, 0.9739065285171717200779640120844521,
    0.9301574913557082260012071800595083, 0.8650633666889845107320966884234930,
    0.7808177265864168970637175783450424, 0.6794095682990244062343273651148736,
    0.5627571346686046833390000992726941, 0.4333953941292471907992659431657842,
    0.2943928627014601981311266031038656, 0.1488743389816312108848260011297200,
])
_K21_WEIGHTS = np.array([
    0.1169463886737187427806439606219205e-01, 0.3255816230796472747881897245938976e-01,
    0.5475589657435199603138130024458018e-01, 0.7503967481091995276704314091619001e-01,
    0.9312545458369760553506546508336634e-01, 0.1093871588022976418992105903258050,
    0.1234919762620658510779581098310742, 0.1347092173114733259280540017717068,
    0.1427759385770600807970942731387171, 0.1477391049013384913748415159720680,
    0.1494455540029169056649364683898212,
])
_K21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_AREA_TOL = 1e-13  # area rule: tolerance relative to the integral
CONE_KAPPA = 0.05  # the cone family satisfies -psi'' >= CONE_KAPPA * psi


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
        """Angles 2*pi*k*p_l/q_l of the k-th power of the generator, with
        k*p_l reduced mod q_l first so the angle lies in [0, 2*pi); an
        integer array k gives one row per power, shape (len(k), n)."""
        p, ql = np.array(self.pairs).T
        return 2.0 * math.pi * (np.asarray(k)[..., None] * p % ql) / ql

    @functools.cached_property
    def characters(self) -> np.ndarray:
        """Read-only (q, n) table exp(1j * phases(arange(q))) of the characters
        e^{2 pi i k p_l / q_l}; .real and .imag are the phases' cos and sin."""
        if self.q * self.n > MAX_CHARACTERS:
            raise ValueError(f"Z_{self.q} on C^{self.n} needs {self.q * self.n} > "
                             f"{MAX_CHARACTERS} character table entries")
        table = np.exp(1j * self.phases(np.arange(self.q)))
        table.flags.writeable = False
        return table

    def sigma(self, z: np.ndarray, a: int = 1) -> np.ndarray:
        """Apply the a-th power of the generator to a point of C^n."""
        return np.asarray(z, dtype=complex) * self.characters[a % self.q]


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

    def area(self) -> float:
        """Total area 2*pi*int_0^L psi dr by Gauss-Kronrod quadrature.

        QUADPACK's 21-point rule runs once on each panel between the seams
        and once on each half of it.  A panel whose value and the sum over its
        halves differ by more than _AREA_TOL * |total| * width / L is refused:
        a corner or a feature narrower than its panel, off every seam, raises
        ArithmeticError.  The panel values are added from left to right, so
        where quad accepts its first pass too this is the sum
        scipy.integrate.quad(psi, 0, L, points=seams) returns, bit for bit."""
        L = self.length
        edges = np.array([0.0, *sorted(s for s in self.seams if 0.0 < s < L), L])
        a, b = edges[:-1], edges[1:]
        mid = 0.5 * (a + b)
        v = _kronrod21(self.psi, np.concatenate([a, a, mid]), np.concatenate([b, mid, b]))
        whole, lo, hi = v.reshape(3, -1)  # whole, left and right halves
        tol = _AREA_TOL * abs(whole.sum()) / L
        if not (np.abs(whole - lo - hi) <= tol * (b - a)).all():
            raise ArithmeticError(f"profile {self.name!r}: area quadrature did not converge")
        return 2.0 * math.pi * float(np.cumsum(whole)[-1])  # cumsum adds in order


def _kronrod21(psi, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """qk21's value of int psi on each panel [a_i, b_i], its node terms added
    in qk21's order."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    absc = h[:, None] * _K21_NODES
    f = np.asarray(psi(np.concatenate([c, (c[:, None] - absc).ravel(),
                                       (c[:, None] + absc).ravel()])), dtype=float)
    fc, (fm, fp) = f[:c.size], f[c.size:].reshape(2, *absc.shape)
    total = _K21_WEIGHTS[10] * fc
    for j in _K21_ORDER:
        total = total + _K21_WEIGHTS[j] * (fm[:, j] + fp[:, j])
    return total * h


def round_sphere(d: int = 1) -> RevolutionProfile:
    """Round sphere normalized to area d (degree-d polarization)."""
    if d < 1:
        raise ValueError("degree must be a positive integer")
    radius = math.sqrt(d / (4.0 * math.pi))
    psi = lambda r: radius * np.sin(np.asarray(r) / radius)
    return RevolutionProfile(math.pi * radius, psi, d, (1.0, 1.0), f"round(d={d})")


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
    return RevolutionProfile(c * profile.length, psi, d, profile.cone_slopes,
                             profile.name + f"->area{d}", tuple(c * s for s in profile.seams))


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
    Returns psi and the seams x0..x4.
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
    d1 = float(_hermite_slope_blend(x1, x0, x1, f0, g0, m0, g1, m1)) - f1
    d2 = float(_hermite_slope_blend(x3, x2, x3, f2 + d1, g2, m2, g3, m3)) - f3

    f = lambda x: eval_f_k(k, x)
    # one formula per interval [0,x0) [x0,x1] (x1,x2) [x2,x3] (x3,x4) [x4,L]
    pieces = (f,
              lambda x: _hermite_slope_blend(x, x0, x1, f0, g0, m0, g1, m1),
              lambda x: f(x) + d1,
              lambda x: _hermite_slope_blend(x, x2, x3, f2 + d1, g2, m2, g3, m3),
              lambda x: f(x) + d2 * (1.0 - _smoothstep_c2((x - x3) / (x4 - x3))),
              f)

    def psi(r):
        x = np.asarray(r, dtype=float)
        # "right" puts x0, x2, x4 in the piece they open, "left" x1, x3 in the one they close
        piece = np.searchsorted((x0, x2, x4), x, "right") + np.searchsorted((x1, x3), x, "left")
        out = np.empty_like(x)
        for i, g in enumerate(pieces):
            sel = piece == i
            if sel.any():
                out[sel] = g(x[sel])
        return out if out.shape else float(out)

    return psi, (x0, x1, x2, x3, x4)


def make_cone_family(k: int) -> RevolutionProfile:
    """Smoothed f_k profile (cone of angle 2*pi/3 at the r=0 pole as k grows),
    with -psi'' >= CONE_KAPPA*psi verified on a grid."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    psi, seams = _smoothed_fk_callable(k)
    prof = RevolutionProfile(f_k_domain_end(k), psi, 1, (1.0, 1.0), f"cone(k={k})", seams)
    # second-difference check on a uniform grid
    r = np.linspace(0.0, prof.length, 8193)[1:-1]
    h = r[1] - r[0]
    vals = np.asarray(psi(r))
    d2 = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
    bad = -d2 < CONE_KAPPA * vals[1:-1] - 1e-9
    if bad.any():
        worst = np.min((-d2 - CONE_KAPPA * vals[1:-1])[bad])
        raise ValueError(f"curvature bound -psi'' >= {CONE_KAPPA}*psi fails by {worst:.3e}")
    return prof


# ---------------------------------------------------------------------------
# Perturbed Fubini-Study potential (oscillating metric family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedPotential:
    """Oscillation phi = -k^-4 sin(2kx) sin(2ky) eta(|z|) in the unit disc of
    the affine chart, on top of the degree-1 Fubini-Study metric."""

    k: int

    def cutoff(self, rho):
        """(eta, eta', eta'') of the radial bump eta: 1 on [0,1/2], 0 on
        [1,inf), the quintic smoothstep in t = 2 rho - 1 between.  t is
        clipped to [0, 1], so eta' and eta'' are exactly 0 off (1/2, 1)."""
        t = np.clip(2.0 * (np.asarray(rho, dtype=float) - 0.5), 0.0, 1.0)
        return (1.0 - _smoothstep_c2(t), -60.0 * (t * (1.0 - t)) ** 2,
                -240.0 * t * (1.0 - t) * (1.0 - 2.0 * t))

    def fields(self, x, y, rho):
        """(phi, Laplacian phi) at x + iy with rho = |x + iy|, broadcast; on a
        polar grid rho[:, None] takes the cutoff once per radius.  With
        A = -k^-4 sin(2kx) sin(2ky), Laplacian(A eta) is
        A (-8k^2 eta + eta'' + eta'/rho) + 2 eta'/rho (x A_x + y A_y)."""
        k, amp = self.k, -self.k ** -4.0
        sx, cx, sy, cy = np.sin(2 * k * x), np.cos(2 * k * x), np.sin(2 * k * y), np.cos(2 * k * y)
        eta, d1, d2 = self.cutoff(rho)
        d1_rho = d1 / np.maximum(rho, 0.5)  # eta' vanishes on [0, 1/2]
        lap = amp * (sx * sy * (-8.0 * k * k * eta + d2 + d1_rho)
                     + 4.0 * k * d1_rho * (cx * sy * x + sx * cy * y))
        return amp * (sx * sy) * eta, lap

    def phi(self, z):
        """Perturbation value at complex chart coordinate z."""
        z = np.asarray(z, dtype=complex)
        return self.fields(z.real, z.imag, np.abs(z))[0]
