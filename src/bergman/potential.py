"""Reduction of a revolution metric to conformal coordinates.

A warped product dr^2 + psi^2 dtheta^2 becomes e^{2 sigma}(du^2 + dtheta^2)
under u(r) = int dr/psi measured from the area-median radius.  The Kahler
potential phi solves phi'' = 2 lambda with lambda(u) = psi(r(u))^2, gauged by
phi'(-inf) = 0 and phi(0) = 0, so that exactly the monomials z^0..z^{md} are
square-integrable for a degree-d profile.

Everything is driven by one stiff-free ODE solve per side of the area-median
radius (state r, I = int lambda, J = int I); the stacked DOP853 segments of
both serve as one interpolant, evaluated bit for bit as scipy would.  This
keeps phi accurate to ~1e-13, so that 2 pi m phi, and with it log N_k, stays
within 1e-10 up to m = 400.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .models import RevolutionProfile

__all__ = ["PotentialTable", "build_potential"]

# depth of the conformal grid per side is set by the 1e-18 relative truncation
# of the monomial integrands; their pole decay rate is twice the pole slope
_TRUNC_LOG = 18.0 * math.log(10.0)
_MARGIN = 6.0
_RTOL = 1e-13  # DOP853 tolerance; phi drifts ~rtol per unit u, times 2 pi m


@dataclass(frozen=True)
class PotentialTable:
    """Conformal-coordinate data of a polarized revolution profile."""

    profile: RevolutionProfile = field(repr=False)
    d: int
    u_min: float
    u_max: float
    r_equator: float
    # DOP853 segments of both solves, ascending in u: breaks, t_old, h, y_old, F
    _dense: tuple = field(repr=False, compare=False)
    _K: float = field(repr=False)  # phi'(u) = 2 I(u) + K

    def _state(self, u):
        """(r, I, J) at u, from the dense ODE output."""
        breaks, t_old, h, y_old, F = self._dense
        t = np.clip(np.asarray(u, dtype=float).ravel(), self.u_min, self.u_max)
        # at a breakpoint take the segment nearer u = 0, as OdeSolution does
        i = np.searchsorted(breaks[1:-1], np.where(t < 0, np.nextafter(t, 0.0), t))
        x = ((t - t_old[i]) / h[i])[:, None]
        F = F[i]
        y = np.zeros((t.size, 3))
        for k in range(6, -1, -1):  # Dop853DenseOutput._call_impl, same order
            y += F[:, k]
            y *= x if k % 2 == 0 else 1 - x
        y += y_old[i]
        return y.T.reshape((3,) + np.shape(u))

    def r_of_u(self, u):
        return self._state(u)[0]

    def u_of_r(self, r):
        """Invert the monotone map r(u) by bisection."""
        r = float(r)
        if r <= 0.0:
            return self.u_min
        if r >= self.profile.length:
            return self.u_max
        f = lambda u: float(self.r_of_u(u)) - r
        if f(self.u_min) >= 0.0:
            return self.u_min
        if f(self.u_max) <= 0.0:
            return self.u_max
        return brentq(f, self.u_min, self.u_max, xtol=1e-14, rtol=1e-15)

    def lam(self, u):
        """Conformal factor psi(r(u))^2."""
        r = self.r_of_u(u)
        return np.asarray(self.profile.psi(r), dtype=float) ** 2

    def phi_prime(self, u):
        return 2.0 * self._state(u)[1] + self._K

    def phi(self, u):
        st = self._state(u)
        return 2.0 * st[2] + self._K * np.asarray(u, dtype=float).clip(self.u_min, self.u_max)


def build_potential(profile: RevolutionProfile) -> PotentialTable:
    """Integrate the chart reduction of a profile to a PotentialTable.

    The grid depth per side follows the pole slopes so that every monomial
    integrand has dropped to 1e-18 of its peak inside the covered range.
    """
    L = profile.length
    if L <= 0:
        raise ValueError("profile has no positive part")
    integral = lambda a, b: quad(profile.psi, a, b, epsabs=0.0, epsrel=1e-12, limit=500)[0]
    r0, cum = 0.5 * L, integral(0.0, 0.5 * L)
    half = 0.5 * (cum + integral(r0, L))  # int psi over half the area
    d = profile.d
    if abs(4.0 * math.pi * half - d) > 1e-8 * max(d, 1):
        raise ValueError(f"profile area {4.0 * math.pi * half} is not the "
                         f"integer degree {d}; rescale first")

    # area-median radius: bracketed Newton on int_0^r psi = half, from L/2
    lo, hi = 0.0, L
    for _ in range(100):
        lo, hi = (r0, hi) if cum < half else (lo, r0)
        r1 = r0 - (cum - half) / float(profile.psi(r0))
        r1 = r1 if lo <= r1 <= hi else 0.5 * (lo + hi)
        cum += integral(r0, r1)
        r0, step = r1, r1 - r0
        if abs(step) <= 1e-15 * L:
            break
    else:
        raise RuntimeError("area-median radius search did not converge")

    slope_l, slope_r = profile.cone_slopes
    u_min = -(_TRUNC_LOG / (2.0 * slope_l) + _MARGIN)
    u_max = +(_TRUNC_LOG / (2.0 * slope_r) + _MARGIN)

    def rhs(u, y):
        r = min(max(y[0], 0.0), L)
        ps = float(profile.psi(r))
        return (ps, ps * ps, y[1])

    kw = dict(method="DOP853", rtol=_RTOL, atol=1e-16, dense_output=True)
    sol_neg = solve_ivp(rhs, (0.0, u_min), (r0, 0.0, 0.0), **kw)
    sol_pos = solve_ivp(rhs, (0.0, u_max), (r0, 0.0, 0.0), **kw)
    if not (sol_neg.success and sol_pos.success):
        raise RuntimeError("conformal-coordinate integration failed")

    # gauge: phi'(-inf) = 0, including the analytic tail below u_min where
    # lambda decays like e^{2*slope_l*u}
    r_end, i_end, _ = sol_neg.y[:, -1]
    lam_end = float(profile.psi(r_end)) ** 2
    tail = lam_end / (2.0 * slope_l)
    K = -2.0 * i_end + 2.0 * tail

    segs = sol_neg.sol.interpolants[::-1] + sol_pos.sol.interpolants
    dense = [np.array([getattr(s, a) for s in segs]) for a in ("t_old", "h", "y_old", "F")]
    table = PotentialTable(
        profile=profile, d=d, u_min=float(u_min), u_max=float(u_max), r_equator=float(r0),
        _dense=(np.concatenate([sol_neg.t[::-1], sol_pos.t[1:]]), *dense), _K=float(K),
    )
    # degree bookkeeping: phi'(+inf) - phi'(-inf) = d/pi
    dphi = float(table.phi_prime(u_max) - table.phi_prime(u_min))
    if abs(dphi - d / math.pi) > 1e-8:
        raise RuntimeError(
            f"degree bookkeeping failed: phi' span {dphi} vs {d / math.pi}")
    return table
