"""Conformal coordinates and Kahler potential of a revolution metric.

Under du = dr/psi, dr^2 + psi^2 dtheta^2 on [0, L] x S^1 is conformal to
du^2 + dtheta^2, and the potential has phi' = 2a with a(r) = int_0^r psi (the
gauge phi'(-inf) = 0, under which exactly z^0..z^{md} are square-integrable).
a, u and phi = int 2a/psi dr are quadratures in r on 32-point Gauss-Legendre
panels, edges at the seams and graded toward both poles, by one spectral
integration matrix once their logarithms at the poles are taken out; u and
phi vanish at the area-median radius.  Panels of half the width give an
independent rule: the error estimate, and the nodes of the area check.  psi
must be positive at the nodes of both, where its log and inverse are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as leg

from .models import RevolutionProfile

__all__ = ["PotentialTable", "build_potential"]

# sample window in u of the kernel fields: the depth per side at which a
# monomial integrand decaying at twice the pole slope has dropped by 1e-18
_TRUNC_LOG = 18.0 * math.log(10.0)
_MARGIN = 6.0
_PANEL = 1.0 / 32.0  # widest panel; the monomial peaks are 1/sqrt(4 pi m) wide in r
_GRADES = 14  # panels halve toward each pole from L/2 this many times

_X, _W = leg.leggauss(32)
_CHEB = np.cos(np.pi * np.arange(33) / 32.0)  # barycentric interpolation points
_BARY = (-1.0) ** np.arange(33) * np.r_[0.5, np.ones(31), 0.5]
_SERIES = (leg.legvander(_X, 31) * _W[:, None]).T * (np.arange(32) + 0.5)[:, None]
_INT = leg.legint(_SERIES, lbnd=-1)  # node values -> series of int_{-1}^x
_SPECTRAL, _INT_AT_CHEB = leg.legvander(_X, 32) @ _INT, leg.legvander(_CHEB, 32) @ _INT
_AT_CHEB = leg.legvander(_CHEB, 31) @ _SERIES  # node values -> values at the interpolation points


def _nodes(edges):
    half = 0.5 * np.diff(edges)
    return half, edges[:-1] + half * (1.0 + _X[:, None])


def _cumulative(f, half):
    """Running integral of f (one column per panel) at the nodes, and at the
    interpolation points with one row per panel."""
    # the running sum in extended precision: its rounding would shift u by
    # about 1e-15 across the panels, and log N_k by 2k times that
    start = np.zeros(half.size)
    start[1:] = np.cumsum(half * (_W @ f), dtype=np.longdouble)[:-1]
    return start + half * (_SPECTRAL @ f), (start + half * (_INT_AT_CHEB @ f)).T


def _interp(edges, v, r):
    """The per-panel polynomials v (k, P, 33) at radii r, shape (k, N), by the
    barycentric formula; where r falls on an interpolation point, exactly its
    stored value.  That lookup is formed only when some r falls on one."""
    p = np.minimum(np.maximum(np.searchsorted(edges, r, side="right") - 1, 0), len(edges) - 2)
    lo, hi = edges[p], edges[p + 1]
    d = np.minimum(np.maximum((2.0 * r - lo - hi) / (hi - lo), -1.0), 1.0)[:, None] - _CHEB
    hit = d == 0.0
    if hit.any():
        k = np.where(hit.any(axis=1, keepdims=True), hit, _BARY / np.where(hit, 1.0, d))
    else:
        k = np.divide(_BARY, d, out=d)
    return np.einsum("nj,knj->kn", k, np.take(v, p, axis=1)) / k.sum(axis=1)


def _logs(r, q, slopes, a_L):
    """The singular parts of u and phi at radii r, q = L - r."""
    with np.errstate(divide="ignore"):
        return np.array([np.log(r) / slopes[0] - np.log(q) / slopes[1],
                         -2.0 * a_L / slopes[1] * np.log(q)])


def _median_radius(edges, v, r0):
    """Newton on a(r) = a(L)/2 from r0: the 8th iterate, read off the cycle
    of ulps once an iterate repeats an earlier one (a fixed point: period 1)."""
    seen = [r0[0]]
    for h in range(1, 9):
        psi0, a0 = _interp(edges, v[:2], r0)
        r0 = r0 - (a0 - 0.5 * v[1, -1, 0]) / psi0
        if r0[0] in seen:  # iterate e on repeats with period h - e
            e = seen.index(r0[0])
            return np.array([seen[e + (8 - e) % (h - e)]])
        seen.append(r0[0])
    return r0


def _integrate(profile, edges, psi):
    """psi, a and u, phi less their logarithms at the interpolation points,
    the area-median radius and the rule, on edges with psi at the nodes."""
    L, (s_l, s_r) = profile.length, profile.cone_slopes
    half, r = _nodes(edges)
    a, v_a = _cumulative(psi, half)
    a_L = v_a[-1, 0]
    u, v_u = _cumulative(1.0 / psi - 1.0 / (s_l * r) - 1.0 / (s_r * (L - r)), half)
    phi, v_phi = _cumulative(2.0 * a / psi - 2.0 * a_L / (s_r * (L - r)), half)
    v = np.array([(_AT_CHEB @ psi).T, v_a, v_u, v_phi])
    r0 = _median_radius(edges, v, np.interp([0.5 * a_L], a.T.ravel(), r.T.ravel()))  # the gauge
    gauge = _interp(edges, v, r0)[2:] + _logs(r0, L - r0, (s_l, s_r), a_L)
    v[2:] -= gauge[:, :, None]
    u, phi = np.array([u, phi]) + _logs(r, L - r, (s_l, s_r), a_L) - gauge[:, :, None]
    flat = lambda x: np.broadcast_to(x, r.shape).T.ravel()
    return v, float(r0[0]), tuple(flat(x) for x in (np.log(half * _W[:, None]), u, phi, np.log(psi)))


@dataclass(frozen=True)
class PotentialTable:
    """Conformal-coordinate data of a polarized revolution profile.

    ``nodes`` and ``check_nodes`` are (log weights, u, phi, log psi) on the
    norm rule and the half-width rule; ``error`` is their largest difference
    in a, u and phi at the inner panel edges.  u is clipped to [u_min, u_max].
    ``grid(n)`` is (u, r, phi, psi) on n points evenly spaced in u over that
    window, inverted once per table and n and kept read-only.  ``locate``
    carries psi and u through its Newton steps and takes a and phi once, at
    the radii it accepts."""

    profile: RevolutionProfile = field(repr=False)
    d: int
    u_min: float
    u_max: float
    r_equator: float
    error: float
    nodes: tuple = field(repr=False, compare=False)
    check_nodes: tuple = field(repr=False, compare=False)
    _edges: np.ndarray = field(repr=False, compare=False)
    _v: np.ndarray = field(repr=False, compare=False)
    _grids: dict = field(default_factory=dict, repr=False, compare=False)

    def _state(self, r, q):
        """u, phi, psi and a at radii r, with q = L - r."""
        psi, a, u, phi = _interp(self._edges, self._v, r)
        u, phi = _logs(r, q, self.profile.cone_slopes, self._v[1, -1, 0]) + [u, phi]
        return u, phi, psi, a

    def locate(self, u):
        """r, phi, psi and a where u takes the given values: Newton in
        w = log(r/(L-r)) on the panel polynomials of psi and u, du/dr = 1/psi,
        until every |u(w) - u| <= 8e-16 (1 + |u| + |w|), or <= 1e-12 (1 + |u|)
        where a step has stopped shrinking (rounding, at a neck where du/dw is
        large); a and phi are then interpolated once, at the accepted radii."""
        u = np.clip(np.asarray(u, dtype=float), self.u_min, self.u_max)
        flat, L = u.ravel(), self.profile.length
        r = _nodes(self._edges)[1].T.ravel()
        w = np.interp(flat, self.nodes[1], np.log(r / (L - r)))
        step, floor = np.inf, False
        for _ in range(30):
            r, q = L / (1.0 + np.exp(-w)), L / (1.0 + np.exp(w))
            psi, u_w = _interp(self._edges, self._v[0:3:2], r)
            logs = _logs(r, q, self.profile.cone_slopes, self._v[1, -1, 0])
            res, last = logs[0] + u_w - flat, step
            step = res * psi * L / (r * q)
            floor = floor | (np.abs(step) >= np.abs(last))
            near = floor & (np.abs(res) <= 1e-12 * (1.0 + np.abs(flat)))
            if not ((np.abs(res) > 8e-16 * (1.0 + np.abs(flat) + np.abs(w))) & ~near).any():
                a, phi = _interp(self._edges, self._v[1::2], r)
                return [x.reshape(u.shape) for x in (r, logs[1] + phi, psi, a)]
            w = w - step
        raise ArithmeticError("u -> r inversion did not converge")

    def grid(self, n: int):
        if n not in self._grids:
            u = np.linspace(self.u_min, self.u_max, n)
            self._grids[n] = (u, *self.locate(u)[:3])
            for x in self._grids[n]:
                x.flags.writeable = False
        return self._grids[n]

    def r_of_u(self, u):
        return self.locate(u)[0]

    def u_of_r(self, r):
        """u at radii r, clipped to the sample window."""
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.profile.length)
        u = self._state(r.ravel(), self.profile.length - r.ravel())[0]
        return np.clip(u, self.u_min, self.u_max).reshape(r.shape)

    def lam(self, u):
        """Conformal factor psi(r(u))^2."""
        return self.locate(u)[2] ** 2

    def phi_prime(self, u):
        return 2.0 * self.locate(u)[3]

    def phi(self, u):
        return self.locate(u)[1]

    def band(self, lo: float, hi: float) -> tuple:
        """The norm rule on lo <= r <= hi, with fresh nodes on cut panels."""
        half, r = _nodes(np.clip(self._edges, lo, hi))
        r = r[:, half > 0.0].T.ravel()
        u, phi, psi, _ = self._state(r, self.profile.length - r)
        return np.log(half[half > 0.0, None] * _W).ravel(), u, phi, np.log(psi)


def build_potential(profile: RevolutionProfile) -> PotentialTable:
    """Integrate the chart reduction of a profile to a PotentialTable.

    The area from profile.area() is checked against the degree first; psi
    must then be positive at every node of both rules, and the panel rule's
    a(L) must agree with that area."""
    L, d = profile.length, profile.d
    if L <= 0:
        raise ValueError("profile has no positive part")
    area = profile.area()
    if abs(area - d) > 1e-8 * max(d, 1):
        raise ValueError(f"profile area {area} is not the integer degree {d}; rescale first")

    # edges at the poles, the seams and L/2 halved toward both poles; panels
    # wider than _PANEL are split evenly
    grades = 0.5 * L * 0.5 ** np.arange(_GRADES)
    e = np.unique(np.concatenate([[0.0, L], grades, L - grades, profile.seams]))
    n = np.ceil(np.diff(e) / _PANEL).astype(int)
    # edge j of an interval split in n is j * (width / n) + start, as in np.linspace
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    edges = np.append(j * np.repeat(np.diff(e) / n, n) + np.repeat(e[:-1], n), L)
    halves = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    r = [_nodes(x)[1] for x in (edges, halves)]
    psi = np.asarray(profile.psi(np.concatenate([x.ravel() for x in r])), dtype=float)
    if not (psi > 0.0).all():  # also refuses NaN
        raise ValueError(f"profile {profile.name!r}: psi must be positive on the interior")
    (v, r0, rule), (v_check, _, check) = (
        _integrate(profile, x, p.reshape(y.shape))
        for x, p, y in zip((edges, halves), np.split(psi, [r[0].size]), r))
    if not abs(v[1, -1, 0] - area / (2.0 * math.pi)) <= 5e-9:  # phi' span 2 a(L) = d/pi
        raise RuntimeError(f"degree bookkeeping failed: phi' span {2.0 * v[1, -1, 0]} "
                           f"vs {area / math.pi} from the profile's area")
    return PotentialTable(
        profile=profile, d=d, u_min=-(_TRUNC_LOG / (2.0 * profile.cone_slopes[0]) + _MARGIN),
        u_max=_TRUNC_LOG / (2.0 * profile.cone_slopes[1]) + _MARGIN, r_equator=r0,
        error=float(np.max(np.abs(v[1:, 1:, -1] - v_check[1:, 2::2, -1]))),
        nodes=rule, check_nodes=check, _edges=edges, _v=v)
