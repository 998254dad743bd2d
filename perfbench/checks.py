"""Correctness checks used by the benchmark workloads.

Every check compares a program output against a computation made here, with
plain numpy, or against a property the method must have.  None compares
against a stored copy of an earlier output.  A failed check raises
``CheckFailed``; the workloads turn that into ``correct: false``.
"""

from __future__ import annotations

import math

import numpy as np

# flat C/Z_3 witness: the closed form at the first resonance phase
EPS_WITNESS = 1.0 - 2.0 * math.exp(-math.sqrt(3.0) * math.pi)

# the field quadrature of the Gram path carries a known O(h^2) error of about
# 4.5e-5 (m+1) (5.8e-3 at m = 128); the bound is twice that, so a later exact
# quadrature passes too
GRAM_INTEGRAL_REL = 1e-4


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(value, expected, rel: float, what: str, abs_tol: float = 0.0) -> None:
    value = float(value)
    expected = float(expected)
    tol = rel * abs(expected) + abs_tol
    require(math.isfinite(value) and abs(value - expected) <= tol,
            f"{what}: {value!r} vs {expected!r} (tolerance {tol:.3g})")


# --------------------------------------------------------------------------
# flat orbifolds C^n / Z_q
# --------------------------------------------------------------------------

def closed_form_sum(pairs, z) -> np.ndarray:
    """q-term character sum of the flat kernel at one or more points.

    rho(z) = sum_j exp(pi sum_l |z_l|^2 (e^{2 pi i j p_l / q_l} - 1)), real
    part; ``z`` has shape (n,) or (N, n)."""
    p = np.array([a for a, _ in pairs], dtype=float)
    ql = np.array([b for _, b in pairs], dtype=float)
    q = math.lcm(*(b for _, b in pairs))
    s = np.abs(np.atleast_2d(np.asarray(z, dtype=complex))) ** 2       # (N, n)
    phase = np.exp(2j * math.pi * np.outer(np.arange(q), p / ql))      # (q, n)
    expo = math.pi * (s[:, None, :] * (phase[None, :, :] - 1.0)).sum(axis=2)
    out = np.exp(expo).real.sum(axis=1)
    return out if np.ndim(z) > 1 else out[0]


def check_certificate(pairs, r, j) -> None:
    """Cosine and sine conditions of a resonance certificate.

    S(k) = sum_l r_l cos(2 pi k p_l / q_l) must be largest at k in {j, q-j}
    over k = 1..q-1, strictly above every other k, and the sine sum at j must
    not vanish."""
    q = math.lcm(*(b for _, b in pairs))
    r = np.asarray(r, dtype=float)
    require(r.shape == (len(pairs),) and np.all(r >= 0) and np.any(r > 0),
            f"certificate ray {r} is not a nonnegative nonzero direction")
    require(1 <= j <= q - 1, f"certificate index j={j} outside 1..{q - 1}")
    theta = 2.0 * math.pi * np.outer(np.arange(q), [a / b for a, b in pairs])
    S = np.cos(theta) @ r
    others = [k for k in range(1, q) if k not in (j, q - j)]
    if others:
        gap = S[j] - S[others].max()
        require(gap > 0, f"cosine condition fails: margin {gap:.3g} at j={j}")
    sin_sum = float(np.sin(theta[j]) @ r)
    require(abs(sin_sum) >= 1e-9, f"sine condition fails: sin sum {sin_sum:.3g}")


def check_rho_origin(value, q) -> None:
    close(value, q, 1e-12, "rho(0) = q")


def check_witness(pairs, z, rho) -> None:
    """The witness is a sub-unity point of the benchmark's own closed form,
    and the program's value agrees with it."""
    own = float(closed_form_sum(pairs, z))
    require(own < 1.0, f"witness has own rho {own!r} >= 1")
    q = math.lcm(*(b for _, b in pairs))
    close(rho, own, 1e-9, "witness rho vs own sum", abs_tol=1e-12 * q)


def check_ray_minimum(pairs, direction, t_max, nodes, t_star, rho_star) -> None:
    """min_on_ray returns the own sum at its t, and nothing on the scan grid
    lies below it."""
    q = math.lcm(*(b for _, b in pairs))
    slack = 1e-12 * q
    sq = np.sqrt(np.asarray(direction, dtype=float))
    require(0.0 < t_star <= t_max * (1 + 1e-12), f"ray minimum t={t_star} off (0, {t_max}]")
    own = float(closed_form_sum(pairs, t_star * sq))
    close(rho_star, own, 1e-9, "ray minimum vs own sum", abs_tol=slack)
    ts = np.linspace(t_max / nodes, t_max, nodes)
    scan = closed_form_sum(pairs, ts[:, None] * sq[None, :])
    worst = float(scan.min())
    require(rho_star <= worst + slack + 1e-9 * abs(worst),
            f"ray minimum {rho_star!r} above scan node value {worst!r}")


def check_oracle(closed, oracle, tail_bound, q) -> None:
    require(abs(closed - oracle) <= tail_bound + 1e-12 * q,
            f"closed form {closed!r} and oracle {oracle!r} differ by more than "
            f"the tail bound {tail_bound:.3g}")


# --------------------------------------------------------------------------
# cone-family sweep
# --------------------------------------------------------------------------

def check_eps_witness(eps_witness) -> None:
    close(eps_witness, EPS_WITNESS, 0.0, "eps_witness = 1 - 2 exp(-sqrt(3) pi)",
          abs_tol=1e-10)


def dip_rule(inf_norm, sup_norm, argmin_r, m, eps_witness) -> bool:
    """The documented verdict rule, written out here from its statement."""
    eps = 1.0 - eps_witness
    return (inf_norm <= 1.0 - eps / 2.0
            and argmin_r <= 3.0 / math.sqrt(m)
            and 2.4 <= sup_norm <= 3.3)


def check_verdict(row, eps_witness) -> None:
    want = dip_rule(row.inf_norm, row.sup_norm, row.argmin_r, row.m, eps_witness)
    require(bool(row.verdict) == want,
            f"verdict {row.verdict} at k={row.k} m={row.m}, rule gives {want}")


def check_dip(row, eps_witness) -> None:
    """The cone signature at a well-resolved cell (k = 40, m <= 100)."""
    eps = 1.0 - eps_witness
    require(row.inf_norm <= 1.0 - eps / 2.0,
            f"k={row.k} m={row.m}: inf rho/m = {row.inf_norm!r} is not below 1 - eps/2")
    require(2.4 <= row.sup_norm <= 3.3,
            f"k={row.k} m={row.m}: sup rho/m = {row.sup_norm!r} outside [2.4, 3.3]")
    require(row.argmin_r <= 3.0 / math.sqrt(row.m),
            f"k={row.k} m={row.m}: argmin r = {row.argmin_r!r} beyond 3/sqrt(m)")


def check_dimension(integral, m, d: int = 1, tol: float = 1e-6) -> None:
    """int rho_m dA equals the section count md+1."""
    close(integral, m * d + 1, 0.0, f"int rho_{m} dA = {m * d + 1}", abs_tol=tol)


def check_gram_dimension(integral, m) -> None:
    check_dimension(integral, m, tol=GRAM_INTEGRAL_REL * (m + 1))


# --------------------------------------------------------------------------
# expansion diagnostics
# --------------------------------------------------------------------------

def check_round_constant(values, m) -> None:
    """On the round sphere rho_m is the constant m+1."""
    v = np.asarray(values, dtype=float)
    dev = float(np.max(np.abs(v / (m + 1) - 1.0))) if v.size else math.inf
    require(dev <= 1e-8, f"round sphere rho_{m} deviates from {m + 1} by {dev:.3g} relative")


def check_fscurrent_round(m, value) -> None:
    close(value, math.log(m + 1) / m, 1e-8, f"round fscurrent at m={m}")


def check_decreasing(values, what: str) -> None:
    v = [float(x) for x in values]
    require(all(a > b for a, b in zip(v, v[1:])), f"{what} not decreasing: {v}")


def check_lp_round(m, value) -> None:
    close(value, 1.0 / m, 1e-8, f"round L1 deviation at m={m}")


def check_halving(l1_by_m) -> None:
    """Each doubling of m divides the perturbed L1 deviation by 1.5 to 3."""
    ms = sorted(l1_by_m)
    for a, b in zip(ms, ms[1:]):
        ratio = l1_by_m[a] / l1_by_m[b]
        require(1.5 <= ratio <= 3.0, f"L1 ratio m={a}->{b} is {ratio:.4g}, outside [1.5, 3]")


def check_cpn(n, m, value) -> None:
    want = math.prod(m + i for i in range(1, n + 1))
    require(int(value) == want and float(value) == want,
            f"CP^{n} kernel at m={m} is {value!r}, want {want}")


def check_tyz(n, a1) -> None:
    close(a1, n * (n + 1) / 2.0, 1e-9, f"a1 on CP^{n}")


def check_positive(values, what: str) -> None:
    v = np.asarray(values, dtype=float)
    require(v.size > 0 and np.all(np.isfinite(v)) and np.all(v > 0),
            f"{what}: values not finite and positive")


def check_peak_tail(m, radius, tail, rho0) -> None:
    """Peak section at the pole of the area-1 round sphere.

    It is the FS section with |s|^2 ~ cos(theta/2)^{2m}, so the mass beyond
    polar angle Theta = radius / a (a = 1/sqrt(4 pi)) is cos(Theta/2)^{2(m+1)}."""
    a = 1.0 / math.sqrt(4.0 * math.pi)
    close(tail, math.cos(0.5 * radius / a) ** (2 * (m + 1)), 1e-8,
          f"peak-section tail at m={m}")
    close(rho0, m + 1, 1e-8, f"peak-section rho at the pole, m={m}")
