"""Experiment drivers: expansion-coefficient extraction, curvature profiles,
L^p deviation statistics, and the cone-family sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .kernels import KernelField, rho_revolution
from .models import RevolutionProfile, make_cone_family, rescale_to_area
from .potential import build_potential

__all__ = [
    "ExpansionReport",
    "SweepRow",
    "tyz_a1_estimate",
    "scalar_curvature_profile",
    "lp_deviation",
    "fs_current_sup",
    "cone_sweep",
    "sweep_verdicts",
    "flat_z3_witness_value",
]


def tyz_a1_estimate(rho_m1: float, rho_m2: float, m1: int, m2: int, n: int):
    """First subleading expansion coefficient from two kernel values.

    Solves rho_i - m_i^n = a1 m_i^{n-1} + resid m_i^{n-2} for (a1, resid);
    the residual absorbs higher-order contamination and is reported so it is
    visible.  Returns (a1, resid)."""
    if m1 == m2 or m1 < 1 or m2 < 1:
        raise ValueError("need two distinct tensor powers >= 1")
    A = np.array([[float(m1) ** (n - 1), float(m1) ** (n - 2)],
                  [float(m2) ** (n - 1), float(m2) ** (n - 2)]])
    b = np.array([rho_m1 - float(m1) ** n, rho_m2 - float(m2) ** n])
    a1, resid = np.linalg.solve(A, b)
    return float(a1), float(resid)


def scalar_curvature_profile(profile: RevolutionProfile, r: float) -> float:
    """Scalar curvature S = K_G/(2 pi), K_G = -psi''/psi by second differences
    with step 1e-4 L on a profile of length L.

    Normalized so the round area-1 sphere gives S = 2 (matching a1 = 1).
    At a pole the one-sided limit is used; a pole slope below 1 marks a cone
    point and the value returned is +inf."""
    L = profile.length
    if not (0.0 <= r <= L):
        raise ValueError("r outside the profile domain")
    h = 1e-4 * L
    if r < h or r > L - h:
        slope = profile.cone_slopes[0] if r < h else profile.cone_slopes[1]
        if slope < 1.0 - 1e-9:
            return math.inf
        r = min(max(r, 2 * h), L - 2 * h)  # one-sided: step inward
    p0 = float(profile.psi(r))
    d2 = (float(profile.psi(r + h)) - 2.0 * p0 + float(profile.psi(r - h))) / (h * h)
    return -d2 / p0 / (2.0 * math.pi)


def lp_deviation(field: KernelField, p: float) -> float:
    """Volume-normalized L^p norm of rho/m - 1 over the samples.

    Weights are the field's area elements; p = inf gives the sup deviation."""
    if not p >= 1:  # also rejects NaN
        raise ValueError("p must be >= 1 (or inf)")
    dev = np.abs(field.values / float(field.m) - 1.0)
    if math.isinf(p):
        return float(np.max(dev))
    w = field.weights
    vol = float(np.sum(w))
    if vol <= 0:
        raise ValueError("field has zero volume weight")
    return float((np.sum(w * dev ** p) / vol) ** (1.0 / p))


def fs_current_sup(field: KernelField) -> float:
    """sup |log rho_m| / m over the samples (current-normalization diagnostic)."""
    vals = np.asarray(field.values, dtype=float)
    if np.any(vals <= 0):
        raise ValueError("field values must be strictly positive")
    return float(np.max(np.abs(np.log(vals))) / field.m)


def flat_z3_witness_value() -> float:
    """Kernel value 1 - 2 e^{-sqrt(3) pi} of the flat C/Z_3 model at its first
    resonance phase |z|^2 = 2/sqrt(3), find_subunity_point's witness there: the
    epsilon witness the sweep verdicts compare against."""
    return 1.0 - 2.0 * math.exp(-math.sqrt(3.0) * math.pi)


@dataclass(frozen=True)
class SweepRow:
    k: int
    m: int
    inf_norm: float   # m^{-1} inf rho
    sup_norm: float   # m^{-1} sup rho
    argmin_r: float
    l1: float
    l2: float
    linf: float
    verdict: bool


@dataclass(frozen=True)
class ExpansionReport:
    rows: tuple = ()
    eps_witness: float = 0.0

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write("k,m,inf_norm,sup_norm,argmin_r,l1,l2,linf,verdict\n")
        for r in self.rows:
            buf.write(f"{r.k},{r.m},{r.inf_norm:.12g},{r.sup_norm:.12g},"
                      f"{r.argmin_r:.12g},{r.l1:.12g},{r.l2:.12g},{r.linf:.12g},"
                      f"{int(r.verdict)}\n")
        return buf.getvalue()

    def summary(self) -> str:
        lines = [f"cone sweep: {len(self.rows)} cells, "
                 f"flat-model witness {self.eps_witness:.9f}"]
        for r in self.rows:
            tag = "DIP" if r.verdict else "smooth"
            lines.append(
                f"  k={r.k:<4d} m={r.m:<5d} inf/m={r.inf_norm:.6f} "
                f"sup/m={r.sup_norm:.6f} argmin r={r.argmin_r:.4f}  [{tag}]")
        return "\n".join(lines)


def sweep_verdicts(inf_norm: float, sup_norm: float, argmin_r: float, m: int,
                   eps_witness: float) -> bool:
    """Deterministic dip verdict for one sweep cell.

    True when the normalized infimum sits below 1 - eps/2 (eps from the flat
    C/Z_3 witness, with a 2x safety factor), the argmin is within 3 m^{-1/2}
    of the cone pole, and the spike is in the flat-model window."""
    eps = 1.0 - eps_witness
    return (inf_norm <= 1.0 - 0.5 * eps
            and argmin_r <= 3.0 / math.sqrt(m)
            and 2.4 <= sup_norm <= 3.3)


def cone_sweep(k_list, m_list, n_samples: int = 1024) -> ExpansionReport:
    """Kernel statistics of the area-1 cone-approximation family on a (k, m) grid."""
    k_list = list(k_list)
    m_list = list(m_list)
    if not k_list or not m_list:
        raise ValueError("k and m lists must be non-empty")
    eps_witness = flat_z3_witness_value()
    rows = []
    for k in k_list:
        prof = rescale_to_area(make_cone_family(k), 1)
        table = build_potential(prof)
        for m in m_list:
            fld = rho_revolution(prof, m, table=table, n_samples=n_samples)
            inf_n = fld.inf / m
            sup_n = fld.sup / m
            rows.append(SweepRow(
                k=k, m=m, inf_norm=inf_n, sup_norm=sup_n, argmin_r=fld.argmin_r,
                l1=lp_deviation(fld, 1.0), l2=lp_deviation(fld, 2.0),
                linf=lp_deviation(fld, math.inf),
                verdict=sweep_verdicts(inf_n, sup_n, fld.argmin_r, m, eps_witness),
            ))
    return ExpansionReport(rows=tuple(rows), eps_witness=eps_witness)
