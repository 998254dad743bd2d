"""Resonance certificates and sub-unity kernel points on C^n/Z_q.

A certificate is a ray direction r >= 0 and an index j in [1, q-1] such that
the j-th character's cosine sum strictly dominates every other character's
(except the conjugate q-j) and its sine sum does not vanish.  Along the ray
z = t sqrt(r) this makes the kernel dip below 1 at phases where the dominant
oscillatory term hits cos = -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import MAX_CHARACTERS, CyclicWeights
from .orbifold import _ray, min_on_ray, rho_closed

__all__ = [
    "ResonanceCertificate",
    "SubUnityWitness",
    "construct_certificate",
    "verify_certificate",
    "find_subunity_point",
]

SIN_MIN = 1e-9
MARGIN_MIN = 1e-9  # cosine margin a searched direction must clear
MAX_SEARCH_DIRECTIONS = 1 << 14  # integer ray directions the search may try


@dataclass(frozen=True)
class ResonanceCertificate:
    r: tuple[float, ...]
    j: int
    margin: float
    sin_sum: float


@dataclass(frozen=True)
class SubUnityWitness:
    z: tuple[complex, ...]
    rho: float
    k: int
    t: float


def _sin_sum(w: CyclicWeights, r: np.ndarray, j: int) -> float:
    return float(w.characters[j].imag.copy() @ r)


def _rivals(q: int, j: int) -> np.ndarray:
    """The characters a certificate at j must beat: {1..q-1} minus {j, q-j}."""
    k = np.arange(1, q)
    return k[(k != j) & (k != q - j)]


def verify_certificate(w: CyclicWeights, cert: ResonanceCertificate):
    """Exhaustive check of both certificate conditions.

    Returns (ok, margin, argmax_set).  The argmax set of the cosine sum over
    k = 1..q-1 must be exactly {j, q-j}.
    """
    r = np.asarray(cert.r, dtype=float)
    j = cert.j
    if not (1 <= j <= w.q - 1):
        return False, -math.inf, set()
    S = w.characters.real.copy() @ r  # cosine sums; a strided view moves them by ulps
    margin = float(np.min(S[j] - S[_rivals(w.q, j)], initial=math.inf))
    argmax = set((np.flatnonzero(S[1:] >= S[1:].max() - 1e-12) + 1).tolist())
    ok = (margin > 0) and (argmax == {j, w.q - j}) and abs(_sin_sum(w, r, j)) >= SIN_MIN
    return bool(ok), margin, argmax


def _certify(w: CyclicWeights, r: np.ndarray, j: int) -> ResonanceCertificate | None:
    """The certificate (r, j) with its margin and sine sum, or None if it
    fails the exhaustive verifier."""
    cert = ResonanceCertificate(tuple(r.tolist()), j, 0.0, _sin_sum(w, r, j))
    ok, margin, _ = verify_certificate(w, cert)
    return ResonanceCertificate(cert.r, j, margin, cert.sin_sum) if ok else None


def _direction_search(w: CyclicWeights) -> ResonanceCertificate:
    """Search the first MAX_SEARCH_DIRECTIONS integer ray directions r >= 0,
    in order of their sum |r| = 1, 2, 3, ..., for a certificate, then raise.
    A direction of sum s is a multiset of s coordinates; one with a common
    factor g certifies only as r/g, which comes first.  Conjugate characters
    k and q-k share their cosine sum, so the screen reads rows k = 1..q/2
    only.  The cosine sums of a block of directions are one matrix product,
    its factors and result of at most MAX_CHARACTERS entries; a direction
    whose near-maximal set over those rows (within MARGIN_MIN) is one row
    j < q/2, with a sine sum of at least SIN_MIN, goes to the exhaustive
    verifier, which reads all q-1 rows."""
    q, n = w.q, w.n
    cos_t = w.characters.real[1:q // 2 + 1].copy()  # rows k = 1..q/2
    block = max(1, min(16, MAX_CHARACTERS // max(q, n)))  # most systems certify in the first block
    directions = itertools.islice(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n), s) for s in itertools.count(1)),
        MAX_SEARCH_DIRECTIONS)
    while chunk := list(itertools.islice(directions, block)):
        R = np.zeros((len(chunk), n), dtype=np.int64)
        np.add.at(R, (np.repeat(np.arange(len(chunk)), [len(c) for c in chunk]),
                      np.concatenate(chunk)), 1)
        S = R @ cos_t.T  # one row of cosine sums per direction
        j = S.argmax(axis=1) + 1  # column k is character k+1
        alone = np.count_nonzero(S >= S.max(axis=1, keepdims=True) - MARGIN_MIN, axis=1) == 1
        alone &= (2 * j != q) & (np.abs(np.sum(w.characters.imag[j] * R, axis=1)) >= SIN_MIN)
        for c in np.flatnonzero(alone).tolist():
            cert = _certify(w, R[c].astype(float), int(j[c]))
            if cert is not None:
                return cert
    raise RuntimeError(f"no certificate for Z_{q} on C^{n} among the first "
                       f"{MAX_SEARCH_DIRECTIONS} integer ray directions")


def construct_certificate(w: CyclicWeights) -> ResonanceCertificate:
    """Build a resonance certificate for q >= 3 by a search over integer ray
    directions in order of increasing sum.  The search stops after at most
    MAX_SEARCH_DIRECTIONS directions with RuntimeError ("no certificate",
    exit code 1 in the CLI).  It returns the search's certificate, which
    passed the exhaustive verifier once, in _certify.
    """
    if w.q <= 2:
        raise ValueError("resonance requires q >= 3")
    return _direction_search(w)


def find_subunity_point(w: CyclicWeights, cert: ResonanceCertificate,
                        k_max: int = 50) -> SubUnityWitness:
    """Scan the resonance phases t_k^2 = (2k+1)/|sin_sum|, k = 0..k_max, for rho < 1.

    The closed form carries pi inside the exponent, so the oscillatory phase
    at t is pi t^2 sin_sum; t_k lands it on (2k+1) pi, where the dominant
    character contributes -1.  The ray sum reads phase 0 alone, then blocks of
    2, 4, ... up to 1024 phases; the first phase whose ray sum and rho_closed
    are below 1 is the witness.  Else it is min_on_ray's 2048-node scan of
    (0, t_0], Brent-refined (k = -1), whatever k_max is, or ArithmeticError
    naming that minimum if not below 1 either.  A witness's rho is rho_closed's.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    r, s = np.asarray(cert.r, dtype=float), abs(cert.sin_sum)
    if s < SIN_MIN:
        raise ValueError("certificate sine sum too small")
    sq, f, t, k = np.sqrt(r), _ray(w, r), math.sqrt(1.0 / s), 1
    if f(t * t) < 1.0 and (rho := rho_closed(w, z := t * sq)) < 1.0:  # phase 0
        return SubUnityWitness(tuple(map(complex, z)), rho, 0, t)
    while k <= k_max:  # phases k .. 2k, at most 1024 of them
        ts = np.sqrt(np.arange(2 * k + 1, 2 * min(2 * k + 1, k + 1024, k_max + 1), 2) / s)
        for i, v in enumerate(f(ts * ts).tolist()):  # the first phase rho_closed confirms
            if v < 1.0 and (rho := rho_closed(w, z := ts[i] * sq)) < 1.0:
                return SubUnityWitness(tuple(map(complex, z)), rho, k + i, float(ts[i]))
        k += len(ts)
    t_star, rho_star = min_on_ray(w, r, t, nodes=2048)
    if not rho_star < 1.0:
        raise ArithmeticError(f"no sub-unity point found; best rho = {rho_star!r}")
    return SubUnityWitness(tuple(map(complex, t_star * sq)), rho_star, -1, t_star)
