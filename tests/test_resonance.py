import itertools
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bergman import resonance
from bergman.models import make_cyclic_weights
from bergman.orbifold import min_on_ray, rho_closed
from bergman.resonance import (
    ResonanceCertificate,
    construct_certificate,
    find_subunity_point,
    verify_certificate,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded orbifold systems)


def random_weight_systems(count, seed, q_max=60, n_max=3):
    """Deterministic battery of coprime weight systems with 3 <= q <= q_max."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, n_max + 1))
        pairs = []
        for _ in range(n):
            q = int(rng.integers(2, 13))
            ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
            pairs.append((int(rng.choice(ps)), q))
        w = make_cyclic_weights(pairs)
        if 3 <= w.q <= q_max:
            out.append(w)
    return out


class TestVerifier:
    def test_accepts_known_certificate(self):
        w = make_cyclic_weights([(1, 3)])
        cert = ResonanceCertificate(r=(1.0,), j=1, margin=0.0, sin_sum=0.0)
        ok, margin, argmax = verify_certificate(w, cert)
        assert ok and margin > 0 and argmax == {1, 2}

    def test_rejects_bad_index(self):
        w = make_cyclic_weights([(1, 3)])
        ok, _, _ = verify_certificate(
            w, ResonanceCertificate(r=(1.0,), j=0, margin=0.0, sin_sum=0.0))
        assert not ok

    def test_rejects_degenerate_sine(self):
        # q = 4, j = 2 has sin = 0: never a valid certificate index
        w = make_cyclic_weights([(1, 4)])
        ok, _, _ = verify_certificate(
            w, ResonanceCertificate(r=(1.0,), j=2, margin=0.0, sin_sum=0.0))
        assert not ok


class TestConstruction:
    @pytest.mark.parametrize("pairs", [
        [(1, 3)], [(2, 5)], [(1, 7)],
        [(1, 3), (1, 5)], [(1, 4), (1, 3)], [(2, 7), (1, 4)],
        [(1, 3), (1, 4), (1, 5)], [(1, 8), (3, 8)], [(5, 12), (1, 5)],
    ])
    def test_constructed_certificates_verify(self, pairs):
        w = make_cyclic_weights(pairs)
        cert = construct_certificate(w)
        ok, margin, argmax = verify_certificate(w, cert)
        assert ok and margin > 0
        assert argmax == {cert.j, w.q - cert.j}

    @pytest.mark.parametrize("pairs,j,r", [
        ([(1, 3)], 1, (1.0,)),
        ([(1, 8), (1, 12), (1, 3)], 1, (1.0, 1.0, 0.0)),
        ([(1, 4), (1, 3)], 3, (1.0, 1.0)),
        ([(1, 2), (1, 3)], 2, (1.0, 1.0)),
    ])
    def test_pinned_certificate_per_branch(self, pairs, j, r):
        cert = construct_certificate(make_cyclic_weights(pairs))
        assert cert.j == j
        assert cert.r == pytest.approx(r, rel=1e-12, abs=0.0)
        assert all(type(x) is float for x in cert.r)

    def test_q_too_small_rejected(self):
        with pytest.raises(ValueError):
            construct_certificate(make_cyclic_weights([(1, 2)]))

    def test_ray_weights_nonnegative(self):
        cert = construct_certificate(make_cyclic_weights([(1, 6), (1, 4)]))
        assert all(x >= 0 for x in cert.r)

    @pytest.mark.parametrize("pairs", [[(1, 3)], [(1, 2), (1, 3)],
                                       [(2, 5), (101, 210), (43, 90), (3, 20)]])
    def test_one_exhaustive_check_per_certificate(self, pairs, monkeypatch):
        # the search's own check is the only one: the certificate is not
        # verified a second time on the same r and j
        calls = []
        verify = resonance.verify_certificate
        monkeypatch.setattr(resonance, "verify_certificate",
                            lambda w, cert: calls.append(cert) or verify(w, cert))
        cert = construct_certificate(make_cyclic_weights(pairs))
        assert [(c.r, c.j) for c in calls] == [(cert.r, cert.j)]


FALLBACK_PAIRS = [(2, 5), (101, 210), (43, 90), (3, 20)]  # no resonance phase dips below 1


class TestSubUnity:
    def test_z3_witness_values(self):
        w = make_cyclic_weights([(1, 3)])
        cert = construct_certificate(w)
        wit = find_subunity_point(w, cert)
        assert wit.rho < 1.0 and wit.k == 0
        assert abs(wit.t ** 2 - 2.0 / math.sqrt(3.0)) < 1e-9
        assert abs(wit.rho - (1 - 2 * math.exp(-math.sqrt(3) * math.pi))) < 1e-10

    def test_witness_is_on_ray(self):
        w = make_cyclic_weights([(1, 4), (1, 3)])
        cert = construct_certificate(w)
        wit = find_subunity_point(w, cert)
        assert wit.rho < 1.0
        assert abs(rho_closed(w, np.array(wit.z)) - wit.rho) < 1e-12
        assert all(type(x) is complex for x in wit.z)

    def test_ray_scan_fallback(self):
        # the certificate's sine sum is -4.5e-4, so no phase t_k with k <= 50
        # dips below 1; min_on_ray's scan of the ray finds the witness (k = -1)
        w = make_cyclic_weights(FALLBACK_PAIRS)
        wit = find_subunity_point(w, construct_certificate(w))
        assert wit.k == -1 and wit.rho < 1.0
        assert wit.rho == rho_closed(w, np.array(wit.z))

    @pytest.mark.parametrize("k_max", [50, 500, 5000])
    def test_fallback_scan_ends_at_first_phase(self, k_max):
        # the scan covers (0, t_0] with its 2048 nodes, whatever k_max is: a
        # window that grew with k_max would step past the narrow dip at t = 1.013
        w = make_cyclic_weights(FALLBACK_PAIRS)
        cert = construct_certificate(w)
        wit = find_subunity_point(w, cert, k_max=k_max)
        assert (wit.k, wit.t, wit.rho) == (-1, 1.0128794406368138, 0.1718757387535193)
        assert (wit.t, wit.rho) == min_on_ray(w, cert.r, math.sqrt(1.0 / abs(cert.sin_sum)), 2048)

    def test_phases_formed_one_at_a_time(self):
        # the C/Z_3 witness is the first phase, and k_max = 10^6 allocates no
        # array of its 10^6 phases on the way
        w = make_cyclic_weights([(1, 3)])
        cert = construct_certificate(w)
        tracemalloc.start()
        try:
            wit = find_subunity_point(w, cert, k_max=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wit == find_subunity_point(w, cert) and wit.k == 0
        assert peak < 1 << 20

    def test_phase_confirmed_by_rho_closed(self, monkeypatch):
        # a ray sum that reads every phase as below 1: the witness is still
        # the first phase whose rho_closed is below 1, with that value
        w = make_cyclic_weights([(1, 4), (1, 3)])
        cert = construct_certificate(w)
        ts = np.sqrt((2.0 * np.arange(51) + 1.0) / abs(cert.sin_sum))
        rhos = rho_closed(w, ts[:, None] * np.sqrt(cert.r))
        monkeypatch.setattr(resonance, "_ray", lambda w, r: lambda x: np.zeros(np.shape(x)))
        monkeypatch.setattr(resonance, "rho_closed",
                            lambda w, z: 1.0 if np.all(z == ts[0] * np.sqrt(cert.r)) else
                            rho_closed(w, z))
        wit = find_subunity_point(w, cert)
        k = int(np.flatnonzero(rhos[1:] < 1.0)[0]) + 1
        assert wit.k == k and wit.rho == rhos[k] < 1.0

    @pytest.mark.parametrize("best", [1.0, 1.25, math.nan])
    def test_no_dip_raises_naming_best_rho(self, best, monkeypatch):
        # no phase dips below 1 on the ray sum, and the ray scan's minimum is
        # not below 1 either: the search raises and names that minimum
        w = make_cyclic_weights([(1, 3)])
        cert = construct_certificate(w)
        monkeypatch.setattr(resonance, "_ray", lambda w, r: lambda x: np.ones(np.shape(x)))
        monkeypatch.setattr(resonance, "min_on_ray", lambda w, r, t_max, nodes: (0.5, best))
        with pytest.raises(ArithmeticError, match=f"no sub-unity point found; best rho = {best!r}$"):
            find_subunity_point(w, cert)

    def test_kmax_validation(self):
        w = make_cyclic_weights([(1, 3)])
        cert = construct_certificate(w)
        with pytest.raises(ValueError):
            find_subunity_point(w, cert, k_max=0)


class TestCharacterTable:
    def test_margin_equals_cosine_reference(self):
        """verify_certificate's margin equals min(S[j] - S[rivals]) with S from
        np.cos of the phases, bit for bit, on constructed and random rays."""
        rng = np.random.default_rng(14)
        for w in random_weight_systems(240, seed=14, q_max=1000):
            cert = construct_certificate(w)
            for r, j in ((np.array(cert.r), cert.j),
                         (rng.uniform(0.0, 1.0, w.n), int(rng.integers(1, w.q)))):
                S = np.cos(w.phases(np.arange(w.q))) @ r
                k = np.arange(1, w.q)
                k = k[(k != j) & (k != w.q - j)]
                ref = float(np.min(S[j] - S[k], initial=math.inf))
                _, margin, _ = verify_certificate(w, ResonanceCertificate(tuple(r), j, 0.0, 1.0))
                assert margin == ref, w.pairs
            assert cert.margin == verify_certificate(w, cert)[1]


class TestBattery:
    def test_battery_certificates_and_subunity(self):
        systems = random_weight_systems(200, seed=777)
        for w in systems:
            cert = construct_certificate(w)
            ok, margin, _ = verify_certificate(w, cert)
            assert ok, f"certificate failed for {w.pairs}"
            wit = find_subunity_point(w, cert)
            assert wit.rho < 1.0 and wit.k <= 50, f"no sub-unity point for {w.pairs}"


def _coprime_battery(seed, count, n_of, draw_q, q_max):
    """count systems from random.Random(seed): system i has n_of(i)
    coordinates with q_l = draw_q(rng), redrawn until 3 <= lcm <= q_max, then
    p_l uniform in 1..q_l-1 and coprime to q_l."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        qs = [draw_q(rng) for _ in range(n_of(len(out)))]
        if 3 <= math.lcm(*qs) <= q_max:
            pairs = []
            for ql in qs:
                p = rng.randrange(1, ql)
                while math.gcd(p, ql) != 1:
                    p = rng.randrange(1, ql)
                pairs.append((p, ql))
            out.append(tuple(pairs))
    return out


ORDERS_B = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 24, 30, 36, 45, 60, 72, 90, 120,
            180, 210, 360)
MARGIN_FLOOR = 1e-9


BATTERIES = {
    # A: n = 1, 2, 3 in turn, q_l uniform in 2..60, q <= 3000
    "A": (7, 1200, lambda i: 1 + i % 3, lambda rng: rng.randint(2, 60), 3000),
    # B: n = 2, 3, 4 in turn, q_l from highly composite orders, q <= 20000
    "B": (11, 1500, lambda i: 2 + i % 3, lambda rng: rng.choice(ORDERS_B), 20000),
    # wide: n = 5 .. 10 in turn, q_l from the first 19 of those orders, q <= 20000
    "wide": (5, 600, lambda i: 5 + i % 6, lambda rng: rng.choice(ORDERS_B[:19]), 20000),
}


@pytest.mark.parametrize("battery", BATTERIES.values(), ids=BATTERIES.keys())
def test_certificate_battery(battery):
    """Every certificate verifies, clears MARGIN_FLOOR, and passes a check
    with unreduced phases cos(2 pi k p_l / q_l)."""
    for pairs in _coprime_battery(*battery):
        w = make_cyclic_weights(pairs)
        cert = construct_certificate(w)
        ok, margin, argmax = verify_certificate(w, cert)
        assert ok and margin >= MARGIN_FLOOR and argmax == {cert.j, w.q - cert.j}, pairs
        theta = 2.0 * math.pi * np.outer(np.arange(w.q), [p / ql for p, ql in pairs])
        S = np.cos(theta) @ np.array(cert.r)
        rivals = [k for k in range(1, w.q) if k not in (cert.j, w.q - cert.j)]
        assert S[cert.j] - np.max(S[rivals], initial=-math.inf) >= MARGIN_FLOOR, pairs
        assert abs(np.sin(theta[cert.j]) @ np.array(cert.r)) >= resonance.SIN_MIN, pairs


def _full_row_search(w):
    """The certificate search with a screen over all rows k = 1..q-1, one
    direction at a time: the first direction whose near-maximal set is a
    conjugate pair {j, q-j} alone, j < q/2, with a sine sum, that verifies."""
    for d in itertools.islice(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(w.n), s) for s in itertools.count(1)),
            resonance.MAX_SEARCH_DIRECTIONS):
        r = np.bincount(d, minlength=w.n)
        S = w.characters.real[1:] @ r
        near = set((np.flatnonzero(S >= S.max() - resonance.MARGIN_MIN) + 1).tolist())
        j = min(near)
        if near == {j, w.q - j} and 2 * j != w.q and abs(w.characters.imag[j] @ r) >= resonance.SIN_MIN:
            cert = resonance._certify(w, r.astype(float), j)
            if cert is not None:
                return cert
    return None


@pytest.mark.parametrize("name", [*BATTERIES, "perfbench"])
def test_half_row_screen_matches_full_rows(name):
    # the search screens rows 1..q/2 only; its certificates, margins and sine
    # sums equal those of a screen over every row, bit for bit, on each
    # battery and on the systems of perfbench's orbifold seeds 1 to 3
    systems = (_coprime_battery(*BATTERIES[name]) if name in BATTERIES else
               [p for seed in (1, 2, 3) for p in workloads.orbifold_inputs(seed)["systems"]])
    for pairs in systems:
        w = make_cyclic_weights(pairs)
        assert construct_certificate(w) == _full_row_search(w), pairs


@pytest.mark.parametrize("pairs", [
    [(1, 2)] * 3 + [(1, 3)] + [(1, 2)] * 3,
    [(1, 2)] * 14 + [(1, 3)],  # 2^15 points in {0, 1}^15 alone exceed the cap
    [(1, 2)] * 199 + [(1, 3)],  # so do the comb(201, 2) directions of sum 2
], ids=["n7", "n15", "n200"])
def test_many_coordinates_search_small_sums_first(pairs, monkeypatch):
    # e_1 + e_l certifies, with l the (1, 3) coordinate.  The e_l of a
    # (1, 2) coordinate has its cosine maximum at {2, 4} alone but no sine
    # sum, so the verifier sees only the certificate
    w = make_cyclic_weights(pairs)
    calls = []
    certify = resonance._certify
    monkeypatch.setattr(resonance, "_certify", lambda *a: calls.append(a) or certify(*a))
    cert = construct_certificate(w)
    assert verify_certificate(w, cert)[0] and cert.j == 2 and len(calls) == 1
    assert np.flatnonzero(cert.r).tolist() == [0, pairs.index((1, 3))] and sum(cert.r) == 2


@pytest.mark.parametrize("cap, found", [(3, False), (4, True)])
def test_search_cap_counts_directions(cap, found, monkeypatch):
    # on C^2 the search tries e_1, e_2, 2 e_1, then e_1 + e_2, which
    # certifies 1/2,1/3; a cap of 3 stops before it
    monkeypatch.setattr(resonance, "MAX_SEARCH_DIRECTIONS", cap)
    w = make_cyclic_weights([(1, 2), (1, 3)])
    if found:
        assert resonance._direction_search(w).r == (1.0, 1.0)
    else:
        with pytest.raises(RuntimeError, match="no certificate"):
            resonance._direction_search(w)
