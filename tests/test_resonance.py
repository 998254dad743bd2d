import math

import numpy as np
import pytest

from bergman.models import make_cyclic_weights
from bergman.orbifold import rho_closed
from bergman.resonance import (
    ResonanceCertificate,
    construct_certificate,
    find_subunity_point,
    verify_certificate,
)


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
        ([(1, 3)], 1, (1.0,)),                                            # base case
        ([(1, 8), (1, 12), (1, 3)], 1, (1.0, 6.478215600015481, 0.0)),    # q / q' = 1
        ([(1, 4), (1, 3)], 9, (1.0, 1.6666666666666667)),                 # _combine
        ([(1, 2), (1, 3)], 4, (1.3660254037844375, 1.1547005383792508)),  # LP fallback
    ])
    def test_pinned_certificate_per_branch(self, pairs, j, r):
        cert = construct_certificate(make_cyclic_weights(pairs))
        assert cert.j == j
        assert cert.r == pytest.approx(r, rel=1e-12, abs=0.0)

    def test_q_too_small_rejected(self):
        with pytest.raises(ValueError):
            construct_certificate(make_cyclic_weights([(1, 2)]))

    def test_ray_weights_nonnegative(self):
        cert = construct_certificate(make_cyclic_weights([(1, 6), (1, 4)]))
        assert all(x >= 0 for x in cert.r)


class TestSubUnity:
    def test_z3_witness_values(self):
        w = make_cyclic_weights([(1, 3)])
        cert = construct_certificate(w)
        wit = find_subunity_point(w, cert)
        assert wit.found and wit.k == 0
        assert abs(wit.t ** 2 - 2.0 / math.sqrt(3.0)) < 1e-9
        assert abs(wit.rho - (1 - 2 * math.exp(-math.sqrt(3) * math.pi))) < 1e-10

    def test_witness_is_on_ray(self):
        w = make_cyclic_weights([(1, 4), (1, 3)])
        cert = construct_certificate(w)
        wit = find_subunity_point(w, cert)
        assert wit.found and wit.rho < 1.0
        assert abs(rho_closed(w, np.array(wit.z)) - wit.rho) < 1e-12

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
            assert wit.found and wit.k <= 50, f"no sub-unity point for {w.pairs}"
            assert wit.rho < 1.0
