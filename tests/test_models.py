import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bergman import models
from bergman.models import (
    PerturbedPotential,
    RevolutionProfile,
    eval_f_k,
    f_k_alpha,
    f_k_domain_end,
    make_cone_family,
    make_cyclic_weights,
    rescale_to_area,
    round_sphere,
)


class TestCyclicWeights:
    def test_single_pair(self):
        w = make_cyclic_weights([(1, 3)])
        assert w.n == 1 and w.q == 3

    def test_lcm(self):
        w = make_cyclic_weights([(1, 3), (1, 5)])
        assert w.n == 2 and w.q == 15

    def test_coprimality_rejected(self):
        with pytest.raises(ValueError, match=r"gcd\(2,4\)"):
            make_cyclic_weights([(2, 4)])

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            make_cyclic_weights([(1, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_cyclic_weights([])

    def test_p_normalized_mod_q(self):
        w = make_cyclic_weights([(7, 5)])
        assert w.pairs == ((2, 5),)

    def test_phases(self):
        w = make_cyclic_weights([(1, 4)])
        assert np.allclose(w.phases(1), [math.pi / 2])

    def test_sigma_is_rotation(self):
        w = make_cyclic_weights([(1, 3), (2, 5)])
        z = np.array([1 + 1j, 0.5 - 2j])
        assert np.allclose(np.abs(z * np.exp(1j * w.phases(1))), np.abs(z))

    @pytest.mark.parametrize("pairs", [[(1, 213)], [(7, 60), (11, 360)],
                                       [(1, 8), (2, 9), (3, 35)]])  # q = 213, 360, 2520
    def test_characters_are_cos_sin_exp_of_phases(self, pairs):
        w = make_cyclic_weights(pairs)
        theta = w.phases(np.arange(w.q))
        e = w.characters
        assert e.shape == (w.q, w.n) and e.dtype == complex
        assert e.real.tobytes() == np.cos(theta).tobytes()
        assert e.imag.tobytes() == np.sin(theta).tobytes()
        assert e.tobytes() == np.exp(1j * theta).tobytes()

    def test_characters_cached_read_only_and_outside_equality(self):
        w = make_cyclic_weights([(1, 3), (2, 5)])
        assert w.characters is w.characters
        with pytest.raises(ValueError, match="read-only"):
            w.characters[1, 0] = 1.0
        fresh = make_cyclic_weights([(1, 3), (2, 5)])  # its table is not built
        assert w == fresh and hash(w) == hash(fresh)
        assert w.characters[2].tobytes() == np.exp(1j * w.phases(2)).tobytes()

    @pytest.mark.parametrize("pairs", [[(1, 5000011)], [(1, 1500007)] * 3])
    def test_character_table_is_bounded(self, pairs):
        # q n above MAX_CHARACTERS is refused before the table is allocated
        w = make_cyclic_weights(pairs)
        assert w.q * w.n > models.MAX_CHARACTERS == 1 << 22
        with pytest.raises(ValueError, match="character table entries"):
            w.characters


class TestFk:
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_continuity_at_junctions(self, k):
        a = f_k_alpha(k)
        for j in (a, a + math.pi / 2):
            lo = eval_f_k(k, j - 1e-9)
            hi = eval_f_k(k, j + 1e-9)
            assert abs(hi - lo) < 1e-7

    def test_alpha_value(self):
        assert math.isclose(f_k_alpha(2), math.acos(1.0 / 3.0) / 4)

    def test_endpoint_zero(self):
        for k in (1, 4):
            assert abs(eval_f_k(k, f_k_domain_end(k))) < 1e-12

    def test_slope_one_at_origin(self):
        h = 1e-8
        assert abs(eval_f_k(7, h) / h - 1.0) < 1e-6

    @pytest.mark.parametrize("k", [1, 3, 10, 10**5])
    def test_branches_on_their_own_points(self, k):
        # each branch evaluated on its own points, bit for bit the form that
        # evaluated all three everywhere and picked one; alpha_k and
        # alpha_k + pi/2 open the branch they start
        a, end = f_k_alpha(k), f_k_domain_end(k)
        s2 = math.sqrt(2.0)

        def all_branches(r):
            return np.where(r < a, np.sin(2 * k * r) / (2 * k), np.where(
                r < a + math.pi / 2, s2 / (3 * k) + np.sin(r - a) / 3.0,
                (k + s2) / (3 * k) * np.sin(math.pi / 2 + 3 * k * (r - a - math.pi / 2) / (k + s2))))

        marks = [0.0, a, a + math.pi / 2, end]
        r = np.concatenate([marks, np.nextafter(marks, 1.0), np.nextafter(marks, -1.0)[1:],
                            np.random.default_rng(k).uniform(0.0, end, 3000)])
        r = r[r <= end]
        assert eval_f_k(k, r).tobytes() == all_branches(r).tobytes()
        for x in marks:
            assert type(eval_f_k(k, x)) is float
            assert eval_f_k(k, x) == float(all_branches(np.float64(x)))
        assert eval_f_k(k, 0.0) == 0.0 and eval_f_k(k, a) == s2 / (3 * k)
        assert eval_f_k(k, a + math.pi / 2) == (k + s2) / (3 * k)
        assert abs(eval_f_k(k, end)) < 1e-12

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            eval_f_k(3, f_k_domain_end(3) + 0.1)
        with pytest.raises(ValueError):
            eval_f_k(0, 0.1)


class TestConeFamily:
    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_curvature_bound_holds(self, k, monkeypatch):
        prof = make_cone_family(k)
        assert isinstance(prof, RevolutionProfile) and prof.length == f_k_domain_end(k)
        assert models.CONE_KAPPA == 0.05
        # -psi''/psi < 1 on the middle branch, so a bound of 10 must be refused
        monkeypatch.setattr(models, "CONE_KAPPA", 10.0)
        with pytest.raises(ValueError, match="curvature bound"):
            make_cone_family(k)

    @pytest.mark.parametrize("k", [2, 8])
    def test_exact_agreement_outside_windows(self, k):
        prof = make_cone_family(k)
        a = f_k_alpha(k)
        end = prof.length
        rs = np.concatenate([
            np.linspace(0.0, a / 2 - 1e-9, 40),
            np.linspace(a + 2 * math.pi / 3, end, 40),
        ])
        assert np.max(np.abs(prof.psi(rs) - eval_f_k(k, rs))) == 0.0

    def test_c2_seams(self):
        # second differences continuous across every seam of the blend
        p = make_cone_family(6)
        r = np.linspace(1e-3, p.length - 1e-3, 40001)
        h = r[1] - r[0]
        v = np.asarray(p.psi(r))
        d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        jumps = np.abs(np.diff(d2))
        assert np.max(jumps) < 0.05  # scale ~ max|psi'''| * h

    def test_positive_interior(self):
        p = make_cone_family(4)
        r = np.linspace(1e-6, p.length - 1e-6, 5001)
        assert np.all(np.asarray(p.psi(r)) > 0)

    @pytest.mark.parametrize("k", [2, 8, 40, 10**4])
    def test_vector_call_equals_scalar_calls(self, k):
        # each point lands on its own piece: seams, their float neighbours,
        # random points and both ends, in shuffled order
        prof = make_cone_family(k)
        seams = np.array(prof.seams)
        rng = np.random.default_rng(k)
        r = np.concatenate([seams, np.nextafter(seams, -1.0), np.nextafter(seams, 9.0),
                            rng.uniform(0.0, prof.length, 301), [0.0, prof.length]])
        rng.shuffle(r)
        scalar = [prof.psi(float(x)) for x in r]
        assert all(type(v) is float for v in scalar)
        assert prof.psi(r).tobytes() == np.array(scalar).tobytes()
        assert prof.psi(r.reshape(-1, 2)).tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("k", [2, 8, 40, 10**4])
    def test_edge_inputs(self, k):
        prof = make_cone_family(k)
        for bad in (-1e-3, prof.length + 1e-3, [0.1, -math.inf], [math.inf, 0.1]):
            with pytest.raises(ValueError, match="outside"):
                prof.psi(bad)
        assert math.isnan(prof.psi(math.nan))
        both = prof.psi(np.array([math.nan, 0.5]))
        assert math.isnan(both[0]) and both[1] == prof.psi(0.5)
        empty = prof.psi(np.array([]))
        assert empty.shape == (0,) and empty.dtype == float

    def test_area_decreases_toward_cone_limit(self):
        areas = [make_cone_family(k).area() for k in (2, 5, 10)]
        assert areas[0] > areas[1] > areas[2] > 8 * math.pi / 9


class TestRoundSphereAndRescale:
    def test_round_area_equals_degree(self):
        for d in (1, 3):
            assert abs(round_sphere(d).area() - d) < 1e-10

    def test_round_area_within_rounding_of_degree(self):
        for d in range(1, 11):
            assert abs(round_sphere(d).area() - d) <= 2e-16 * d
        # the tolerance scales with the integral, so a large sphere converges
        # as a small one does
        for d in (10**3, 10**4, 10**6):
            assert abs(round_sphere(d).area() / d - 1.0) <= 1e-15

    @pytest.mark.parametrize("k", [10, 20, 40, 300, 1000, 5000])
    def test_cone_area_equals_adaptive_quad(self, k):
        # every first panel is accepted, so the rule adds what quad adds; the
        # shipped cone outputs (k = 10, 20, 40) rest on this
        prof = make_cone_family(k)
        seams = [s for s in prof.seams if 0.0 < s < prof.length]
        ref, _ = quad(prof.psi, 0.0, prof.length, points=seams, epsabs=0.0,
                      epsrel=1e-12, limit=500)
        assert prof.area() == 2.0 * math.pi * ref

    @pytest.mark.parametrize("psi", [
        lambda r: np.where(np.asarray(r) < 1.0 / math.pi, 1.0, 0.5),
        lambda r: 1.0 + 1e-9 * np.sin(1e12 * np.asarray(r)),
    ], ids=["jump", "fast-oscillation"])
    def test_area_that_cannot_converge_fails_loudly(self, psi):
        # the 21-point rule on the one panel and on its halves disagree by
        # more than the tolerance, so the area is refused
        prof = RevolutionProfile(length=1.0, psi=psi, d=1, cone_slopes=(1.0, 1.0))
        with pytest.raises(ArithmeticError, match="did not converge"):
            prof.area()

    def test_rescale_hits_target_area(self):
        prof = rescale_to_area(make_cone_family(5), 1)
        assert abs(prof.area() - 1.0) < 1e-9

    def test_rescale_idempotent(self):
        p1 = rescale_to_area(round_sphere(), 1)
        assert p1 is round_sphere() or abs(p1.area() - 1.0) < 1e-12

    def test_rescale_preserves_pole_slopes(self):
        p = rescale_to_area(make_cone_family(3), 1)
        h = 1e-7
        assert abs(p.psi(h) / h - 1.0) < 1e-4


class TestPerturbedPotential:
    def test_cutoff_plateau_and_support(self):
        pert = PerturbedPotential(6)
        assert pert.cutoff(0.0)[0] == 1.0 and pert.cutoff(0.5)[0] == 1.0
        assert pert.cutoff(1.0)[0] == 0.0 and pert.cutoff(2.0)[0] == 0.0
        # eta' and eta'' vanish exactly off the transition band (1/2, 1)
        _, d1, d2 = pert.cutoff([0.0, 1e-300, 0.25, 0.5, 1.0, 1.5, 1e300])
        assert np.all(d1 == 0.0) and np.all(d2 == 0.0)

    def test_cutoff_derivatives_match_fd(self):
        pert = PerturbedPotential(6)
        eta = lambda x: pert.cutoff(x)[0]
        h = 1e-4
        for x in (0.6, 0.75, 0.9):
            fd1 = (eta(x + h) - eta(x - h)) / (2 * h)
            fd2 = (eta(x + h) - 2 * eta(x) + eta(x - h)) / h**2
            _, d1, d2 = pert.cutoff(x)
            assert abs(fd1 - d1) < 1e-6
            assert abs(fd2 - d2) < 1e-3

    def test_phi_amplitude_and_support(self):
        pert = PerturbedPotential(4)
        z = 0.2 + 0.1j
        assert abs(pert.phi(z)) <= 4.0 ** -4
        assert pert.phi(1.5 + 0.2j) == 0.0

    def test_laplacian_matches_fd(self):
        pert = PerturbedPotential(3)
        h = 1e-5
        # off the axes, at the origin and on the cutoff's seams |z| = 1/2 and 1
        for z in (0.1 + 0.2j, 0.6 + 0.1j, 0.3 - 0.55j, 0j, 0.5 * cmath.exp(0.7j),
                  cmath.exp(2.1j)):
            fd = (pert.phi(z + h) + pert.phi(z - h) + pert.phi(z + 1j * h)
                  + pert.phi(z - 1j * h) - 4 * pert.phi(z)) / h**2
            assert abs(fd - pert.fields(z.real, z.imag, abs(z))[1]) < 1e-4
