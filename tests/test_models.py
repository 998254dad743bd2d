import math

import numpy as np
import pytest

from bergman.models import (
    PerturbedPotential,
    cone_approx_profile,
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
        assert np.allclose(np.abs(w.sigma(z)), np.abs(z))


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

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            eval_f_k(3, f_k_domain_end(3) + 0.1)
        with pytest.raises(ValueError):
            eval_f_k(0, 0.1)


class TestConeFamily:
    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_curvature_bound_holds(self, k):
        fam = make_cone_family(k)
        assert fam.kappa == 0.05
        assert fam.alpha_k == f_k_alpha(k)

    @pytest.mark.parametrize("k", [2, 8])
    def test_exact_agreement_outside_windows(self, k):
        fam = make_cone_family(k)
        a = fam.alpha_k
        end = fam.profile.length
        rs = np.concatenate([
            np.linspace(0.0, a / 2 - 1e-9, 40),
            np.linspace(a + 2 * math.pi / 3, end, 40),
        ])
        assert np.max(np.abs(fam.profile.psi(rs) - eval_f_k(k, rs))) == 0.0

    def test_c2_seams(self):
        # second differences continuous across every seam of the blend
        p = cone_approx_profile(6)
        r = np.linspace(1e-3, p.length - 1e-3, 40001)
        h = r[1] - r[0]
        v = np.asarray(p.psi(r))
        d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        jumps = np.abs(np.diff(d2))
        assert np.max(jumps) < 0.05  # scale ~ max|psi'''| * h

    def test_positive_interior(self):
        p = cone_approx_profile(4)
        r = np.linspace(1e-6, p.length - 1e-6, 5001)
        assert np.all(np.asarray(p.psi(r)) > 0)

    def test_area_decreases_toward_cone_limit(self):
        areas = [make_cone_family(k).profile.area() for k in (2, 5, 10)]
        assert areas[0] > areas[1] > areas[2] > 8 * math.pi / 9


class TestRoundSphereAndRescale:
    def test_round_area_equals_degree(self):
        for d in (1, 3):
            assert abs(round_sphere(d).area() - d) < 1e-10

    def test_rescale_hits_target_area(self):
        prof = rescale_to_area(make_cone_family(5).profile, 1)
        assert abs(prof.area() - 1.0) < 1e-9

    def test_rescale_idempotent(self):
        p1 = rescale_to_area(round_sphere(), 1)
        assert p1 is round_sphere() or abs(p1.area() - 1.0) < 1e-12

    def test_rescale_preserves_pole_slopes(self):
        p = rescale_to_area(make_cone_family(3).profile, 1)
        h = 1e-7
        assert abs(p.psi(h) / h - 1.0) < 1e-4


class TestPerturbedPotential:
    def test_cutoff_plateau_and_support(self):
        pert = PerturbedPotential(6)
        assert pert.cutoff(0.0) == 1.0 and pert.cutoff(0.5) == 1.0
        assert pert.cutoff(1.0) == 0.0 and pert.cutoff(2.0) == 0.0

    def test_cutoff_derivatives_match_fd(self):
        pert = PerturbedPotential(6)
        h = 1e-4
        for x in (0.6, 0.75, 0.9):
            fd1 = (pert.cutoff(x + h) - pert.cutoff(x - h)) / (2 * h)
            fd2 = (pert.cutoff(x + h) - 2 * pert.cutoff(x) + pert.cutoff(x - h)) / h**2
            assert abs(fd1 - pert.cutoff_d1(x)) < 1e-6
            assert abs(fd2 - pert.cutoff_d2(x)) < 1e-3

    def test_phi_amplitude_and_support(self):
        pert = PerturbedPotential(4)
        z = 0.2 + 0.1j
        assert abs(pert.phi(z)) <= 4.0 ** -4
        assert pert.phi(1.5 + 0.2j) == 0.0

    def test_laplacian_matches_fd(self):
        pert = PerturbedPotential(3)
        h = 1e-5
        for z in (0.1 + 0.2j, 0.6 + 0.1j, 0.3 - 0.55j):
            fd = (pert.phi(z + h) + pert.phi(z - h) + pert.phi(z + 1j * h)
                  + pert.phi(z - 1j * h) - 4 * pert.phi(z)) / h**2
            assert abs(fd - pert.laplacian_phi(z)) < 1e-4
