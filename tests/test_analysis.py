import dataclasses
import math

import numpy as np
import pytest

from bergman.analysis import (
    cone_sweep,
    flat_z3_witness_value,
    fs_current_sup,
    lp_deviation,
    scalar_curvature_profile,
    sweep_verdicts,
    tyz_a1_estimate,
)
from bergman.gram import GramModel, gram_matrix, perturbed_scalar_curvature, rho_gram
from bergman.kernels import rho_revolution
from bergman.models import (
    PerturbedPotential,
    RevolutionProfile,
    make_cone_family,
    make_cyclic_weights,
    rescale_to_area,
    f_k_alpha,
    round_sphere,
)
from bergman.resonance import construct_certificate, find_subunity_point


class TestTyz:
    def test_sphere(self):
        a1, resid = tyz_a1_estimate(11, 21, 10, 20, 1)
        assert abs(a1 - 1.0) < 1e-12 and abs(resid) < 1e-12

    def test_cp2(self):
        a1, resid = tyz_a1_estimate(11 * 12, 21 * 22, 10, 20, 2)
        assert abs(a1 - 3.0) < 1e-12 and abs(resid - 2.0) < 1e-12

    def test_pure_leading_term(self):
        a1, resid = tyz_a1_estimate(100, 400, 10, 20, 2)
        assert a1 == 0.0 and resid == 0.0

    def test_equal_powers_rejected(self):
        with pytest.raises(ValueError):
            tyz_a1_estimate(1.0, 2.0, 5, 5, 1)


class TestScalarCurvature:
    def test_round_sphere_is_two(self):
        p = round_sphere()
        for r in (0.1, 0.3, p.length / 2, 0.0, p.length):
            assert abs(scalar_curvature_profile(p, r) - 2.0) < 1e-5

    def test_flat_region_is_zero(self):
        psi = lambda r: np.minimum(np.minimum(np.asarray(r), 0.2), 1.0 - np.asarray(r))
        p = RevolutionProfile(length=1.0, psi=psi, d=1, cone_slopes=(1.0, 1.0))
        assert abs(scalar_curvature_profile(p, 0.5)) < 1e-10

    def test_cone_point_reports_infinite(self):
        psi = lambda r: np.asarray(r) / 3.0
        p = RevolutionProfile(length=1.0, psi=psi, d=1, cone_slopes=(1 / 3, 1.0))
        assert scalar_curvature_profile(p, 0.0) == math.inf

    def test_second_branch_analytic_value(self):
        # away from the smoothing windows psi'' = -sin(r - alpha)/3 exactly
        # (constant shifts from smoothing do not change psi''), so
        # S = (sin(r - alpha)/3) / psi / (2 pi)
        k = 6
        p = make_cone_family(k)
        a = f_k_alpha(k)
        r = a + 0.9  # far from both smoothing windows
        x = math.sin(r - a) / 3.0
        expected = x / float(p.psi(r)) / (2 * math.pi)
        assert abs(scalar_curvature_profile(p, r) - expected) < 1e-5

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            scalar_curvature_profile(round_sphere(), -0.1)


class TestLpDeviation:
    def test_round_sphere_exact(self):
        fld = rho_revolution(round_sphere(), 10)
        for p in (1.0, 2.0, math.inf):
            assert abs(lp_deviation(fld, p) - 0.1) < 1e-9

    def test_monotone_in_p(self):
        fld = rho_revolution(rescale_to_area(make_cone_family(4), 1), 1)
        d1 = lp_deviation(fld, 1.0)
        d2 = lp_deviation(fld, 2.0)
        di = lp_deviation(fld, math.inf)
        assert d1 <= d2 + 1e-12 <= di + 1e-12

    def test_sup_formula(self):
        fld = rho_revolution(rescale_to_area(make_cone_family(3), 1), 1)
        di = lp_deviation(fld, math.inf)
        m = fld.m
        assert abs(di - max(abs(fld.inf / m - 1), abs(fld.sup / m - 1))) < 1e-12

    def test_validation(self):
        fld = rho_revolution(round_sphere(), 3)
        for bad in (0.5, math.nan):
            with pytest.raises(ValueError):
                lp_deviation(fld, bad)


class TestFsCurrent:
    def test_round_value(self):
        fld = rho_revolution(round_sphere(), 10)
        assert abs(fs_current_sup(fld) - math.log(11) / 10) < 1e-9

    def test_monotone_decrease_round(self):
        vals = [fs_current_sup(rho_revolution(round_sphere(), m))
                for m in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gauge_shift(self):
        fld = rho_revolution(round_sphere(), 10)
        c = 5.0
        scaled = dataclasses.replace(fld, values=fld.values * math.exp(c * fld.m))
        shift = fs_current_sup(scaled) - fs_current_sup(fld)
        assert abs(shift - c) < math.log(11) / 10  # c dominates log rho / m

    def test_positivity_required(self):
        fld = rho_revolution(round_sphere(), 3)
        bad = dataclasses.replace(fld, values=fld.values - fld.values)
        with pytest.raises(ValueError):
            fs_current_sup(bad)


class TestLuCheck:
    def test_a1_tracks_half_scalar_curvature(self):
        # perturbed sphere; two-point estimates converge to S/2 with the
        # error roughly halving as m doubles
        pert = PerturbedPotential(5)
        models = {}
        for m in (8, 16, 32, 64):
            model = GramModel(m, pert)
            models[m] = (model, gram_matrix(model))
        pts = [complex(x, y) for x in (-0.3, -0.15, 0.0, 0.15, 0.3)
               for y in (-0.3, -0.1, 0.1, 0.3)]
        err = {}
        for m in (8, 16, 32):
            errs = []
            for z in pts:
                r1 = rho_gram(models[m][1], models[m][0], z)
                r2 = rho_gram(models[2 * m][1], models[2 * m][0], z)
                a1, _ = tyz_a1_estimate(r1, r2, m, 2 * m, 1)
                s_half = perturbed_scalar_curvature(pert, z.real, z.imag) / 2
                errs.append(abs(a1 - s_half))
            err[m] = max(errs)
        assert 1.5 <= err[8] / err[16] <= 3.0
        assert 1.5 <= err[16] / err[32] <= 3.0


class TestSweep:
    def test_witness_value(self):
        assert abs(flat_z3_witness_value()
                   - (1 - 2 * math.exp(-math.sqrt(3) * math.pi))) < 1e-10

    def test_witness_value_is_the_z3_pipeline_witness(self):
        # the closed form is the value the certificate search and witness scan
        # find on C/Z_3, at its first phase
        w = make_cyclic_weights([(1, 3)])
        wit = find_subunity_point(w, construct_certificate(w))
        assert wit.k == 0 and abs(flat_z3_witness_value() - wit.rho) <= 1e-15

    def test_verdict_rule(self):
        eps_w = 0.9913
        assert sweep_verdicts(0.99, 2.8, 0.05, 100, eps_w)
        assert not sweep_verdicts(0.999, 2.8, 0.05, 100, eps_w)   # dip too shallow
        assert not sweep_verdicts(0.99, 3.5, 0.05, 100, eps_w)    # spike too high
        assert not sweep_verdicts(0.99, 2.8, 0.9, 100, eps_w)     # argmin far away

    def test_sweep_report_and_determinism(self):
        rep = cone_sweep([10], [25])
        assert len(rep.rows) == 1
        row = rep.rows[0]
        # verdict reproducible from the stored numbers
        assert row.verdict == sweep_verdicts(row.inf_norm, row.sup_norm,
                                             row.argmin_r, row.m, rep.eps_witness)
        csv1 = rep.to_csv()
        csv2 = cone_sweep([10], [25]).to_csv()
        assert csv1 == csv2
        assert csv1.splitlines()[0] == "k,m,inf_norm,sup_norm,argmin_r,l1,l2,linf,verdict"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cone_sweep([], [25])
