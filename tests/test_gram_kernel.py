import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from bergman import gram, potential
from bergman.gram import (
    GramModel,
    fs_log_norms,
    gram_matrix,
    perturbed_area_density,
    perturbed_scalar_curvature,
    rho_gram,
    rho_gram_field,
)
from bergman.kernels import (
    cpn_fs_exact,
    cpn_fs_oracle,
    kernel_area_integral,
    log_monomial_norms,
    logsumexp,
    monomial_norms,
    peak_section_tail,
    rho_at_u,
    rho_revolution,
)
from bergman.models import (
    PerturbedPotential,
    RevolutionProfile,
    make_cone_family,
    rescale_to_area,
    round_sphere,
)
from bergman.potential import build_potential

R_UNIT = 1.0 / math.sqrt(4.0 * math.pi)  # round area-1 sphere radius


def _quad(f, a, b, seams):
    """Adaptive quadrature split at the seams between a and b."""
    pts = [s for s in seams if min(a, b) < s < max(a, b)]
    return quad(f, a, b, points=pts or None, limit=400, epsabs=0.0, epsrel=2e-14)[0]


def _nested_state(prof, r0, radii):
    """(u, phi) at radii, gauged to vanish at r0, by nested adaptive
    quadrature of the profile alone: a(s) = int_0^s psi inside
    phi = int 2a/psi.  The logarithms at the poles are subtracted first."""
    L, psi, seams = prof.length, prof.psi, prof.seams
    s_l, s_r = prof.cone_slopes
    a_L = _quad(psi, 0.0, L, seams)
    starts = np.unique([*np.linspace(0.0, L, 33)[:-1], *seams])
    a_start = np.cumsum([0.0, *(_quad(psi, x, y, ()) for x, y in zip(starts[:-1], starts[1:]))])

    def a(s):  # from the last start below s: one short smooth piece per inner quad
        i = np.searchsorted(starts, s) - 1
        return a_start[i] + _quad(psi, starts[i], s, ())

    out = []
    for r in radii:
        log_r, log_q = math.log(r / r0), math.log((L - r) / (L - r0))
        u = log_r / s_l - log_q / s_r + _quad(
            lambda x: 1.0 / psi(x) - 1.0 / (s_l * x) - 1.0 / (s_r * (L - x)), r0, r, seams)
        phi = -2.0 * a_L / s_r * log_q + _quad(
            lambda x: 2.0 * a(x) / psi(x) - 2.0 * a_L / (s_r * (L - x)), r0, r, seams)
        out.append((u, phi))
    return np.array(out)


@pytest.fixture(scope="module")
def round_table():
    return build_potential(round_sphere())


@pytest.fixture(scope="module")
def cone8_table():
    return build_potential(rescale_to_area(make_cone_family(8), 1))


@pytest.fixture(scope="module")
def cone40_table():
    return build_potential(rescale_to_area(make_cone_family(40), 1))


class TestPotential:
    def test_degree_bookkeeping(self, round_table):
        t = round_table
        span = t.phi_prime(t.u_max) - t.phi_prime(t.u_min)
        assert abs(span - 1.0 / math.pi) < 1e-8

    def test_phi_matches_fs_closed_form(self, round_table):
        # phi_FS(u) = (log(1+e^{2u}) - log 2) / (2 pi), same gauge
        u = np.linspace(-3.0, 3.0, 101)
        phi_fs = (np.logaddexp(0.0, 2.0 * u) - math.log(2.0)) / (2.0 * math.pi)
        assert np.max(np.abs(round_table.phi(u) - phi_fs)) < 1e-10

    def test_phi_second_difference_is_2lambda(self, round_table):
        u = np.linspace(-2.0, 2.0, 41)
        h = 1e-4
        d2 = (round_table.phi(u + h) - 2 * round_table.phi(u)
              + round_table.phi(u - h)) / h**2
        assert np.max(np.abs(d2 - 2.0 * round_table.lam(u))) < 1e-6

    def test_phi_convex_monotone_slope(self, cone8_table):
        u = np.linspace(cone8_table.u_min, cone8_table.u_max, 512)
        slopes = cone8_table.phi_prime(u)
        assert np.all(np.diff(slopes) > -1e-14)

    def test_area_mismatch_rejected(self):
        prof = make_cone_family(5)  # area far from integer degree
        with pytest.raises(ValueError):
            build_potential(prof)

    def test_area_check_precedes_ode(self, monkeypatch):
        # the panel rule took the place of the ODE solve
        monkeypatch.setattr(potential, "_integrate", None)
        with pytest.raises(ValueError, match="rescale first"):
            build_potential(make_cone_family(5))

    @pytest.mark.parametrize("k", [None, 10, 40])
    def test_equator_halves_area(self, k):
        # k=None is the round sphere
        prof = round_sphere() if k is None else rescale_to_area(make_cone_family(k), 1)
        t = build_potential(prof)
        half, _ = quad(prof.psi, 0.0, t.r_equator, limit=400, epsabs=0.0, epsrel=1e-13)
        assert abs(2.0 * math.pi * half - 0.5 * prof.d) < 1e-12

    def test_cone_build_psi_budget(self):
        prof = rescale_to_area(make_cone_family(40), 1)
        calls = 0

        def counting_psi(r):
            nonlocal calls
            calls += 1
            return prof.psi(r)

        build_potential(dataclasses.replace(prof, psi=counting_psi))
        assert calls <= 6000

    def test_round_r_of_u_closed_form(self, round_table):
        # r(u) = 2R atan(e^u) on the round sphere, over the whole sample window
        t = round_table
        u = np.linspace(t.u_min, t.u_max, 2001)
        exact = 2.0 * R_UNIT * np.arctan(np.exp(u))
        assert np.max(np.abs(t.r_of_u(u) / exact - 1.0)) < 1e-13

    def test_unseamed_kink_area_refused(self):
        # a corner off every seam: the one-pass area rule cannot resolve it
        # on its panel, and refuses the profile before any table is built
        apex = 1.0 / math.pi  # area 2 pi int psi = pi * apex = 1
        psi = lambda r: np.where(np.asarray(r) < apex, r, apex * (1.0 - np.asarray(r)) / (1.0 - apex))
        prof = RevolutionProfile(length=1.0, psi=psi, d=1, cone_slopes=(1.0, apex / (1.0 - apex)))
        with pytest.raises(ArithmeticError, match="did not converge"):
            build_potential(prof)

    def test_degree_bookkeeping_mismatch_fails(self, monkeypatch):
        # panel weights off by 1e-6 move a(L) away from the profile's area
        monkeypatch.setattr(potential, "_W", potential._W * (1.0 + 1e-6))
        with pytest.raises(RuntimeError, match="degree bookkeeping failed"):
            build_potential(round_sphere())

    @pytest.mark.parametrize("k", [None, 10, 10_000])
    def test_gauge_equals_eight_newton_steps(self, monkeypatch, k):
        # the gauge's Newton loop stops when an iterate repeats; the table
        # equals, bit for bit, the one from a fixed loop of 8 steps
        prof = round_sphere() if k is None else rescale_to_area(make_cone_family(k), 1)
        got = build_potential(prof)

        def eight_steps(edges, v, r0):
            for _ in range(8):
                psi0, a0, _, _ = potential._interp(edges, v, r0)
                r0 = r0 - (a0 - 0.5 * v[1, -1, 0]) / psi0
            return r0

        monkeypatch.setattr(potential, "_median_radius", eight_steps)
        want = build_potential(prof)
        assert got.r_equator == want.r_equator
        for a, b in zip(got.nodes + got.check_nodes, want.nodes + want.check_nodes):
            assert a.tobytes() == b.tobytes()

    def test_nonpositive_psi_refused(self):
        # area 1, seams at the edges of a bump of height 0.5 that takes psi
        # below zero on |r/c - 0.3| < 0.01; built directly, so only the table checks it
        base = lambda r: np.sin(math.pi * r) / math.pi - np.where(np.abs(r - 0.3) < 0.01, 0.5, 0.0)
        c = 1.0 / math.sqrt(4.0 / math.pi - 0.02 * math.pi)
        prof = RevolutionProfile(length=c, psi=lambda r: c * base(np.asarray(r) / c), d=1,
                                 cone_slopes=(1.0, 1.0), seams=(0.29 * c, 0.31 * c))
        assert abs(prof.area() - 1.0) < 1e-12
        with pytest.raises(ValueError, match="psi must be positive"):
            build_potential(prof)


# few distinct values, so rows tie at their maximum; -inf entries and whole
# -inf rows included
_LSE_ENTRY = st.one_of(st.sampled_from([-math.inf, -2.5, 0.0, 1.0, 3.0]),
                       st.floats(-800.0, 800.0))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(_LSE_ENTRY, min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_bits_equal_scipy(self, rows):
        a = np.array(rows)
        for x, axis in ((a, None), (a, 1), (a[0], None)):
            with np.errstate(divide="ignore"):
                want = np.asarray(scipy.special.logsumexp(x, axis=axis))
            got = np.asarray(logsumexp(x, axis=axis))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_ties_and_infinite_rows(self):
        a = np.array([[1.0, 1.0, 0.0], [-math.inf] * 3, [2.0, -math.inf, 2.0]])
        with np.errstate(divide="ignore"):
            want = scipy.special.logsumexp(a, axis=1)
        assert logsumexp(a, axis=1).tobytes() == want.tobytes()
        assert logsumexp(a[1]) == -math.inf


class TestMonomialNorms:
    def test_round_sphere_closed_form(self, round_table):
        for m in (17, 400):
            k = np.arange(m + 1)
            exact = (math.log(2 * math.pi * R_UNIT**2) + (m + 1) * math.log(2)
                     + gammaln(k + 1) + gammaln(m - k + 1) - gammaln(m + 2))
            assert np.max(np.abs(log_monomial_norms(round_table, m) - exact)) < 1e-10

    def test_cone_matches_adaptive_quad(self, cone40_table):
        # independent adaptive quadrature of N_k, shifted by the peak of the
        # log-integrand so that the integrand stays in floating-point range
        t, m = cone40_table, 100
        logN = log_monomial_norms(t, m)
        grid = np.linspace(t.u_min, t.u_max, 4001)
        for k in (0, 1, 50):
            def log_f(u):
                return 2.0 * k * u - 2.0 * math.pi * m * t.phi(u) + np.log(t.lam(u))
            shift = float(np.max(log_f(grid)))
            val, _ = quad(lambda u: math.exp(float(log_f(u)) - shift),
                          t.u_min, t.u_max, limit=400, epsabs=0.0, epsrel=1e-13)
            ref = math.log(2.0 * math.pi) + shift + math.log(val)
            assert abs(logN[k] - ref) < 1e-10

    def test_round_sphere_closed_form_m400(self, round_table):
        m = 400
        k = np.arange(m + 1)
        exact = (math.log(2 * math.pi * R_UNIT**2) + (m + 1) * math.log(2)
                 + gammaln(k + 1) + gammaln(m - k + 1) - gammaln(m + 2))
        assert np.max(np.abs(log_monomial_norms(round_table, m) - exact)) < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("k", [10, 40, 300, 1000])
    def test_cone_matches_nested_quad(self, k):
        # the table's u and phi against nested adaptive quadrature of the
        # profile, then log N_k against adaptive quadrature in r on that
        # state; together they bound log N_k by 2k|du| + 2 pi m|dphi| + 1e-12
        prof = rescale_to_area(make_cone_family(k), 1)
        t = build_potential(prof)
        L, seams = prof.length, prof.seams
        radii = np.array([2.0 * seams[1], L - 0.01])
        ref = _nested_state(prof, t.r_equator, radii)
        u = t.u_of_r(radii)
        assert np.all(np.abs(u - ref[:, 0]) <= 1e-14 * np.maximum(1.0, np.abs(ref[:, 0])))
        assert np.all(np.abs(t.phi(u) - ref[:, 1]) <= 1e-14)

        m = 100
        logN = log_monomial_norms(t, m)
        grid = np.linspace(0.0, L, 2001)[1:-1]
        for j in (0, 50, 100):
            def log_f(r):
                u = t.u_of_r(r)
                return 2.0 * j * u - 2.0 * math.pi * m * t.phi(u) + np.log(prof.psi(r))
            shift = float(np.max(log_f(grid)))
            val = _quad(lambda r: math.exp(float(log_f(r)) - shift), 0.0, L, seams)
            assert abs(logN[j] - (math.log(2.0 * math.pi) + shift + math.log(val))) < 1e-12

    def test_antipodal_symmetry(self, round_table):
        m = 12
        N = monomial_norms(round_table, m)
        assert np.allclose(N, N[::-1], rtol=1e-8)

    def test_positive(self, cone8_table):
        assert np.all(monomial_norms(cone8_table, 9) > 0)

    def test_degree_mismatch_rejected(self, round_table):
        with pytest.raises(ValueError):
            log_monomial_norms(round_table, 0)


class TestRhoRevolution:
    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_fs_exactness(self, m):
        fld = rho_revolution(round_sphere(), m)
        assert abs(fld.sup - (m + 1)) < 1e-8 * (m + 1)
        assert abs(fld.inf - (m + 1)) < 1e-8 * (m + 1)

    def test_dimension_identity(self, cone8_table):
        m = 25
        integral = kernel_area_integral(cone8_table, m,
                                        log_monomial_norms(cone8_table, m))
        assert abs(integral - (m + 1)) < 1e-6

    def test_explicit_points(self, round_table):
        fld = rho_revolution(round_sphere(), 5, points=[0.1, 0.3, 0.5])
        assert np.allclose(fld.values, 6.0, rtol=1e-8)
        assert len(fld.r) == 3

    def test_constant_gauge_invariance(self, round_table):
        # shifting the potential by a constant rescales all norms and the
        # pointwise weight identically, leaving rho fixed
        m = 9
        logN = log_monomial_norms(round_table, m)
        u = np.array([-0.4, 0.2, 1.0])
        base = rho_at_u(round_table, m, u, logN)
        c = 3.7
        shifted = rho_at_u(round_table, m, u, logN + c) * math.exp(c)
        assert np.allclose(base, shifted, rtol=1e-12)


class TestPeakSections:
    def test_fs_tail_closed_form(self):
        prof = round_sphere()
        for m, radius in ((8, 0.2), (25, 0.3)):
            _, tail, rho0 = peak_section_tail(prof, m, 0.0, radius)
            exact = math.cos(radius / (2 * R_UNIT)) ** (2 * (m + 1))
            assert abs(tail - exact) < 1e-8
            assert abs(rho0 - (m + 1)) < 1e-7

    def test_tail_monotone_and_vanishing(self):
        prof = round_sphere()
        table = build_potential(prof)
        radii = [0.1, 0.2, 0.4, 0.8]
        tails = [peak_section_tail(prof, 10, 0.0, R, table=table)[1] for R in radii]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert tails[-1] < 1e-6

    def test_interior_center_mass_normalized(self):
        prof = round_sphere()
        table = build_potential(prof)
        coeffs, tail, _ = peak_section_tail(prof, 6, 0.4, 0.25, table=table)
        assert 0.0 <= tail <= 1.0
        assert np.all(np.isfinite(coeffs))
        mass = np.sum(coeffs ** 2 * np.exp(log_monomial_norms(table, 6)))
        assert abs(mass - 1.0) < 1e-12


class TestCpn:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_matches_oracle(self, n):
        for m in range(0, 31):
            assert Fraction(cpn_fs_exact(n, m)) == cpn_fs_oracle(n, m)

    def test_examples(self):
        assert cpn_fs_exact(1, 0) == 1
        assert cpn_fs_exact(1, 7) == 8
        assert cpn_fs_exact(2, 3) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            cpn_fs_exact(0, 5)
        with pytest.raises(ValueError):
            cpn_fs_exact(1, -1)


class TestGram:
    def test_zero_perturbation_diagonal(self):
        # the basis e_k = z^k / sqrt(N_k^FS) is FS-orthonormal: no rounding at all
        m = 10
        G = gram_matrix(GramModel(m))
        assert G.dtype == complex and np.array_equal(G, np.eye(m + 1))

    def test_hermitian_exactly(self):
        G = gram_matrix(GramModel(8, PerturbedPotential(6)))
        assert np.max(np.abs(G - G.conj().T)) == 0.0

    def test_correction_matches_double_loop(self):
        # reference: the per-(i, j) loop over the same polar grid and the same
        # (phi, D) from the grid helper; the one matrix product only changes
        # the order of the radial sums
        m, pert = 12, PerturbedPotential(6)
        model = GramModel(m, pert, n_r=40, n_theta=64)
        rho, wr = gram._radial_rule(model.n_r)
        nt = model.n_theta
        s = rho * rho
        base = 1.0 / (math.pi * (1.0 + s) ** 2)
        phi, D = gram._polar_fields(pert, rho, nt)
        W = (1.0 + s[:, None]) ** (-m) * (np.exp(m * phi) * D - base[:, None])
        A = np.fft.fft(W, axis=1) * (2.0 * math.pi / nt)
        C = gram._correction_matrix(model)
        for i in range(m + 1):
            for j in range(i, m + 1):
                terms = wr * rho ** (i + j) * A[:, j - i]
                tol = model.n_r * np.finfo(float).eps * np.sum(np.abs(terms))
                assert abs(C[i, j] - np.sum(terms)) <= tol
                assert C[j, i] == np.conj(C[i, j])

    @pytest.mark.parametrize("n_theta", [320, 512])
    def test_real_fft_matches_complex_fft(self, n_theta):
        # m = 300 > n_theta/2: the columns d > n_theta/2 of the angular transform
        # are conjugates of columns n_theta - d, which on 320 angles are far
        # above rounding; the complex FFT of the same W is the reference, to
        # the transforms' rounding of log2(n_theta) eps per row mass
        m, pert = 300, PerturbedPotential(6)
        model = GramModel(m, pert, n_theta=n_theta)
        rho, wr = gram._radial_rule(model.n_r)
        nt = model.n_theta
        s = (rho * rho)[:, None]
        phi, D = gram._polar_fields(pert, rho, nt)
        W = (1.0 + s) ** (-m) * (np.exp(m * phi) * D - 1.0 / (math.pi * (1.0 + s) ** 2))
        h = 2.0 * math.pi / nt
        P = wr[:, None] * rho[:, None] ** np.arange(2 * m + 1)
        M = P.T @ (np.fft.fft(W, axis=1)[:, :m + 1] * h)
        i, j = np.indices((m + 1, m + 1))
        want = np.where(j > i, M[i + j, np.abs(j - i)], M[i + j, np.abs(j - i)].conj())
        mass = np.abs(P).T @ (np.sum(np.abs(W), axis=1) * h)
        tol = math.log2(nt) * np.finfo(float).eps * mass[i + j]
        C = gram._correction_matrix(model)
        assert np.all(np.abs(C - want) <= tol)
        assert np.any(C != want)  # the two transforms do differ in rounding

    @pytest.mark.parametrize("k", [5, 6])
    def test_polar_fields_match_pointwise(self, k):
        # the (phi, D) of the correction and field grids, the cutoff taken once
        # per radius, against pert.phi and perturbed_area_density at every
        # node of the symmetric grid; their cutoff is taken at |x + iy|, which
        # differs from the radius in the last bit
        pert = PerturbedPotential(k)
        xg, _ = np.polynomial.legendre.leggauss(160)
        t = np.linspace(-0.999, 0.999, 96)
        for rho, nt in ((0.5 * (xg + 1.0), 512), (np.sqrt((1.0 - t) / (1.0 + t)), 128)):
            X, Y, _ = gram._polar(rho, nt)
            phi, D = gram._polar_fields(pert, rho, nt)
            assert np.max(np.abs(phi - pert.phi(X + 1j * Y))) <= 1e-14 * k ** -4.0
            assert np.max(np.abs(D / perturbed_area_density(pert, X, Y) - 1.0)) <= 1e-15

    def test_no_warning_at_the_origin(self):
        # eta'/rho is formed without dividing by zero at rho = 0
        pert = PerturbedPotential(6)
        model = GramModel(8, pert)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = gram_matrix(model)
            assert rho_gram(G, model, 0.0) > 0.0
            assert math.isfinite(perturbed_scalar_curvature(pert, 0.0, 0.0))
            phi, D = gram._polar_fields(pert, np.array([0.0, 0.5, 1.0]), 8)
            assert np.all(phi[0] == 0.0) and np.all(np.isfinite(D))

    @pytest.mark.parametrize("n_theta", [8, 64, 128, 512, 1024])
    @pytest.mark.parametrize("k", [5, 6])
    def test_octant_fields_equal_the_whole_grid(self, k, n_theta):
        # phi and D from the first octant's columns, reflected, equal
        # _phi_density on every node of the symmetric grid, bit for bit; radii
        # of both rules, rho = 0 and rho > 1 included
        pert = PerturbedPotential(k)
        t = np.linspace(-0.999, 0.999, 96)
        rho = np.r_[0.0, gram._radial_rule(40)[0], 1.0, np.sqrt((1.0 - t) / (1.0 + t))]
        x, y, _ = gram._polar(rho, n_theta)
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        scale = np.maximum(rho, 1.0)[:, None]
        assert np.max(np.abs(x - rho[:, None] * np.cos(theta)) / scale) <= 1e-15
        assert np.max(np.abs(y - rho[:, None] * np.sin(theta)) / scale) <= 1e-15
        for got, want in zip(gram._polar_fields(pert, rho, n_theta),
                             gram._phi_density(pert, x, y, rho[:, None])):
            assert got.tobytes() == want.tobytes()

    def test_n_theta_multiple_of_8(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            GramModel(8, PerturbedPotential(6), n_theta=60)
        assert GramModel(8, PerturbedPotential(6), n_theta=64).refined().n_theta == 128

    def test_offdiagonal_magnitude_bound(self):
        # couplings come from the k^-4 oscillation over the unit disc: at most
        # k^-4 pi between monomials, so k^-4 pi s_i s_j between e_i and e_j
        k, m = 6, 8
        G = gram_matrix(GramModel(m, PerturbedPotential(k)))
        s = np.exp(-0.5 * fs_log_norms(m))
        off = G - np.diag(np.diag(G))
        assert np.all(np.abs(off) <= k ** -4.0 * math.pi * np.outer(s, s))

    def test_unperturbed_rho_constant(self):
        m = 12
        model = GramModel(m)
        G = gram_matrix(model)
        for z in (0.0, 0.5 + 0.2j, 1.0, 3.0 - 1.0j):
            assert abs(rho_gram(G, model, z) - (m + 1)) < 1e-10

    @pytest.mark.parametrize("m", [1, 8, 40, 200, 400])
    def test_unperturbed_origin_and_field_are_m_plus_1(self, m):
        # at z = 0, k log|z| is -inf for k > 0 and 0 for k = 0, with no
        # RuntimeWarning from the log of 0
        model = GramModel(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rho_gram(gram_matrix(model), model, 0.0) == pytest.approx(m + 1, rel=1e-12)
            assert np.max(np.abs(rho_gram_field(model).values / (m + 1) - 1.0)) <= 1e-12

    def test_fs_log_norms_match_gammaln(self):
        # math.lgamma against SciPy's gammaln: within 4 ulp of the three
        # log-factorials i!, (m-i)! and (m+1)! that each norm combines
        for m in range(1, 401):
            i = np.arange(m + 1)
            terms = (gammaln(i + 1.0), gammaln(m - i + 1.0), gammaln(m + 2.0))
            ulp = sum(np.spacing(t) for t in terms)
            assert np.all(np.abs(fs_log_norms(m) - (terms[0] + terms[1] - terms[2])) <= 4 * ulp)

    def test_basis_rescaling_invariance(self):
        model = GramModel(8, PerturbedPotential(6))
        G = gram_matrix(model)
        rng = np.random.default_rng(5)
        d = rng.uniform(0.5, 2.0, size=9)
        D = np.diag(d)
        z = 0.3 + 0.1j
        v = z ** np.arange(9) * np.exp(-0.5 * fs_log_norms(8))  # e_k(z)
        q1 = np.real(np.vdot(v, np.linalg.solve(G, v)))
        q2 = np.real(np.vdot(D @ v, np.linalg.solve(D @ G @ D, D @ v)))
        assert abs(q1 - q2) < 1e-10 * abs(q1)

    def test_refinement_self_consistency(self):
        model = GramModel(8, PerturbedPotential(6))
        G1 = gram_matrix(model)
        G2 = gram_matrix(model.refined())
        for z in (0.0, 0.2 + 0.1j, 0.8):
            r1 = rho_gram(G1, model, z)
            r2 = rho_gram(G2, model.refined(), z)
            assert abs(r1 - r2) < 1e-6

    def test_gram_vs_diagonal_path_agreement(self):
        # both pipelines compute the same FS kernel
        m = 6
        model = GramModel(m)
        G = gram_matrix(model)
        fld = rho_revolution(round_sphere(), m, points=[0.2, 0.44])
        for v, z in zip(fld.values, (0.2, 0.44)):
            # points differ (geodesic radius vs chart coordinate) but the
            # field is constant, so values must agree anyway
            assert abs(rho_gram(G, model, z) - v) < 1e-8 * (m + 1)

    def test_field_round_matches_exact(self):
        m = 8
        fld = rho_gram_field(GramModel(m))
        assert abs(fld.integral - (m + 1)) < 1e-3
        assert abs(fld.sup - (m + 1)) < 1e-8 and abs(fld.inf - (m + 1)) < 1e-8

    def test_field_round_integral_exact(self):
        # Gauss-Legendre in cos(lat) integrates the constant round kernel exactly
        for m in (8, 32, 128):
            assert abs(rho_gram_field(GramModel(m)).integral - (m + 1)) < 1e-10

    def test_field_integral_perturbed(self):
        # the correction's radial rule refined, what is left is the field
        # rule's error; panel edges at the cutoff seams keep it below 1e-8
        m = 32
        fld = rho_gram_field(GramModel(m, PerturbedPotential(6), n_r=640))
        assert abs(fld.integral - (m + 1)) < 1e-8

    @pytest.mark.parametrize("m", [32, 128, 200])
    def test_field_integral_perturbed_default_rule(self, m):
        # the correction's radial rule has an edge at the cutoff's seam
        # rho = 1/2; one panel across that kink left 4e-8 to 2.4e-7 here
        fld = rho_gram_field(GramModel(m, PerturbedPotential(6)))
        assert abs(fld.integral - (m + 1)) < 1e-8

    @pytest.mark.parametrize("m", [8, 32, 128, 200])
    def test_field_matches_batched_rho_gram(self, m):
        # two routes to the same values: Fourier diagonals of the inverse
        # Gram matrix on each latitude, and triangular solves at each node
        model = GramModel(m, PerturbedPotential(6))
        G = gram_matrix(model)
        fld = rho_gram_field(model, G)
        n_theta = 128
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        lat = fld.r * math.sqrt(4.0 * math.pi)
        z = np.tan(0.5 * lat) * np.exp(1j * np.tile(theta, len(lat) // n_theta))
        rho = rho_gram(G, model, z)
        assert rho.shape == z.shape
        assert np.max(np.abs(rho / fld.values - 1.0)) < 1e-12
        assert rho_gram(G, model, z[5]) == pytest.approx(rho[5], rel=1e-14)

    def test_perturbed_density_positive(self):
        xs = np.linspace(-1.1, 1.1, 301)
        X, Y = np.meshgrid(xs, xs)
        for k in (4, 5, 6):
            assert perturbed_area_density(PerturbedPotential(k), X, Y).min() > 0

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            GramModel(0)
        with pytest.raises(ValueError):
            GramModel(5, None, n_r=2)

    def test_perturbed_m_below_n_theta(self):
        # the correction reads angular harmonics 0..m of the n_theta-angle grid
        with pytest.raises(ValueError, match="needs more than n_theta = 512"):
            GramModel(512, PerturbedPotential(6))
        with pytest.raises(ValueError, match="needs more than n_theta = 64"):
            GramModel(100, PerturbedPotential(6), n_theta=64)
        assert GramModel(511, PerturbedPotential(6)).m == 511

    def test_unperturbed_model_is_unbounded(self):
        # without a perturbation no grid is read: any m is a model
        assert GramModel(5000).m == 5000 and GramModel(700, None, n_theta=8).m == 700

    def test_unperturbed_m1100(self):
        # N_k^FS underflows to 0 from m = 1075 on; the basis e_k never forms it
        m = 1100
        model = GramModel(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = rho_gram(gram_matrix(model), model, np.array([0.0, 0.5 + 0.2j, 3.0]))
        assert np.max(np.abs(rho / (m + 1) - 1.0)) <= 1e-11
