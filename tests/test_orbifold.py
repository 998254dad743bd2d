import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman import orbifold
from bergman.models import make_cyclic_weights
from bergman.orbifold import (
    admissible_indices,
    degree_cap_for,
    min_on_ray,
    rho_closed,
    rho_closed_detailed,
    rho_oracle,
)

# 12-digit fixtures computed by independent 1-D minimization / closed forms
# before the kernel code existed.
RAY_MIN_Z3 = 0.973420066524       # min over t of rho on the C/Z_3 ray r=(1,)
WITNESS_Z3 = 0.991333158980034    # 1 - 2 exp(-sqrt(3) pi)
RHO_Z3_AT_ONE = 0.983601465813    # 1 + 2 e^{-3 pi/2} cos(sqrt(3) pi/2)


class TestClosedForm:
    def test_origin_value_is_group_order(self):
        for pairs in ([(1, 2)], [(1, 3), (1, 5)], [(3, 7), (2, 5), (1, 2)]):
            w = make_cyclic_weights(pairs)
            z = np.zeros(w.n)
            assert abs(rho_closed(w, z) - w.q) < 1e-12

    def test_trivial_group_kernel_is_one(self):
        w = make_cyclic_weights([(0, 1)])
        for s in (0.0, 0.7, 2.3):
            assert abs(rho_closed(w, [s]) - 1.0) < 1e-12

    def test_z2_closed_form(self):
        # q = 2: rho = 1 + exp(-2 pi |z|^2)
        w = make_cyclic_weights([(1, 2)])
        assert abs(rho_closed(w, [1.0]) - (1 + math.exp(-2 * math.pi))) < 1e-14

    def test_z3_fixture(self):
        w = make_cyclic_weights([(1, 3)])
        assert abs(rho_closed(w, [1.0]) - RHO_Z3_AT_ONE) < 1e-10

    def test_imaginary_residue_negligible(self):
        w = make_cyclic_weights([(2, 7), (3, 5)])
        _, resid = rho_closed_detailed(w, [1.1 + 0.0j, 0.4])
        assert resid < 1e-12

    def test_residue_reads_both_halves(self):
        # at the ray minimum of C/Z_213 the pairs' imaginary parts cancel to
        # rounding, not to zero: a residue taken from the terms j < q/2 alone
        # reads either 0 or their full imaginary parts
        w = make_cyclic_weights([(1, 213)])
        t_star, _ = min_on_ray(w, [1.0], 8.0)
        _, resid = rho_closed_detailed(w, [t_star])
        _, mass = _rho_loop(w, [t_star])
        assert 0.0 < resid <= w.q * np.finfo(float).eps * mass

    @pytest.mark.parametrize("pairs, z", [
        ([(1, 3), (62, 71)], [0.0, 2.0j]),
        ([(7, 60), (11, 360)], [1.5, 2.0]),
    ])
    def test_matches_40_digit_sum(self, pairs, z):
        # the character sum in 40-digit arithmetic, j p_l / q_l exact; with
        # j p_l unreduced mod q_l the angles lose about 1e-13
        w = make_cyclic_weights(pairs)
        with mp.workdps(40):
            s = [abs(mp.mpc(c)) ** 2 for c in z]
            total = sum(mp.exp(mp.pi * sum(sl * mp.expjpi(mp.mpf(2 * j * p) / ql)
                                           for sl, (p, ql) in zip(s, w.pairs)))
                        for j in range(w.q))
            exact = float(total.real * mp.exp(-mp.pi * sum(s)))
        assert abs(rho_closed(w, z) - exact) <= 1e-13

    def test_group_invariance(self):
        w = make_cyclic_weights([(1, 3), (2, 5)])
        z = np.array([0.8 + 0.3j, 1.1 - 0.2j])
        base = rho_closed(w, z)
        for a in range(1, w.q):
            assert abs(rho_closed(w, w.sigma(z, a)) - base) < 1e-12

    def test_shape_validation(self):
        w = make_cyclic_weights([(1, 3)])
        with pytest.raises(ValueError):
            rho_closed(w, [1.0, 2.0])
        w = make_cyclic_weights([(1, 3), (2, 5)])
        for bad in (np.ones((4, 3)), np.ones((4, 1)), np.ones((2, 4, 2)), 1.0):
            with pytest.raises(ValueError):
                rho_closed_detailed(w, bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_point_refused(self):
        # finite coordinates whose pi |z|^2 overflows: refused as bad input,
        # as the oracle's degree cap refuses them, with no overflow warning;
        # at 1e154, |z|^2 is finite and pi |z|^2 is not
        w = make_cyclic_weights([(1, 3), (1, 5)])
        for bad in ([1e200, 0.0], [1e154, 0.0], [[0.5, 0.7], [0.0, 1e200j]]):
            with pytest.raises(ValueError, match="point must be finite"):
                rho_closed_detailed(w, bad)
        with pytest.raises(ValueError, match="point must be finite"):
            rho_closed(w, [1e200, 0.0])
        # large and finite: only the 5 elements that fix the first axis remain
        assert rho_closed(w, [1e150, 0.0]) == pytest.approx(5.0)


class TestAdmissibleIndices:
    def test_z3_low_degrees(self):
        w = make_cyclic_weights([(1, 3)])
        idx = admissible_indices(w, 7)
        assert idx.dtype == np.int64 and idx.tolist() == [[0], [3], [6]]

    def test_two_coordinate_congruence(self):
        w = make_cyclic_weights([(1, 3), (1, 5)])
        idx = admissible_indices(w, 8).tolist()
        for j in idx:
            assert (j[0] * 5 + j[1] * 3) % 15 == 0
        assert [0, 0] in idx and [5, 5] not in idx  # 5/3+5/5 = 8/3 not integral

    def test_graded_lex_order(self):
        w = make_cyclic_weights([(1, 2), (1, 2)])
        idx = admissible_indices(w, 3)
        degs = idx.sum(axis=1).tolist()
        assert degs == sorted(degs)

    def test_negative_cap_rejected(self):
        w = make_cyclic_weights([(1, 2)])
        with pytest.raises(ValueError):
            admissible_indices(w, -1)

    def test_matches_product_reference(self):
        # every j in [0, cap]^n with |j| <= cap and sum_l j_l p_l / q_l
        # integral, sorted by (|j|, j); rho_oracle's logsumexp sums in this order
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 150:
            n = int(rng.integers(1, 4))
            qs = rng.integers(2, 13, size=n)
            pairs = [(int(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])), int(q))
                     for q in qs]
            w = make_cyclic_weights(pairs)
            if w.q > 60:
                continue
            cap = int(rng.integers(0, 13))
            ref = sorted((j for j in itertools.product(range(cap + 1), repeat=n)
                          if sum(j) <= cap
                          and sum(jl * p * (w.q // q) for jl, (p, q) in zip(j, w.pairs)) % w.q == 0),
                         key=lambda j: (sum(j), j))
            idx = admissible_indices(w, cap)
            assert idx.shape == (len(ref), n) and idx.dtype == np.int64
            assert list(map(tuple, idx.tolist())) == ref, (w.pairs, cap)
            checked += 1

    def test_candidate_budget(self):
        # comb(2003, 3) candidates would take gigabytes: refused before building
        w = make_cyclic_weights([(1, 3), (1, 3), (1, 3)])
        with pytest.raises(ValueError, match="candidate indices"):
            admissible_indices(w, 2000)
        z = [6.0, 6.0, 6.0]
        with pytest.raises(ValueError, match="candidate indices"):
            rho_oracle(w, z, degree_cap_for(w, z, 1e-12))


class TestOracle:
    @pytest.mark.parametrize("pairs,z", [
        ([(1, 2)], [0.7]),
        ([(1, 3)], [1.0]),
        ([(2, 5)], [1.4]),
        ([(1, 3), (1, 5)], [0.9, 0.6]),
    ])
    def test_matches_closed_form(self, pairs, z):
        w = make_cyclic_weights(pairs)
        cap = degree_cap_for(w, z, 1e-11)
        res = rho_oracle(w, z, cap)
        assert abs(res.value - rho_closed(w, z)) <= res.tail_bound + 1e-10

    def test_tail_bound_decreases_with_cap(self):
        w = make_cyclic_weights([(1, 3)])
        t1 = rho_oracle(w, [1.0], 10).tail_bound
        t2 = rho_oracle(w, [1.0], 20).tail_bound
        assert t2 < t1

    def test_one_index_build_per_check(self, monkeypatch):
        # degree_cap_for leaves the index array to rho_oracle, which builds it once
        calls = []
        build = orbifold.admissible_indices
        monkeypatch.setattr(orbifold, "admissible_indices",
                            lambda w, cap: calls.append(cap) or build(w, cap))
        for pairs, z in (([(1, 3)], [1.0]), ([(1, 3), (1, 5)], [0.9, 0.6])):
            w = make_cyclic_weights(pairs)
            calls.clear()
            res = rho_oracle(w, z, degree_cap_for(w, z, 1e-11))
            assert calls == [res.degree_cap]
            assert res.n_indices == len(build(w, res.degree_cap))

    def test_zero_coordinate_handled(self):
        w = make_cyclic_weights([(1, 3), (1, 5)])
        cap = degree_cap_for(w, [1.0, 0.0], 1e-11)
        res = rho_oracle(w, [1.0, 0.0], cap)
        assert abs(res.value - rho_closed(w, [1.0, 0.0])) <= res.tail_bound + 1e-10


class TestPoissonTail:
    """The oracle's tail bound q gammainc(cap + 1, lam), lam = pi |z|^2, as a
    Poisson tail in numpy, against mpmath and SciPy."""

    @pytest.mark.parametrize("lam", [1e-3, 0.7, 9.5, 42.0, 137.5, 200.0])
    def test_matches_mpmath(self, lam):
        # relative 1e-13 on the value; below 1e-300 on the log
        log_tails = orbifold._log_poisson_tails(lam, 400)
        with mp.workdps(30):
            for cap in range(1, 401):
                ref = mp.gammainc(cap + 1, 0, mp.mpf(lam), regularized=True)
                got = mp.mpf(float(log_tails[cap]))
                if ref > mp.mpf("1e-300"):
                    assert abs(mp.exp(got) / ref - 1) <= 1e-13, (lam, cap)
                else:
                    assert abs(got / mp.log(ref) - 1) <= 1e-13, (lam, cap)

    @pytest.mark.parametrize("lam, caps", [(0.5, 0), (1e-300, 0), (3.0, 1), (250.0, 128),
                                           (5000.0, 2000)])
    def test_short_and_complement_ranges(self, lam, caps):
        # caps below lam - 1 are 1 minus the head sums; about 20 caps checked
        log_tails = orbifold._log_poisson_tails(lam, caps)
        assert log_tails.shape == (caps + 1,)
        with mp.workdps(30):
            for cap in range(0, caps + 1, max(1, caps // 20)):
                ref = mp.gammainc(cap + 1, 0, mp.mpf(lam), regularized=True)
                assert abs(mp.exp(mp.mpf(float(log_tails[cap]))) / ref - 1) <= 1e-13

    def test_zero_and_infinite_lambda(self):
        assert np.all(orbifold._log_poisson_tails(0.0, 5) == -math.inf)
        assert np.all(orbifold._log_poisson_tails(math.inf, 5) == 0.0)
        w = make_cyclic_weights([(1, 3), (1, 5)])
        assert degree_cap_for(w, [0.0, 0.0], 1e-12) == 1
        assert rho_oracle(w, [0.0, 0.0], 4).tail_bound == 0.0

    def test_degree_caps_equal_scipy_loop(self):
        # the parent loop: the first cap >= 1 with q gammainc(cap + 1, lam) <= tol
        gammainc = pytest.importorskip("scipy.special").gammainc
        for pairs, radii in (([(1, 3)], (0.05, 0.9, 2.5, 4.0, 6.5, 9.0)),
                             ([(1, 3), (1, 5)], (0.0, 0.3, 1.7, 2.5)),
                             ([(1, 2), (1, 3), (5, 12)], (0.3, 0.9, 1.7))):
            w = make_cyclic_weights(pairs)
            for radius in radii:
                z = np.full(w.n, radius / math.sqrt(w.n))
                lam = math.pi * float(np.sum(np.abs(z) ** 2))
                for tol in (1e-3, 1e-8, 1e-11, 1e-12, 1e-15, 1e-30):
                    cap = 1
                    while w.q * gammainc(cap + 1, lam) > tol:
                        cap += 1
                    assert degree_cap_for(w, z, tol) == cap, (pairs, radius, tol)


def _benchmark_systems(seed):
    """The weight systems of the orbifold benchmark for one seed: for each
    (q, n) slot, q_l dividing q with lcm q, p_l coprime to q_l."""
    slots = ((3, 1), (4, 2), (5, 3), (6, 2), (7, 1), (8, 3), (9, 2), (10, 3), (12, 2), (15, 3),
             (20, 2), (28, 3), (36, 2), (45, 3), (60, 2), (84, 3), (120, 2), (168, 3),
             (210, 2), (252, 3), (360, 2))
    rng = random.Random(seed)
    systems = []
    for q, n in slots:
        divisors = [d for d in range(2, q + 1) if q % d == 0]
        qs = [rng.choice(divisors) for _ in range(n)]
        while math.lcm(*qs) != q:
            qs = [rng.choice(divisors) for _ in range(n)]
        pairs = []
        for ql in qs:
            p = rng.randrange(1, ql)
            while math.gcd(p, ql) != 1:
                p = rng.randrange(1, ql)
            pairs.append((p, ql))
        systems.append(make_cyclic_weights(pairs))
    return systems


class TestRayMinimum:
    def test_brent_refine_matches_scipy_bounded(self):
        # on each certificate ray of the benchmark's seed-1 systems, scanned
        # to 1.5 times the witness radius on 192 nodes: the same t* within
        # 1e-8 as SciPy's bounded Brent, with no more evaluations
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        from bergman.resonance import construct_certificate, find_subunity_point

        for w in _benchmark_systems(1):
            cert = construct_certificate(w)
            sq = np.sqrt(np.array(cert.r))
            ts = np.linspace(0.0, 1.5 * find_subunity_point(w, cert).t, 193)[1:]
            i = int(np.argmin(rho_closed(w, ts[:, None] * sq)))
            lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, 191)])
            ours, ref = [], []
            t_ours, _ = orbifold._brent_min(lambda t: ours.append(t) or rho_closed(w, t * sq),
                                            lo, hi, 1e-8)
            res = minimize_scalar(lambda t: ref.append(t) or rho_closed(w, t * sq),
                                  bounds=(lo, hi), method="bounded", options={"xatol": 1e-8})
            assert abs(t_ours - res.x) <= 1e-8 and len(ours) <= len(ref), w.pairs


    def test_z3_ray_minimum_fixture(self):
        w = make_cyclic_weights([(1, 3)])
        t_star, rho_star = min_on_ray(w, [1.0], 3.0)
        assert abs(rho_star - RAY_MIN_Z3) < 1e-10
        assert rho_star < WITNESS_Z3 < 1.0

    def test_direction_validation(self):
        w = make_cyclic_weights([(1, 3), (1, 5)])
        with pytest.raises(ValueError):
            min_on_ray(w, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            min_on_ray(w, [1.0, -0.5], 1.0)
        with pytest.raises(ValueError):
            min_on_ray(w, [1.0, 1.0], 0.0)


class TestRayFunction:
    """orbifold._ray, the closed form on one ray as a function of x = t^2,
    which min_on_ray and find_subunity_point scan and refine with."""

    FOUND = [(2, 5), (101, 210), (43, 90), (3, 20)]  # witness from the fallback scan

    def _scanned(self, w):
        """The certificate ray and the nodes evaluated on it: the phases up to
        the witness's (all of them and the 2048-node fallback when k = -1) and
        the benchmark's 192-node scan to 1.5 times the witness radius."""
        from bergman.resonance import construct_certificate, find_subunity_point

        cert = construct_certificate(w)
        wit = find_subunity_point(w, cert)
        phases = np.sqrt((2.0 * np.arange(51) + 1.0) / abs(cert.sin_sum))
        nodes = [phases[:wit.k + 1] if wit.k >= 0 else phases,
                 np.linspace(1.5 * wit.t / 192, 1.5 * wit.t, 192)]
        if wit.k < 0:
            nodes.append(np.linspace(phases[-1] / 2048, phases[-1], 2048))
        return np.array(cert.r), np.concatenate(nodes)

    def test_matches_closed_form_at_scanned_nodes(self):
        systems = [w for seed in (1, 2, 3) for w in _benchmark_systems(seed)]
        for w in systems + [make_cyclic_weights(self.FOUND)]:
            r, ts = self._scanned(w)
            f = orbifold._ray(w, r)
            closed = rho_closed(w, ts[:, None] * np.sqrt(r))
            assert np.max(np.abs(f(ts * ts) - closed)) <= w.q * 1e-15, w.pairs
            assert abs(f(ts[0] ** 2) - closed[0]) <= w.q * 1e-15, w.pairs
            assert f(0.0) == w.q  # row 0 is exactly 1, every row 1 at the origin

    def test_blocks_match_single_points(self):
        # q = 360 holds 362 nodes in a block; 2048 nodes take six
        w = make_cyclic_weights([(1, 8), (2, 45)])
        f = orbifold._ray(w, np.array([1.0, 0.5]))
        x = np.linspace(0.0, 40.0, 2048)
        assert np.all(f(x) == [f(v) for v in x.tolist()])

    def test_returned_values_are_rho_closed(self):
        from bergman.resonance import construct_certificate, find_subunity_point

        for w in _benchmark_systems(1) + [make_cyclic_weights(self.FOUND)]:
            cert = construct_certificate(w)
            wit = find_subunity_point(w, cert)
            assert wit.found and wit.rho < 1.0 and wit.rho == rho_closed(w, np.array(wit.z))
            t, rho = min_on_ray(w, cert.r, 1.5 * wit.t, nodes=192)
            assert type(t) is float and type(rho) is float
            assert rho == rho_closed(w, t * np.sqrt(cert.r)), w.pairs

    @pytest.mark.parametrize("pairs, direction, t_max, nodes", [
        ([(1, 3)], [1.0], 3.0, 512),
        ([(1, 8), (2, 45)], [1.0, 2.0], 4.0, 2048),
        ([(1, 3)], [1.0], 3.0, 1),
    ])
    def test_min_on_ray_calls_rho_closed_once(self, pairs, direction, t_max, nodes, monkeypatch):
        calls = []
        closed = orbifold.rho_closed
        monkeypatch.setattr(orbifold, "rho_closed", lambda w, z: calls.append(z) or closed(w, z))
        t, rho = min_on_ray(make_cyclic_weights(pairs), direction, t_max, nodes)
        assert len(calls) == 1 and np.all(calls[0] == t * np.sqrt(direction))


class TestRandomizedProperties:
    SEED = 20240824

    def _random_weights(self, rng):
        while True:
            n = rng.integers(1, 4)
            pairs = []
            for _ in range(n):
                q = int(rng.integers(1, 13))
                ps = [p for p in range(q) if math.gcd(p, q) == 1] or [0]
                pairs.append((int(rng.choice(ps)), q))
            w = make_cyclic_weights(pairs)
            if w.q <= 60:
                return w

    def test_property_suite(self):
        rng = np.random.default_rng(self.SEED)
        for _ in range(120):
            w = self._random_weights(rng)
            z = rng.normal(size=w.n) + 1j * rng.normal(size=w.n)
            assert abs(rho_closed(w, np.zeros(w.n)) - w.q) < 1e-12
            if w.q == 1:
                assert abs(rho_closed(w, z) - 1.0) < 1e-12
            base = rho_closed(w, z)
            a = int(rng.integers(1, w.q + 1))
            assert abs(rho_closed(w, w.sigma(z, a)) - base) < 1e-12 * max(base, 1.0)


@st.composite
def _weights_and_points(draw):
    """A weight system of order q <= 300 and an (N, n) array of points."""
    q = draw(st.integers(1, 300))
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        ql = draw(st.sampled_from(divisors))
        pairs.append((draw(st.sampled_from(
            [p for p in range(ql) if math.gcd(p, ql) == 1])), ql))
    w = make_cyclic_weights(pairs)
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    n_points = draw(st.integers(1, 12))
    re = np.array(draw(st.lists(coords, min_size=n_points * w.n,
                                max_size=n_points * w.n)))
    im = np.array(draw(st.lists(coords, min_size=n_points * w.n,
                                max_size=n_points * w.n)))
    z = (re + 1j * im).reshape(n_points, w.n)
    return w, z, draw(st.integers(1, w.q))


def _rho_loop(w, z):
    """The closed form accumulated term by term in j, as the reference for
    the array form, and the sum of the terms' moduli."""
    s = np.abs(np.asarray(z)) ** 2
    terms = [np.exp(np.pi * np.sum(s * np.exp(1j * w.phases(j))) - np.pi * np.sum(s))
             for j in range(w.q)]
    value = terms[0].real
    for j in range(1, w.q // 2 + 1):
        value += terms[j].real if 2 * j == w.q else 2.0 * terms[j].real
    return value, sum(abs(t) for t in terms)


# q = 1 .. 4: no pair, one pair, and the odd and the even middle term
_SMALL_Q = [(make_cyclic_weights(pairs), np.array(z), 1) for pairs, z in [
    ([(0, 1)], [[0.7 - 0.2j], [1.9j]]),
    ([(1, 2)], [[1.3], [0.4 + 0.9j]]),
    ([(1, 3), (2, 3)], [[0.6, 1.1j], [-1.4, 0.3 + 0.3j]]),
    ([(1, 4), (1, 2), (3, 4)], [[0.8, 0.5j, -1.2], [1.7j, 0.1, 0.9 - 0.4j]]),
]]


class TestBatchedShape:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_weights_and_points())
    @example(_SMALL_Q[0])
    @example(_SMALL_Q[1])
    @example(_SMALL_Q[2])
    @example(_SMALL_Q[3])
    def test_rows_match_single_points(self, case):
        w, z, _ = case
        values, resids = rho_closed_detailed(w, z)
        assert values.shape == resids.shape == (len(z),)
        # the half-table value equals the full table's, bit for bit
        assert np.all(rho_closed(w, z) == values)
        for row, value, resid in zip(z, values, resids):
            single = rho_closed_detailed(w, row)
            assert single == (value, resid)
            assert rho_closed(w, row) == value
            assert all(type(x) is float for x in single)
            # only the order of the additions and the rounding of exp differ
            # from the reference
            ref, mass = _rho_loop(w, row)
            assert abs(value - ref) <= w.q * np.finfo(float).eps * mass

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_weights_and_points())
    def test_origin_and_group_invariance(self, case):
        w, z, a = case
        assert np.all(rho_closed(w, np.zeros_like(z)) == w.q)
        base = rho_closed(w, z)
        moved = rho_closed(w, w.sigma(z, a))
        assert np.all(np.abs(moved - base) <= 1e-12 * np.maximum(base, 1.0))

    def test_blocks_match_single_points(self):
        # more points than one block holds at q = 360
        w = make_cyclic_weights([(1, 8), (2, 45)])
        z = np.linspace(0.01, 3.0, 400)[:, None] * np.array([1.0, 0.7 + 0.2j])
        values = rho_closed(w, z)
        assert all(rho_closed(w, row) == v for row, v in zip(z, values))


class TestRayRows:
    """orbifold._ray and rho_closed form their rows with one formula: at x = 1
    the ray's sum at s = |z|^2 is the closed form at z, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_weights_and_points())
    @example(_SMALL_Q[0])
    @example(_SMALL_Q[1])
    @example(_SMALL_Q[2])
    @example(_SMALL_Q[3])
    def test_ray_at_one_is_rho_closed(self, case):
        w, z, _ = case
        for row in z:
            assert orbifold._ray(w, np.abs(row) ** 2)(1.0) == rho_closed(w, row)

    def test_ray_at_one_on_benchmark_systems(self):
        from bergman.resonance import construct_certificate, find_subunity_point

        rng = np.random.default_rng(1)
        for w in _benchmark_systems(1):
            wit = find_subunity_point(w, construct_certificate(w))
            z = rng.normal(size=(20, w.n)) + 1j * rng.normal(size=(20, w.n))
            z = np.vstack([np.array(wit.z), z])
            for row in z:
                assert orbifold._ray(w, np.abs(row) ** 2)(1.0) == rho_closed(w, row), w.pairs
