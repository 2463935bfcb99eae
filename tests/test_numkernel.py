"""Tests for the shared numeric primitives."""

import collections
import functools
import math

import numpy as np
import pytest

from relbosons import verify
from relbosons.numkernel import (BracketError, MinimizationError, RichardsonLadder,
                                 find_root, gauss_legendre, radial_rule, tridiag_ground)
from relbosons.potentials import INFINITY, effective_potential, spec_spin0, spec_spin1


def oscillator_problem(pot, hi, n):
    """(diagonal, off-diagonal) of the three-point Dirichlet matrix of
    -u'' + pot u on n uniform nodes of [0, hi], u = 0 at both ends."""
    q = np.linspace(0.0, hi, n)
    h = q[1] - q[0]
    return 2.0 / h**2 + pot(q[1:-1]), np.full(n - 3, -1.0 / h**2)


def sturm_count(problem, shift):
    """Number of eigenvalues strictly below ``shift`` (Sturm sequence).

    Reference for the kernel's certificate: the negative-pivot count of
    the shifted LDL^T recurrence.
    """
    d, e = problem
    e2 = e ** 2
    count = 0
    t = d[0] - shift
    if t < 0:
        count += 1
    tiny = np.finfo(float).tiny
    for i in range(1, len(d)):
        if t == 0.0:
            t = tiny
        t = (d[i] - shift) - e2[i - 1] / t
        if t < 0:
            count += 1
    return count


def stebz_levels(problem, count=1):
    """Reference: the lowest ``count`` eigenvalues by LAPACK ?stebz
    Sturm bisection down to ulp width."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*problem, eigvals_only=True,
                            select="i", select_range=(0, count - 1),
                            lapack_driver="stebz", tol=0.0)


def inf_norm(problem):
    d, e = problem
    e = np.abs(e)
    return float(np.max(np.abs(d) + np.r_[e, 0.0] + np.r_[0.0, e]))


OSCILLATOR_CASES = [
    # (potential on (0, 20), exact ground lambda, tolerance)
    (lambda q: q**2, 3.0, 1e-5),
    (lambda q: 2.0 / q**2 + q**2, 5.0, 1e-4),
    (lambda q: 1.0 / q**2 + q**2, 2.0 + math.sqrt(5.0), 1e-4),
]

# (potential, interval) of the three oscillators and of the radial
# problems at d = 0, 1, 4, inf, the way the eigensolver builds them
REFERENCE_CASES = [
    *((pot, 20.0) for pot, _, _ in OSCILLATOR_CASES),
    *((functools.partial(effective_potential, spec=mk(d)), 12.0)
      for mk in (spec_spin0, spec_spin1) for d in (0.0, 1.0, 4.0, INFINITY)),
]


class TestGaussLegendre:
    """One shared, read-only rule per order."""

    @pytest.mark.parametrize("n", [15, 96, 128])
    def test_bits_of_leggauss_read_only_and_shared(self, n):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = gauss_legendre(n)
        assert again[0] is x and again[1] is w

    def test_verify_builds_each_order_once(self, monkeypatch):
        leggauss = np.polynomial.legendre.leggauss
        calls = collections.Counter()

        def counting(n):
            calls[n] += 1
            return leggauss(n)

        gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        for _ in range(2):
            verify.run_verify()
        assert calls and max(calls.values()) == 1, calls


class TestRadialRule:
    """int g(p) d^3p by 15-point panels whose weights carry 4 pi p^2."""

    @pytest.mark.parametrize("p_max", [12.0, 14.0, 60.0])
    def test_gaussian_moments(self, p_max):
        p, w = radial_rule(p_max)
        g = np.exp(-p * p)
        assert np.sum(w * g) == pytest.approx(math.pi**1.5, rel=1e-14, abs=0.0)
        assert np.sum(w * p * p * g) / np.sum(w * g) == pytest.approx(1.5, rel=1e-14, abs=0.0)

    def test_panels_no_wider_than_the_fixed_width(self):
        # 60 / 0.15 = 400 panels of 15 nodes; 14 / 0.15 rounds up to 94
        assert len(radial_rule(60.0)[0]) == 400 * 15
        assert len(radial_rule(14.0)[0]) == 94 * 15
        with pytest.raises(ValueError):
            radial_rule(0.0)


class TestTridiagGround:
    @pytest.mark.parametrize("pot,exact,tol", OSCILLATOR_CASES)
    def test_oscillator_ground_levels(self, pot, exact, tol):
        prob = oscillator_problem(pot, 20.0, 4000)
        lam = tridiag_ground(*prob).value
        assert lam == pytest.approx(exact, abs=tol)

    @pytest.mark.parametrize("n", [1600, 8000, 15999])
    def test_matches_stebz_reference(self, n):
        eps = np.finfo(float).eps
        for pot, hi in REFERENCE_CASES:
            prob = oscillator_problem(pot, hi, n)
            ground = tridiag_ground(*prob)
            assert abs(ground.value - stebz_levels(prob)[0]) <= 4.0 * eps * inf_norm(prob)

    def test_enclosure_is_honest(self):
        for pot, hi in REFERENCE_CASES:
            prob = oscillator_problem(pot, hi, 300)
            ground = tridiag_ground(*prob)
            upper = ground.value + ground.residual
            assert ground.lower < ground.value
            assert sturm_count(prob, ground.lower) == 0
            assert sturm_count(prob, upper + 1e-12 * abs(upper)) == 1

    def test_ground_below_reference_levels(self):
        prob = oscillator_problem(lambda q: q**2, 20.0, 2000)
        ground = tridiag_ground(*prob)
        # odd levels of the full-line oscillator: 3, 7, 11
        ref = stebz_levels(prob, 3)
        assert np.all(np.diff(ref) > 0)
        assert ref == pytest.approx([3.0, 7.0, 11.0], abs=1e-3)
        assert ground.value == pytest.approx(ref[0], abs=1e-12 * inf_norm(prob))

    def test_reversal_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 40
            d = rng.normal(size=n) * 3.0
            e = rng.normal(size=n - 1)
            prob = (d, e)
            a = tridiag_ground(d, e)
            b = tridiag_ground(d[::-1].copy(), e[::-1].copy())
            scale = max(1.0, np.max(np.abs(d)) + 2 * np.max(np.abs(e)))
            assert abs(a.value - b.value) <= 1e-12 * scale
            assert abs(a.value - stebz_levels(prob)[0]) <= 1e-12 * scale
            # the same eigenvector, read backwards (unit norm, sign fixed)
            assert np.max(np.abs(a.vector - b.vector[::-1])) <= 1e-8
            assert a.vector[np.argmax(np.abs(a.vector))] > 0.0

    @pytest.mark.parametrize("pot,exact,_tol", OSCILLATOR_CASES)
    def test_h2_convergence_order(self, pot, exact, _tol):
        errs = []
        for n in (1000, 2000, 4000):
            lam = tridiag_ground(*oscillator_problem(pot, 20.0, n)).value
            errs.append(abs(lam - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)

    def test_sturm_count_matches_lapack(self):
        prob = oscillator_problem(lambda q: q**2, 20.0, 300)
        lam = tridiag_ground(*prob).value
        assert sturm_count(prob, lam - 1e-9) == 0
        assert sturm_count(prob, lam + 1e-9) == 1
        for k, ref in enumerate(stebz_levels(prob, 4)):
            assert sturm_count(prob, ref - 1e-9) == k
            assert sturm_count(prob, ref + 1e-9) == k + 1

    def test_vector_residual(self):
        prob = oscillator_problem(lambda q: q**2, 20.0, 3000)
        ground = tridiag_ground(*prob)
        u, lam = ground.vector, ground.value
        diagonal, off_diagonal = prob
        au = diagonal * u
        au[:-1] += off_diagonal * u[1:]
        au[1:] += off_diagonal * u[:-1]
        assert np.linalg.norm(au - lam * u) == pytest.approx(ground.residual, rel=1e-6)
        assert np.max(np.abs(au - lam * u)) <= 1e-8 * np.max(np.abs(u))
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
        assert np.all(u > 0.0)  # nodeless ground state, sign fixed
        # positive off-diagonals: the same level, the vector's signs alternate
        signs = (-1.0) ** np.arange(len(u))
        w = tridiag_ground(diagonal, -off_diagonal).vector
        assert np.max(np.abs(w * signs * signs[np.argmax(u)] - u)) <= 1e-8
        assert w[np.argmax(np.abs(w))] > 0.0

    def test_warm_shift_above_ground_is_rejected(self):
        prob = oscillator_problem(lambda q: q**2, 20.0, 2000)
        ref = stebz_levels(prob)[0]
        # above lambda_0 = 3; the last also above lambda_1 = 7
        for shift in (ref + 1e-6, ref + 2.0, ref + 5.0):
            ground = tridiag_ground(*prob, shift=shift)
            assert ground.lower < ref
            assert abs(ground.value - ref) <= 4.0 * np.finfo(float).eps * inf_norm(prob)
        warm = tridiag_ground(*prob, shift=ref - 1e-6)
        assert ref - 1e-6 <= warm.lower < ref
        assert warm.factorizations < tridiag_ground(*prob).factorizations

    def test_richardson_warm_starts_half_step(self, monkeypatch):
        from relbosons import numkernel

        ground, calls = numkernel.tridiag_ground, []

        def recording(diagonal, off_diagonal, shift=None, start=None, work=None):
            pair = ground(diagonal, off_diagonal, shift=shift, start=start, work=work)
            calls.append(((diagonal, off_diagonal), shift, start, pair))
            return pair

        monkeypatch.setattr(numkernel, "tridiag_ground", recording)
        level = RichardsonLadder(20.0, 2000).ground(lambda q: q**2)
        (_, cold_shift, cold_start, coarse), (h_prob, h_shift, h_start, h), \
            (fine_prob, warm_shift, _, fine) = calls
        assert cold_shift is None and cold_start is None
        assert h_shift == coarse.value and h is level.ground
        assert coarse is level.coarse and fine is level.fine
        assert h_start.shape == h_prob[0].shape and np.all(h_start > 0.0)
        assert warm_shift == h.value == level.ground.value
        # lam_h < lam_{h/2} here, so the warm shift factors; a refactor
        # can only raise the certified lower bound
        assert warm_shift <= fine.lower < stebz_levels(fine_prob)[0]
        assert fine.factorizations < h.factorizations

    @pytest.mark.parametrize("n", [5, 33, 100, 2000, 8000])
    @pytest.mark.parametrize("pot,hi", [
        (lambda q: q**2, 20.0),
        (lambda q: 0.75 / q**2 + q**2, 12.0),
    ], ids=["half-line", "planar"])
    def test_richardson_ladder_matches_cold_levels(self, pot, hi, n):
        # the two levels solved from 1 and the Gershgorin shift, the h/2
        # level at the shift lam_h
        cold = tridiag_ground(*oscillator_problem(pot, hi, n))
        lam_h, lam_h2 = cold.value, tridiag_ground(
            *oscillator_problem(pot, hi, 2 * (n - 1) + 1), shift=cold.value).value
        level = RichardsonLadder(hi, n).ground(pot)
        assert abs(level.ground.value - lam_h) <= 1e-10
        assert abs(level.fine.value - lam_h2) <= 1e-10
        assert abs(level.value - (4.0 * lam_h2 - lam_h) / 3.0) <= 1e-10
        assert level.ground.vector.shape == level.nodes.shape == cold.vector.shape
        assert np.max(np.abs(level.ground.vector - cold.vector)) <= 1e-9

    @pytest.mark.parametrize("start", [
        np.zeros(298), -np.ones(298), np.r_[np.ones(297), 0.0], np.r_[np.ones(297), -1.0],
        np.r_[np.nan, np.ones(297)], np.r_[np.inf, np.ones(297)], np.ones(297), np.ones(299),
    ], ids=["zero", "negative", "one-zero", "one-negative", "nan", "inf",
            "short", "long"])
    def test_bad_start_raises(self, start):
        prob = oscillator_problem(lambda q: q**2, 20.0, 300)
        with pytest.raises(ValueError, match="start"):
            tridiag_ground(*prob, start=start)

    def test_positive_random_start(self):
        prob = oscillator_problem(lambda q: q**2, 20.0, 2000)
        start = np.random.default_rng(2718).uniform(0.01, 1.0, len(prob[0]))
        ground = tridiag_ground(*prob, start=start)
        ref, rounding = stebz_levels(prob)[0], 4.0 * np.finfo(float).eps * inf_norm(prob)
        assert abs(ground.value - tridiag_ground(*prob).value) <= rounding
        # r and the stebz level are both computed to rounding: the upper end
        # misses by 8e-13 here with the start 1 too
        assert ground.lower < ref <= ground.value + ground.residual + rounding

    def test_iteration_cap_raises_with_state(self, monkeypatch):
        from relbosons import numkernel

        monkeypatch.setattr(numkernel, "_MAX_INVERSE_ITERATIONS", 1)
        prob = oscillator_problem(lambda q: q**2, 20.0, 300)
        with pytest.raises(MinimizationError, match="no convergence in 1 iterations") as err:
            tridiag_ground(*prob)
        assert err.value.state.shape == (298,)
        assert np.linalg.norm(err.value.state) == pytest.approx(1.0, rel=1e-12)
        assert err.value.grad_norm > 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="one shorter"):
            tridiag_ground(np.ones(5), np.ones(5))

    @pytest.mark.parametrize("which, index, bad", [
        ("diagonal", 7, np.nan), ("diagonal", 0, np.inf), ("off_diagonal", 100, np.nan),
    ], ids=["nan-diagonal", "inf-diagonal", "nan-off-diagonal"])
    def test_non_finite_matrix_raises_before_factoring(self, monkeypatch, which, index, bad):
        import scipy.linalg.lapack

        def no_factorization(*args, **kwargs):
            raise AssertionError("dpttrf called on a non-finite matrix")

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", no_factorization)
        d, e = (a.copy() for a in oscillator_problem(lambda q: q**2, 20.0, 300))
        {"diagonal": d, "off_diagonal": e}[which][index] = bad
        with pytest.raises(ValueError, match=r"finite.*\|\|T\|\|_inf = (nan|inf)"):
            tridiag_ground(d, e)

    def test_read_only_arguments_are_left_unchanged(self):
        d, e = oscillator_problem(lambda q: q**2, 20.0, 2000)
        start = np.random.default_rng(11).uniform(0.5, 1.0, len(d))
        want = tridiag_ground(d, e, shift=0.5, start=start)
        frozen = [a.copy() for a in (d, e, start)]
        for a in frozen:
            a.flags.writeable = False
        got = tridiag_ground(*frozen[:2], shift=0.5, start=frozen[2])
        for a, b in zip(frozen, (d, e, start)):
            assert np.array_equal(a, b)
        assert got.value == want.value and np.array_equal(got.vector, want.vector)
        assert (got.residual, got.iterations, got.lower, got.factorizations) == \
            (want.residual, want.iterations, want.lower, want.factorizations)


def assert_same_level(a, b):
    """Two RichardsonLevels agree to the bit."""
    assert a.value == b.value and np.array_equal(a.nodes, b.nodes)
    for x, y in ((a.coarse, b.coarse), (a.ground, b.ground), (a.fine, b.fine)):
        assert np.array_equal(x.vector, y.vector)
        assert (x.value, x.residual, x.iterations, x.lower, x.factorizations) == \
            (y.value, y.residual, y.iterations, y.lower, y.factorizations)


class TestRichardsonLadder:
    @staticmethod
    def potential(d):
        spec = spec_spin0(d)
        return lambda q: effective_potential(q, spec)

    def test_reuse_matches_fresh_ladders(self):
        # one ladder across several d, with a ladder of another size run
        # in between, gives the bits of a fresh ladder each time
        ladder, other = RichardsonLadder(12.0, 2000), RichardsonLadder(12.0, 1000)
        for d in (4.0, 1.0, 0.0, INFINITY, 1.0):
            level = ladder.ground(self.potential(d))
            other.ground(self.potential(d))
            fresh = RichardsonLadder(12.0, 2000).ground(self.potential(d))
            assert_same_level(level, fresh)

    def test_planar_level_error_is_h2(self):
        # -u'' + (3/(4 q^2) + q^2) u has the exact level 4 (u = q^{3/2} e^{-q^2/2});
        # the singular term leaves Richardson a clean h^2 error, a quarter
        # per halving of h: -1.95e-7 at n = 4000, -4.87e-8 at n = 8000
        def error(n):
            return RichardsonLadder(12.0, n).ground(lambda q: 0.75 / q**2 + q**2).value - 4.0

        fine = error(8000)
        assert error(4000) / fine == pytest.approx(4.0, abs=0.05)
        assert abs(fine) <= 1e-7

    def test_results_own_their_arrays(self):
        # a later solve in the same ladder leaves an earlier result as it was
        ladder = RichardsonLadder(12.0, 2000)
        first = ladder.ground(self.potential(1.0))
        arrays = (first.nodes, first.coarse.vector, first.ground.vector, first.fine.vector)
        kept = [a.copy() for a in arrays]
        ladder.ground(self.potential(8.0))
        for a, b in zip(arrays, kept):
            assert a.flags.owndata and np.array_equal(a, b)


class TestFindRoot:
    """Brent's zeroin against scipy's brentq, which implements the same method."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)
        return g, calls

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    ], ids=["cos-fixed-point", "wallis-cubic"])
    def test_matches_brentq_on_smooth_functions(self, f, lo, hi):
        from scipy.optimize import brentq

        g, calls = self.counted(f)
        root = find_root(g, lo, hi, 1e-12)
        want, info = brentq(f, lo, hi, xtol=1e-12, full_output=True)
        assert root.value == pytest.approx(want, abs=1e-12)
        assert root.evaluations == len(calls) == info.function_calls
        b_lo, b_hi = root.bracket
        assert b_lo <= root.value <= b_hi
        assert b_hi - b_lo <= 1e-12 + 4.0 * np.finfo(float).eps * abs(root.value)
        assert f(b_lo) * f(b_hi) <= 0.0
        # every evaluated point lies outside or on the returned bracket
        assert all(not b_lo < x < b_hi for x in calls)

    @pytest.mark.parametrize("spec", [spec_spin0(1.0), spec_spin1(INFINITY)],
                             ids=["spin0-d1", "spin1-dinf"])
    def test_matches_brentq_on_numerov_mismatch(self, spec):
        from scipy.optimize import brentq

        from relbosons import eigensolver as es

        grid = es.RadialGrid()
        x = np.linspace(math.log(es.SHOOTING_Q_LO), math.log(grid.q_max), grid.n)
        q = np.exp(x)
        W = effective_potential(q, spec)
        im = int(np.searchsorted(q, 1.0))

        def mismatch(lam):
            return es._numerov_mismatch(es._shooting_head(spec, q), q, x[1] - x[0],
                                        lam, W, im)[0]

        lo, hi = es.limit_bracket(spec)
        root = find_root(mismatch, lo, hi, 1e-10)
        want, info = brentq(mismatch, lo, hi, xtol=1e-10, full_output=True)
        assert root.value == pytest.approx(want, abs=1e-10)
        # the same number of Numerov sweep pairs as scipy's zeroin
        assert root.evaluations == info.function_calls

    @pytest.mark.parametrize("f, where", [
        (lambda x: math.nan, "0"),
        (lambda x: math.nan if x == 0.0 else x - 0.5, "0"),
        (lambda x: x - 0.5 if x in (0.0, 1.0) else math.inf, "0.5"),
    ], ids=["nan-everywhere", "nan-at-an-end", "inf-inside"])
    def test_non_finite_value_raises_naming_the_point(self, f, where):
        # a nan fails every comparison, so it used to pass the sign check
        # and steer zeroin to a "root" of a function that has none
        with pytest.raises(ValueError, match=rf"f\({where}\) = (nan|inf) is not finite"):
            find_root(f, 0.0, 1.0, 1e-12)

    def test_root_at_an_end(self):
        root = find_root(lambda x: x - 1.0, 1.0, 2.0, 1e-12)
        assert root.value == 1.0 and root.bracket == (1.0, 1.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError, match=r"no sign change on \[2\.000000, 3\.000000\]"):
            find_root(lambda x: x * x + 1.0, 2.0, 3.0, 1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        # a triple root makes zeroin bisect every few steps: 124 evaluations
        # after the two ends at xtol = 1e-12, above the cap of 100
        from relbosons import numkernel

        g, calls = self.counted(lambda x: (x - 1.0) ** 3)
        monkeypatch.setattr(numkernel, "_MAX_ROOT_ITERATIONS", 20)
        with pytest.raises(RuntimeError, match="iteration cap _MAX_ROOT_ITERATIONS = 20"):
            find_root(g, 0.0, 3.0, 1e-12)
        assert len(calls) == 22
        monkeypatch.setattr(numkernel, "_MAX_ROOT_ITERATIONS", 200)
        assert find_root(lambda x: (x - 1.0) ** 3, 0.0, 3.0,
                         1e-12).value == pytest.approx(1.0, abs=1e-12)


class TestMinimizeFunctional:
    """The transverse minimum, whose two factors are tridiagonal ground states."""

    def test_transverse_massless_value(self, transverse_state):
        # the cylindrical dispersion-product minimization lands on 5/2
        assert transverse_state.gamma == pytest.approx(2.5, abs=1e-3)
