"""Tests for the shared numeric primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbosons.numkernel import (MinimizationError, QuadratureError,
                                 QuadratureSpec, TridiagProblem, dirichlet_problem,
                                 integrate_damped, lowest_eigenpair, tridiag_ground,
                                 tridiag_ground_vector)

# independent refinement oracle for the relativistic-envelope integral,
# frozen from uniform Simpson sums doubled until stable at 1e-13
EXP_RELATIVISTIC_ENVELOPE = 0.6019072301972345


def simpson_oracle(fn, a, b, tol=1e-13):
    """Uniform Simpson sums, n doubling until successive values settle."""
    n = 1024
    prev = None
    while n <= 2**23:
        x = np.linspace(a, b, n + 1)
        y = fn(x)
        h = (b - a) / n
        s = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
        if prev is not None and abs(s - prev) < tol:
            return s
        prev = s
        n *= 2
    raise AssertionError("oracle did not settle")


class TestIntegrateDamped:
    def test_oscillatory_kernel_closed_form(self):
        # int sin(p r) e^{-a p} dp = r / (a^2 + r^2)
        spec = QuadratureSpec(oscillation_wavelength=math.pi)
        res = integrate_damped(lambda p: np.sin(2.0 * p) * np.exp(-0.5 * p), 0.5, spec)
        assert res.value == pytest.approx(2.0 / (0.25 + 4.0), abs=1e-10)
        assert res.error <= max(spec.abs_tol, spec.rel_tol * abs(res.value)) * 1.01

    def test_pure_exponential(self):
        res = integrate_damped(lambda p: np.exp(-p), 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_relativistic_envelope_matches_refinement_oracle(self):
        kernel = lambda p: np.exp(-np.sqrt(1.0 + p * p))
        oracle = simpson_oracle(kernel, 0.0, 60.0)
        assert oracle == pytest.approx(EXP_RELATIVISTIC_ENVELOPE, abs=1e-12)
        res = integrate_damped(kernel, 1.0)
        assert res.value == pytest.approx(oracle, abs=1e-10)

    def test_zero_kernel(self):
        res = integrate_damped(lambda p: 0.0 * p, 1.0)
        assert res.value == 0.0

    def test_complex_kernel(self):
        res = integrate_damped(lambda p: np.exp((-1.0 + 1.0j) * p), 1.0)
        assert res.value == pytest.approx(1.0 / (1.0 - 1.0j), abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate_damped(lambda p: np.exp(-p), 0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(oscillation_wavelength=0.0)

    def test_budget_exhaustion_carries_best_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_panels=8)
        with pytest.raises(QuadratureError) as err:
            integrate_damped(lambda p: np.sin(40.0 * p) * np.exp(-0.3 * p), 0.3, spec)
        assert math.isfinite(err.value.value.real if hasattr(err.value.value, "real")
                             else err.value.value)
        assert err.value.error > 0

    @settings(max_examples=20, deadline=None)
    @given(a1=st.floats(-2, 2), a2=st.floats(-2, 2),
           b1=st.floats(-2, 2), b2=st.floats(-2, 2))
    def test_linearity(self, a1, a2, b1, b2):
        f = lambda p: (a1 + a2 * p) * np.exp(-p)
        g = lambda p: (b1 + b2 * p * p) * np.exp(-p)
        rf = integrate_damped(f, 1.0)
        rg = integrate_damped(g, 1.0)
        rfg = integrate_damped(lambda p: f(p) + g(p), 1.0)
        bound = rf.error + rg.error + rfg.error + 1e-12
        assert abs(rfg.value - (rf.value + rg.value)) <= bound


def oscillator_problem(pot, lo, hi, n):
    return dirichlet_problem(pot, lo, hi, n)[0]


def sturm_count(problem, shift):
    """Number of eigenvalues strictly below ``shift`` (Sturm sequence).

    Reference for the LAPACK bisection backend: the negative-pivot count
    of the shifted LDL^T recurrence.
    """
    d = problem.diagonal
    e2 = problem.off_diagonal ** 2
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


OSCILLATOR_CASES = [
    # (potential on (0, 20), exact ground lambda, tolerance)
    (lambda q: q**2, 3.0, 1e-5),
    (lambda q: 2.0 / q**2 + q**2, 5.0, 1e-4),
    (lambda q: 1.0 / q**2 + q**2, 2.0 + math.sqrt(5.0), 1e-4),
]


class TestTridiagGround:
    @pytest.mark.parametrize("pot,exact,tol", OSCILLATOR_CASES)
    def test_oscillator_ground_levels(self, pot, exact, tol):
        prob = oscillator_problem(pot, 0.0, 20.0, 4000)
        lam = tridiag_ground(prob, 1)[0]
        assert lam == pytest.approx(exact, abs=tol)

    def test_ascending_and_count(self):
        prob = oscillator_problem(lambda q: q**2, 0.0, 20.0, 2000)
        vals = tridiag_ground(prob, 3)
        # odd levels of the full-line oscillator: 3, 7, 11
        assert np.all(np.diff(vals) > 0)
        assert vals == pytest.approx([3.0, 7.0, 11.0], abs=1e-3)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 40
            d = rng.normal(size=n) * 3.0
            e = rng.normal(size=n - 1)
            prob = TridiagProblem(d, e, 0.1)
            rev = TridiagProblem(d[::-1].copy(), e[::-1].copy(), 0.1)
            a = tridiag_ground(prob, 3)
            b = tridiag_ground(rev, 3)
            scale = max(1.0, np.max(np.abs(d)) + 2 * np.max(np.abs(e)))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    @pytest.mark.parametrize("pot,exact,_tol", OSCILLATOR_CASES)
    def test_h2_convergence_order(self, pot, exact, _tol):
        errs = []
        for n in (1000, 2000, 4000):
            lam = tridiag_ground(oscillator_problem(pot, 0.0, 20.0, n), 1)[0]
            errs.append(abs(lam - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)

    def test_sturm_count_matches_lapack(self):
        prob = oscillator_problem(lambda q: q**2, 0.0, 20.0, 300)
        vals = tridiag_ground(prob, 4)
        for k, lam in enumerate(vals):
            assert sturm_count(prob, lam - 1e-9) == k
            assert sturm_count(prob, lam + 1e-9) == k + 1

    def test_vector_residual(self):
        prob = oscillator_problem(lambda q: q**2, 0.0, 20.0, 3000)
        lam = tridiag_ground(prob, 1)[0]
        u = tridiag_ground_vector(prob, lam)
        au = prob.diagonal * u
        au[:-1] += prob.off_diagonal * u[1:]
        au[1:] += prob.off_diagonal * u[:-1]
        assert np.max(np.abs(au - lam * u)) <= 1e-8 * np.max(np.abs(u))
        assert np.sum(u * u) * prob.grid_step == pytest.approx(1.0, rel=1e-12)

    def test_count_validation(self):
        prob = oscillator_problem(lambda q: q**2, 0.0, 20.0, 100)
        with pytest.raises(ValueError):
            tridiag_ground(prob, 0)
        with pytest.raises(ValueError):
            TridiagProblem(np.ones(5), np.ones(5), 0.1)


class TestMinimizeFunctional:
    """Rayleigh-quotient minima by :func:`lowest_eigenpair`."""

    def test_quadratic_form_ground(self):
        a = np.array([1.0, 2.0, 3.0])
        res = lowest_eigenpair(lambda u: a * u, lambda r: r.copy(),
                               np.array([1.0, 1.0, 1.0]), tol=1e-10, max_iter=500)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert abs(res.vector[0]) == pytest.approx(1.0, abs=1e-4)
        assert res.residual <= 1e-10

    def test_oscillator_rayleigh_quotient(self):
        from scipy.linalg import solve_banded

        x = np.linspace(-10.0, 10.0, 8001)
        h = x[1] - x[0]
        pot = 0.5 * x * x

        def apply_h(u):
            lap = np.zeros_like(u)
            lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
            lap[0] = (u[1] - 2.0 * u[0]) / h**2
            lap[-1] = (u[-2] - 2.0 * u[-1]) / h**2
            return -0.5 * lap + pot * u

        init = np.exp(-((x - 1.0) ** 2))

        # (I + tau H)^-1: SPD shift of the operator, solved as a banded system
        tau = 1.0
        ab = np.zeros((3, len(x)))
        ab[0, 1:] = -0.5 * tau / h**2
        ab[1] = 1.0 + tau / h**2 + tau * pot
        ab[2, :-1] = -0.5 * tau / h**2
        precondition = lambda g: solve_banded((1, 1), ab, g)

        res = lowest_eigenpair(apply_h, precondition, init, tol=2.5e-8, max_iter=4000)
        assert res.value == pytest.approx(0.5, abs=1e-6)
        resid = apply_h(res.vector) - res.value * res.vector
        assert np.linalg.norm(resid) == pytest.approx(res.residual, rel=1e-6, abs=1e-12)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, rel=1e-12)

    def test_transverse_massless_value(self, transverse_state):
        # the cylindrical dispersion-product minimization lands on 5/2
        assert transverse_state.gamma == pytest.approx(2.5, abs=1e-3)

    def test_stagnation_carries_state(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(MinimizationError) as err:
            lowest_eigenpair(lambda u: a * u, lambda r: r.copy(),
                             np.array([1.0, 0.5, 0.25, 0.125]), tol=1e-30, max_iter=1)
        assert err.value.state.shape == (4,)
        assert np.linalg.norm(err.value.state) == pytest.approx(1.0, rel=1e-12)
        assert err.value.grad_norm > 0
