"""Tests for the radial ground-state solver."""

import dataclasses
import math

import numpy as np
import pytest

import relbosons.eigensolver as es
from relbosons import numkernel
from relbosons.eigensolver import (GOLDEN_GAMMA, Q_MAX, analytic_cases, closed_form_residual,
                                   expectation_q2, gamma_curve, limit_bracket,
                                   solve_ground_fd, solve_ground_shooting)
from relbosons.numkernel import BracketError, tridiag_matvec
from relbosons.potentials import (INFINITY, effective_potential, limit_profile,
                                  origin_behavior, spec_spin0, spec_spin1)


def log_nodes():
    """The default shooting nodes q, uniform in x = ln q, and their x spacing."""
    x = np.linspace(math.log(es.SHOOTING_Q_LO), math.log(Q_MAX), 8000)
    return np.exp(x), x[1] - x[0]


def reference_sweeps(spec, lam, W, im):
    """The Numerov recurrence for v = u / sqrt(q) as a plain loop over the
    log nodes, outward from q^(alpha - 1/2) and inward from the Gaussian."""
    q, h = log_nodes()
    n, f = len(q), h ** 2 / 12.0
    T = q * q * (W - lam) + 0.25
    vL = np.empty(im + 2)
    vL[:2] = q[:2] ** (origin_behavior(spec).exponent_alpha - 0.5)
    for i in range(1, im + 1):
        vL[i + 1] = (2.0 * (1.0 + 5.0 * f * T[i]) * vL[i]
                     - (1.0 - f * T[i - 1]) * vL[i - 1]) / (1.0 - f * T[i + 1])
    vR = np.empty(n)
    vR[-2:] = q[-2:] ** (0.5 * lam - 1.0) * np.exp(-0.5 * q[-2:] ** 2)
    for i in range(n - 2, im - 1, -1):
        vR[i - 1] = (2.0 * (1.0 + 5.0 * f * T[i]) * vR[i]
                     - (1.0 - f * T[i + 1]) * vR[i + 1]) / (1.0 - f * T[i - 1])
    return vL, vR[im - 1:]


def shooting_defect(spec, n):
    """The three-point defect in x = ln q of the shooting solution v = u / sqrt(q)."""
    res = solve_ground_shooting(spec, n)
    x = np.linspace(math.log(es.SHOOTING_Q_LO), math.log(Q_MAX), n)
    q, lam = res.q_samples, 2.0 * res.gamma
    T = q * q * (effective_potential(q, spec) - lam) + 0.25
    return es._discrete_residual(x, res.u_samples / np.sqrt(q), T, lam)


class TestShooting:
    def test_start_underflow_names_the_angular_index(self, monkeypatch):
        # 1e-7^(alpha - 1/2) is 0.0 from alpha = 47 on: raised before W is
        # evaluated or any sweep runs
        monkeypatch.setattr(es, "_numerov_sweep", None)
        monkeypatch.setattr(es, "effective_potential", None)
        for spec, alpha in ((spec_spin0(0.0, 46), "47"), (spec_spin1(1.0, 46), "47.0215")):
            with pytest.raises(ValueError, match=rf"angular index l = 46\b.*alpha = {alpha}$"):
                solve_ground_shooting(spec)

    def test_largest_angular_index_that_starts(self):
        # l = 45: the start values are subnormal but nonzero, and both
        # routes agree on the exact level alpha + 1/2
        (point,) = gamma_curve(spec_spin0(0.0, 45), [0.0])
        assert point.ok
        assert point.gamma == pytest.approx(46.5, abs=1e-8)

    def test_ground_state_nodeless(self):
        for spec in (spec_spin0(1.0), spec_spin1(0.5), spec_spin0(INFINITY)):
            res = solve_ground_shooting(spec)
            interior = res.u_samples[2:-2]
            assert np.all(interior > 0.0)

    def test_normalization(self):
        # int u^2 dq on nodes uniform in x = ln q, where dq = q dx
        res = solve_ground_shooting(spec_spin0(0.7))
        q, h = log_nodes()
        assert np.array_equal(res.q_samples, q)
        assert np.sum(q * res.u_samples**2) * h == pytest.approx(1.0, rel=1e-10)

    def test_discrete_residual_at_h2_scale(self):
        # the defect is the three-point check's own O(dx^2) truncation:
        # small at the default grid, and divided by 4 when dx is halved
        for spec in (spec_spin0(0.0), spec_spin0(32.0), spec_spin0(INFINITY),
                     spec_spin1(1.0)):
            coarse, fine = (shooting_defect(spec, n) for n in (4000, 8000))
            assert fine <= 1e-5, spec
            assert coarse / fine == pytest.approx(4.0, abs=0.1), spec

    @pytest.mark.parametrize("spec", [spec_spin0(1.0), spec_spin1(1.0)],
                             ids=["spin0-regular", "spin1-singular"])
    def test_banded_sweep_matches_loop(self, spec):
        q, h = log_nodes()
        W = effective_potential(q, spec)
        im = int(np.searchsorted(q, 1.0))
        lam = 2.0 * solve_ground_fd(spec).gamma + 0.01
        g, uL, uR = es._numerov_mismatch(es._shooting_head(spec, q), q, h, lam, W, im)
        refL, refR = reference_sweeps(spec, lam, W, im)
        assert np.max(np.abs(uL - refL)) <= 1e-11 * np.max(np.abs(refL))
        assert np.max(np.abs(uR - refR)) <= 1e-11 * np.max(np.abs(refR))
        ref_g = refL[im] * refR[2] - refL[im + 1] * refR[1]
        assert g == pytest.approx(ref_g, rel=1e-9)

    def test_large_d_agrees_with_fd(self):
        # W varies on the scale q ~ 1/d, which the log grid resolves alike
        # at every d: shooting keeps matching FD (whose own error at the
        # q^1.618 origin of d = inf is 3e-9) and lands on the massless limit
        for mk in (spec_spin0, spec_spin1):
            for d in (8.0, 16.0, 32.0, 300.0, 1000.0, 1e4):
                sh = solve_ground_shooting(mk(d))
                assert abs(sh.gamma - solve_ground_fd(mk(d)).gamma) <= 1e-8, (mk, d)
            assert abs(solve_ground_shooting(mk(INFINITY)).gamma - GOLDEN_GAMMA) <= 1e-10

    def test_brent_metadata(self):
        res = solve_ground_shooting(spec_spin0(1.0))
        lo, hi = res.meta["bracket"]
        # zeroin's stopping width is xtol + 4 eps |lam|
        lam = 2.0 * res.gamma
        assert lo <= lam <= hi
        assert hi - lo <= 1e-10 + 4.0 * np.finfo(float).eps * lam
        # the two bracket ends and at least one step inside
        assert 2 < res.meta["mismatch_evaluations"] <= 20

    @pytest.mark.parametrize("d", [0.0, 1.0, 32.0])
    def test_root_sweeps_reused(self, monkeypatch, d):
        sweep, calls = es._numerov_mismatch, []

        def counting(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(es, "_numerov_mismatch", counting)
        spec = spec_spin0(d)
        res = solve_ground_shooting(spec)
        assert len(calls) == res.meta["mismatch_evaluations"]
        # reference: the plain root search, then one more sweep at the root
        head, q, step, _, W, im = calls[0]
        root = es.find_root(lambda lam: sweep(head, q, step, lam, W, im)[0],
                            *es.limit_bracket(spec), 1e-10)
        _, vL, vR = sweep(head, q, step, root.value, W, im)
        v = np.concatenate([vL[:im], vR[1:] * (vL[im] / vR[1])])
        v /= math.sqrt(np.sum(q * q * v * v) * step)
        v *= np.sign(v[np.argmax(np.abs(v))])
        assert res.gamma == root.value / 2.0
        assert np.array_equal(res.u_samples, np.sqrt(q) * v)

    def test_tiny_tolerance_converges_or_raises(self, monkeypatch):
        monkeypatch.setattr(es, "_SHOOTING_XTOL", 1e-20)
        try:
            res = solve_ground_shooting(spec_spin0(1.0))
        except RuntimeError:
            return  # the root search's iteration cap
        lo, hi = res.meta["bracket"]
        lam = 2.0 * res.gamma
        assert lo <= lam <= hi
        # zeroin stops at a relative width of 4 eps: the double floor
        assert hi - lo <= 4.0 * np.finfo(float).eps * lam

    def test_nonconvergence_propagates(self, monkeypatch):
        monkeypatch.setattr(numkernel, "_MAX_ROOT_ITERATIONS", 2)
        with pytest.raises(RuntimeError, match="iteration cap _MAX_ROOT_ITERATIONS = 2"):
            solve_ground_shooting(spec_spin0(1.0))

    def test_bracket_failure_names_bracket(self, monkeypatch):
        # plant a bracket between levels: [28.5, 29.5] straddles no
        # eigenvalue of -u'' + q^2 u (levels 3, 7, 11, ...)
        monkeypatch.setattr(es, "limit_bracket", lambda spec: (28.5, 29.5))
        with pytest.raises(BracketError, match=r"\[28\.500000, 29\.500000\].*d = inf"):
            solve_ground_shooting(spec_spin0(0.0))

    @pytest.mark.parametrize("mk", [spec_spin0, spec_spin1], ids=["spin0", "spin1"])
    def test_limit_bracket_holds_the_level(self, mk):
        # lam(d) lies between the exact d = 0 and d = inf levels for every
        # angular index; the margin only absorbs the discretization
        for l in range(4):
            lo, hi = es.limit_bracket(mk(1.0, l))
            ends = sorted(2.0 * gamma for gamma in (solve_ground_fd(mk(0.0, l)).gamma,
                                                    solve_ground_fd(mk(INFINITY, l)).gamma))
            assert (lo, hi) == pytest.approx((ends[0] - 0.05, ends[1] + 0.05), abs=1e-5)
            for d in (0.5, 4.0, 64.0):
                lam = 2.0 * solve_ground_shooting(mk(d, l)).gamma
                assert lo + 0.05 - 1e-9 < lam < hi - 0.05 + 1e-9


class TestFdMatrix:
    def test_scalar_l1_oscillator_level(self):
        res = solve_ground_fd(spec_spin0(0.0, l=1))
        assert res.gamma == pytest.approx(2.5, abs=1e-5)

    def test_intermediate_d_cross_method(self):
        fd = solve_ground_fd(spec_spin0(1.0))
        sh = solve_ground_shooting(spec_spin0(1.0))
        assert 1.5 < fd.gamma < GOLDEN_GAMMA
        assert abs(fd.gamma - sh.gamma) <= 1e-6

    def test_matrix_residual_small(self):
        spec = spec_spin1(2.0)
        res = solve_ground_fd(spec)
        # u_samples is the unit kernel vector over sqrt(h): sum(u^2) h = 1
        h = res.q_samples[0]
        assert abs(np.sum(res.u_samples ** 2) * h - 1.0) <= 1e-12
        # ... and an eigenvector of the step-h three-point Dirichlet matrix at lambda_h
        nodes = np.linspace(0.0, Q_MAX, 8000)[1:-1]
        assert np.array_equal(nodes, res.q_samples)
        v = res.u_samples * math.sqrt(h)
        r = (tridiag_matvec(2.0 / h**2 + effective_potential(nodes, spec), -1.0 / h**2, v)
             - res.meta["lambda_h"] * v)
        assert np.linalg.norm(r) <= 1e-7

    def test_richardson_metadata(self):
        res = solve_ground_fd(spec_spin0(0.0))
        assert set(res.meta) >= {"lambda_h", "lambda_h_half"}
        # Richardson beats both raw resolutions against the exact level
        assert abs(2.0 * res.gamma - 3.0) < abs(res.meta["lambda_h"] - 3.0)

    @pytest.mark.parametrize("mk", [spec_spin0, spec_spin1], ids=["spin0", "spin1"])
    def test_ladder_work(self, mk):
        # the h level starts from the coarse level, the h/2 level from the
        # h level; from 1 and the Gershgorin shift they took 5-6 and 2
        for d in (0.0, 1.0, 32.0, INFINITY):
            meta = solve_ground_fd(mk(d)).meta
            (_, its_h, its_h2), factorizations = (meta["inverse_iterations"],
                                                  meta["factorizations"])
            assert its_h <= 2 and its_h2 == 1, (d, meta)
            assert len(factorizations) == 3 and min(factorizations) >= 1


class TestGammaCurve:
    def test_scalar_endpoints(self, sweep_curves):
        pts = {p.d: p for p in sweep_curves[0]}
        assert pts[0.0].gamma == pytest.approx(1.5, abs=1e-6)
        assert pts[INFINITY].gamma == pytest.approx(GOLDEN_GAMMA, abs=1e-6)

    def test_longitudinal_endpoints(self, sweep_curves):
        pts = {p.d: p for p in sweep_curves[1]}
        assert pts[0.0].gamma == pytest.approx(2.5, abs=1e-6)
        assert pts[INFINITY].gamma == pytest.approx(GOLDEN_GAMMA, abs=1e-6)

    def test_interval_bounds(self, sweep_curves):
        for p in sweep_curves[0]:
            assert 1.5 - 1e-9 <= p.gamma <= GOLDEN_GAMMA + 1e-9
        for p in sweep_curves[1]:
            assert GOLDEN_GAMMA - 1e-9 <= p.gamma <= 2.5 + 1e-9

    @pytest.mark.parametrize("spin", [0, 1])
    def test_dense_d_monotone_inside_interval(self, spin):
        # gamma(d) rises from 3/2 (spin 0) or falls from 5/2 (spin 1)
        # towards 1 + sqrt(5)/2, strictly, over the whole d range; the
        # steps shrink like 1/d^2, to 1.7e-8 (spin 0) and 4.9e-8 (spin 1)
        # between d = 1e4 and d = inf
        d_values = [0.0, *np.geomspace(0.05, 32.0, 23).tolist(),
                    100.0, 300.0, 1000.0, 1e4, INFINITY]
        curve = gamma_curve(spec_spin0(0.0) if spin == 0 else spec_spin1(0.0),
                            d_values)
        assert all(p.ok for p in curve), [p.message for p in curve if not p.ok]
        gammas = np.array([p.gamma for p in curve])
        steps = np.diff(gammas) if spin == 0 else -np.diff(gammas)
        assert np.all(steps > 0)
        lo, hi = (1.5, GOLDEN_GAMMA) if spin == 0 else (GOLDEN_GAMMA, 2.5)
        assert np.all((gammas >= lo - 1e-9) & (gammas <= hi + 1e-9))

    def test_two_method_agreement(self, sweep_curves):
        for curve in sweep_curves.values():
            for p in curve:
                assert p.ok
                assert abs(p.gamma - p.gamma_fd) <= 1e-6

    def test_cross_method_disagreement_marks_point(self, monkeypatch):
        fd = es.solve_ground_fd

        def shifted_fd(spec, n, ladder=None):
            res = fd(spec, n, ladder)
            res.gamma += 2.0 * es.CROSS_METHOD_TOL
            return res

        monkeypatch.setattr(es, "solve_ground_fd", shifted_fd)
        (p,) = gamma_curve(spec_spin0(0.0), [0.0], n=4000)
        assert not p.ok
        assert f"{p.gamma:.12g}" in p.message
        assert f"{p.gamma_fd:.12g}" in p.message

    def test_failures_recorded_not_raised(self):
        # shooting cannot start at l = 46: each point fails on its own,
        # and the sweep still returns both of them
        curve = gamma_curve(spec_spin0(0.0, 46), [0.0, 1.0], n=2000)
        assert [p.d for p in curve] == [0.0, 1.0]
        for p in curve:
            assert not p.ok and "angular index l = 46" in p.message

    def test_refused_point_runs_no_fd_solve(self, monkeypatch):
        # shooting runs first and refuses l = 46 before the FD ladder is used
        fd, calls = es.solve_ground_fd, []

        def counting(spec, n, ladder=None):
            calls.append(spec)
            return fd(spec, n, ladder)

        monkeypatch.setattr(es, "solve_ground_fd", counting)
        curve = gamma_curve(spec_spin0(0.0, 46), [0.0, 1.0], n=2000)
        assert not any(p.ok for p in curve)
        assert calls == []

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
    def test_too_few_nodes_refused_before_any_grid(self, n, monkeypatch):
        # the --grid-n wording, raised before a ladder or node array is made
        monkeypatch.setattr(es, "RichardsonLadder", None)
        monkeypatch.setattr(es, "effective_potential", None)
        for solve in (lambda: solve_ground_fd(spec_spin0(1.0), n),
                      lambda: solve_ground_shooting(spec_spin0(1.0), n),
                      lambda: gamma_curve(spec_spin0(0.0), [0.0, 1.0], n)):
            with pytest.raises(ValueError, match=r"^n must be at least 100$"):
                solve()

    def test_empty_exception_message_names_the_type(self, monkeypatch):
        def failing(spec, n, ladder=None):
            raise RuntimeError()

        monkeypatch.setattr(es, "solve_ground_fd", failing)
        (p,) = gamma_curve(spec_spin0(0.0), [1.0])
        assert not p.ok
        assert p.message == "RuntimeError"

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            gamma_curve(spec_spin0(0.0), [-0.5])

    def test_point_does_not_depend_on_the_sweep(self):
        # the d = 1 point of a sweep that shares its ladder with d = 4 and
        # d = 0 has the bits of a sweep over d = 1 alone
        (alone,) = gamma_curve(spec_spin1(0.0), [1.0])
        shared = gamma_curve(spec_spin1(0.0), [4.0, 1.0, 0.0])[1]
        assert shared.d == 1.0 and shared.ok
        assert (shared.gamma_fd, shared.gamma) == (alone.gamma_fd, alone.gamma)

    def test_one_ladder_per_sweep(self, monkeypatch):
        built = []
        ladder = es.RichardsonLadder
        monkeypatch.setattr(es, "RichardsonLadder",
                            lambda *args: built.append(args) or ladder(*args))
        gamma_curve(spec_spin0(0.0), [0.0, 1.0, INFINITY], n=2000)
        assert built == [(Q_MAX, 2000)]

    def test_fd_rejects_a_ladder_of_another_grid(self):
        with pytest.raises(ValueError, match="not the FD ladder"):
            solve_ground_fd(spec_spin0(1.0), 2000, ladder=es.RichardsonLadder(Q_MAX, 1000))

    def test_non_finite_mismatch_fails_the_point(self, monkeypatch):
        # zeroin refuses a nan instead of bisecting towards it; the sweep
        # records the refusal, naming the point, as that d's failure
        monkeypatch.setattr(es, "_numerov_mismatch",
                            lambda head, q, step, lam, W, im: (math.nan, None, None))
        (p,) = gamma_curve(spec_spin0(0.0), [1.0], n=2000)
        assert not p.ok and math.isnan(p.gamma)
        assert "is not finite" in p.message and "f(" in p.message

    def test_rejects_nan_d_before_solving(self, monkeypatch):
        # nan is no nonnegative d: refused up front, not after d = 1 is solved
        fd, calls = es.solve_ground_fd, []
        monkeypatch.setattr(es, "solve_ground_fd",
                            lambda *args, **kwargs: calls.append(args) or fd(*args, **kwargs))
        with pytest.raises(ValueError, match="nonnegative"):
            gamma_curve(spec_spin0(0.0), [1.0, math.nan])
        assert calls == []


class TestAnalyticLimits:
    def test_residuals_decrease_at_order_h2(self):
        for case in analytic_cases():
            coarse, fine = closed_form_residual(case, 4000), closed_form_residual(case, 8000)
            assert coarse / fine >= 3.0, case.label

    @pytest.mark.parametrize("l", [0, 2])
    def test_massless_limit_is_spin_independent(self, l):
        # analytic_cases lists d = inf once: W, its ground state and the
        # origin behavior are the same problem for either spin
        q = np.linspace(0.01, 12.0, 1200)
        s0, s1 = spec_spin0(INFINITY, l), spec_spin1(INFINITY, l)
        assert np.array_equal(effective_potential(q, s0), effective_potential(q, s1))
        assert np.array_equal(limit_profile(q, s0), limit_profile(q, s1))
        assert origin_behavior(s0) == origin_behavior(s1)

    def test_gamma_h2_convergence(self):
        # eigenvalue error falls ~4x per refinement for the closed forms
        for case in analytic_cases():
            errs = []
            for n in (2000, 4000):
                res = solve_ground_fd(case.spec, n)
                errs.append(abs(res.meta["lambda_h"] / 2.0 - case.gamma))
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)


class TestInvariants:
    def test_centrifugal_monotonicity(self):
        for d in (0.0, 1.0):
            gammas = [solve_ground_fd(spec_spin0(d, l=l)).gamma for l in (0, 1, 2)]
            assert gammas[0] < gammas[1] < gammas[2]
        g0 = solve_ground_fd(spec_spin1(0.5, j=0)).gamma
        g1 = solve_ground_fd(spec_spin1(0.5, j=1)).gamma
        assert g0 < g1

    def test_scaling_balance_at_limit_cases(self):
        # <q^2> = gamma holds exactly where the non-oscillator part of W
        # is homogeneous of degree -2: the d in {0, inf} cases
        for case in analytic_cases():
            res = solve_ground_shooting(case.spec)
            assert expectation_q2(res) == pytest.approx(res.gamma, abs=1e-5)
        anchors = {"spin0 d=0": 1.5, "spin0 d=inf": (2.0 + math.sqrt(5.0)) / 2.0}
        for case in analytic_cases():
            if case.label in anchors:
                res = solve_ground_shooting(case.spec)
                assert expectation_q2(res) == pytest.approx(anchors[case.label], abs=1e-5)

    def test_scaling_balance_breaks_at_finite_d(self):
        # at finite d the virial term (d^2/4)(3+x)/(1+x)^3 (scalar) shifts
        # <q^2> away from gamma; the equality is a limit-case identity
        res = solve_ground_shooting(spec_spin0(1.0))
        assert abs(expectation_q2(res) - res.gamma) > 0.05
        # a ratio of two u^2 integrals: the scale of u drops out
        scaled = dataclasses.replace(res, u_samples=3.0 * res.u_samples)
        assert expectation_q2(scaled) == pytest.approx(expectation_q2(res), rel=1e-12)

    @pytest.mark.parametrize("mk", [spec_spin0, spec_spin1], ids=["spin0", "spin1"])
    def test_q_max_deep_in_the_decay_region(self, mk):
        # the inward sweep starts in the Gaussian-decay region, which asks
        # W(Q_MAX) to exceed the top of the shooting bracket by 20; at every
        # index shooting can start it does by at least 65.  W is monotone
        # in d^2 and the bracket does not depend on d, so d = 0 and d = inf
        # bound the margin at every d
        for d in (0.0, INFINITY):
            for l in range(46):
                spec = mk(d, l)
                margin = effective_potential(Q_MAX, spec) - limit_bracket(spec)[1]
                assert margin >= 65.0, (d, l, margin)
