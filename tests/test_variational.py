"""Tests for the dispersion functionals and the transverse minimization."""

import math

import numpy as np
import pytest

from relbosons import kg_fields, numkernel
from relbosons.eigensolver import ALPHA_GOLDEN, GOLDEN_GAMMA
from relbosons.potentials import INFINITY, d_parameter, spec_spin0, spec_spin1
from relbosons.variational import (CylindricalGrid, DivergentWeightError,
                                   RadialMomentumGrid, closed_form_readings,
                                   euler_lagrange_residual, factor_state,
                                   minimize_transverse_massless, norm_and_dp2,
                                   position_dispersion_momentum, radial_state,
                                   rescaled_profile, separation_oracle,
                                   _lowest_mode, _TransverseOperator)


def wrong_width_gaussian(grid):
    """Factors (a, b) of q_perp x Gaussian of deliberately wrong width."""
    return grid.q_perp * np.exp(-grid.q_perp**2), np.exp(-grid.q_z**2)


def cylindrical_measure(grid):
    """2 pi q_perp h^2 at every node."""
    qp = np.broadcast_to(grid.q_perp[:, None], (len(grid.q_perp), len(grid.q_z)))
    return 2.0 * math.pi * grid.step**2 * qp


def dense_dispersion_pair(grid, f):
    """(Delta q^2, Delta r_q^2) on the cylindrical grid from the whole 2-D array.

    Reference for the factor evaluation of :func:`factor_state`: the pair
    ``f`` = (a, b) is formed into a b here; centered differences with zero
    ghosts, every integrand summed against the measure.
    """
    f = np.outer(*f)
    W = cylindrical_measure(grid)
    qp, qz, h = grid.q_perp[:, None], grid.q_z[None, :], grid.step
    pad = np.pad(f, 1)
    dfp = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / (2.0 * h)
    dfz = (pad[1:-1, 2:] - pad[1:-1, :-2]) / (2.0 * h)
    n2 = np.sum(f * f * W)
    return (np.sum((qp**2 + qz**2) * f * f * W) / n2,
            np.sum((dfp**2 + dfz**2 + f * f / qp**2) * W) / n2)


def staggered_apply_h(grid, f):
    """(-Lap + 1/q_perp^2 + q^2) f in the W metric, Lap in staggered flux form.

    Reference for the Kronecker-sum operator: fluxes dp, dz between
    neighbours (zero ghosts outside the grid) weighted by the measure
    averaged onto the half points, halved at the outer half points.
    """
    h, W = grid.step, cylindrical_measure(grid)
    qp, qz = grid.q_perp, grid.q_z
    Wp = np.empty((len(qp) + 1, len(qz)))
    Wp[1:-1] = 0.5 * (W[1:] + W[:-1])
    Wp[0] = 0.5 * W[0]
    Wp[-1] = 0.5 * W[-1]
    Wz = np.empty((len(qp), len(qz) + 1))
    Wz[:, 1:-1] = 0.5 * (W[:, 1:] + W[:, :-1])
    Wz[:, 0] = 0.5 * W[:, 0]
    Wz[:, -1] = 0.5 * W[:, -1]
    dp = np.diff(f, axis=0, prepend=0.0, append=0.0) / h
    dz = np.diff(f, axis=1, prepend=0.0, append=0.0) / h
    lap = (-np.diff(dp * Wp, axis=0) / h - np.diff(dz * Wz, axis=1) / h) / W
    return lap + (1.0 / qp[:, None] ** 2 + qp[:, None] ** 2 + qz[None, :] ** 2) * f


class TestWeights:
    def test_weight_matches_canonical_potential(self):
        # the paper's weights in the energy e = E/m = sqrt(1 + (d q)^2):
        # spin 0 d^2 (1/e^2 + 1/(2 e^4)), spin 1 (1 + 1/e^2)/q^2 + d^2/(2 e^4),
        # both 1/q^2 at d = inf; W adds q^2 and l (l + 1)/q^2
        from relbosons.potentials import dispersion_weight, effective_potential

        q = np.linspace(0.2, 6.0, 40)
        for d in (0.0, 0.8, 2.0, INFINITY):
            e2 = 1.0 + (d * q) ** 2
            paper = ({0: 1.0 / q**2, 1: 1.0 / q**2} if math.isinf(d) else
                     {0: d**2 * (1.0 / e2 + 1.0 / (2.0 * e2**2)),
                      1: (1.0 + 1.0 / e2) / q**2 + d**2 / (2.0 * e2**2)})
            for spin in (0, 1):
                for l in (0, 2):
                    spec = (spec_spin0 if spin == 0 else spec_spin1)(d, l)
                    assert dispersion_weight(q, spec) == pytest.approx(paper[spin], rel=1e-13)
                    assert effective_potential(q, spec) == pytest.approx(
                        paper[spin] + q**2 + l * (l + 1) / q**2, rel=1e-13)


class TestDispersionPair:
    def test_transverse_massless_product_state(self):
        # q_perp Gaussian: separable planar level 2 plus line level 1/2
        grid = CylindricalGrid()
        f = grid.q_perp * np.exp(-grid.q_perp**2 / 2.0), np.exp(-grid.q_z**2 / 2.0)
        state = factor_state(grid, *f)
        assert (state.delta_q2, state.delta_rq2) == pytest.approx(
            dense_dispersion_pair(grid, f), rel=1e-14)
        assert state.gamma == pytest.approx(2.5, abs=1e-3)

    @pytest.mark.parametrize("trial", ["gaussian", "minimizer"])
    def test_row_reductions_match_dense_reference(self, trial, transverse_state):
        grid = transverse_state.geometry
        f = {"gaussian": lambda: wrong_width_gaussian(grid),
             "minimizer": lambda: transverse_state.f_samples}[trial]()
        state = factor_state(grid, *f)
        assert (state.delta_q2, state.delta_rq2) == pytest.approx(
            dense_dispersion_pair(grid, f), rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2],
                             ids=lambda seed: f"{seed}-spin1_transverse_massless")
    def test_factor_pair_matches_outer_product(self, seed):
        # random separable states, vanishing ~ q_perp on the axis; grid
        # steps off the default, both q_z ends nonzero
        rng = np.random.default_rng(seed)
        grid = CylindricalGrid(q_max=5.0 + rng.random(), step=0.05 + 0.01 * rng.random())
        a = grid.q_perp * (1.0 + 0.3 * rng.random(len(grid.q_perp)))
        b = rng.standard_normal(len(grid.q_z))
        state = factor_state(grid, a, b)
        assert (state.delta_q2, state.delta_rq2) == pytest.approx(
            dense_dispersion_pair(grid, (a, b)), rel=1e-14)

    def test_factor_pair_divergent_axis_rejected(self):
        grid = CylindricalGrid(q_max=4.0, step=0.05)
        with pytest.raises(DivergentWeightError):
            factor_state(grid, np.ones(len(grid.q_perp)), np.exp(-grid.q_z**2))

    def test_wrong_width_gaussian_keeps_product(self):
        # scale invariance of the d = 0 product: (3, 3/4) multiply to (3/2)^2
        grid = RadialMomentumGrid()
        q = grid.q
        state = radial_state(grid, np.exp(-q * q / 4), spec_spin0(0.0))
        assert state.delta_q2 == pytest.approx(3.0, abs=1e-4)
        assert state.delta_rq2 == pytest.approx(0.75, abs=1e-5)
        assert state.gamma == pytest.approx(1.5, abs=1e-5)

    def test_excited_trial_exceeds_bound(self):
        grid = RadialMomentumGrid()
        q = grid.q
        gam = radial_state(grid, (1.0 + q * q) * np.exp(-q * q / 2),
                           spec_spin0(0.0)).gamma
        assert gam > 1.5


class TestScaleInvariance:
    @pytest.mark.parametrize("d", [0.0, INFINITY])
    def test_invariant_for_homogeneous_weights(self, d):
        grid = RadialMomentumGrid(q_max=12.0, n=48000)
        q = grid.q
        # the d = inf trial carries the origin power of that channel so
        # the weighted integrand vanishes at q = 0 as it must physically
        a = 0.0 if d == 0.0 else ALPHA_GOLDEN - 1.0
        base = lambda s: (s * q) ** a * (1.0 + (s * q) ** 2) * np.exp(
            -((s * q) ** 2) / 2.0)
        spec = spec_spin0(d)
        g1 = radial_state(grid, base(1.0), spec).gamma
        for s in (0.8, 1.25):
            gs = radial_state(grid, base(s), spec).gamma
            assert abs(gs - g1) <= 1e-8 * g1

    def test_grid_equivariance_transverse(self):
        # exact discrete equivariance: scaling state and grid together
        s = 1.5
        g1 = CylindricalGrid(q_max=6.0, step=0.05)
        g2 = CylindricalGrid(q_max=6.0 * s, step=0.05 * s)
        f1 = wrong_width_gaussian(g1)
        qp, qz = g2.q_perp / s, g2.q_z / s
        f2 = (qp / s) * np.exp(-qp**2) * s, np.exp(-qz**2)  # same shape function
        gam1 = factor_state(g1, *f1).gamma
        gam2 = factor_state(g2, *f2).gamma
        assert gam2 == pytest.approx(gam1, rel=1e-12)

    def test_scale_dependence_at_finite_d(self):
        # d fixes the scale: the product must move under rescaling
        grid = RadialMomentumGrid()
        q = grid.q
        spec = spec_spin0(1.0)
        g1 = radial_state(grid, np.exp(-q * q / 2.0), spec).gamma
        g2 = radial_state(grid, np.exp(-(2.0 * q) ** 2 / 2.0), spec).gamma
        assert abs(g2 - g1) > 1e-3


class TestVariationalBound:
    def test_nonrelativistic_trials_bounded_below(self):
        grid = RadialMomentumGrid(q_max=12.0, n=8000)
        q = grid.q
        spec = spec_spin0(0.0)
        trials = [np.exp(-q * q / 4.0), (1.0 + q * q) * np.exp(-q * q / 2.0),
                  q * np.exp(-q * q / 1.7), np.exp(-q) * q]
        for f in trials:
            assert radial_state(grid, f, spec).gamma >= 1.5 - 1e-6

    def test_massless_trials_bounded_below(self):
        grid = RadialMomentumGrid(q_max=12.0, n=8000)
        q = grid.q
        spec = spec_spin0(INFINITY)
        a = ALPHA_GOLDEN - 1.0
        trials = [q**a * np.exp(-q * q / 2.0), q**a * np.exp(-q * q / 3.0),
                  q**a * (1.0 + 0.5 * q * q) * np.exp(-q * q / 2.0),
                  q * np.exp(-q * q / 2.0)]
        for f in trials:
            assert radial_state(grid, f, spec).gamma >= GOLDEN_GAMMA - 1e-6

    def test_longitudinal_trials_bounded_below(self):
        grid = RadialMomentumGrid(q_max=12.0, n=8000)
        q = grid.q
        spec = spec_spin1(0.0)
        for f in (q * np.exp(-q * q / 2.0), q * np.exp(-q * q / 3.0),
                  q * (1.0 + q) * np.exp(-q * q / 2.0)):
            assert radial_state(grid, f, spec).gamma >= 2.5 - 1e-6


class TestCrossModule:
    def test_rescaled_dispersion_matches_position_space(self):
        # Delta r_q^2 of the rescaled profile = (m d)^2 Delta r^2(physical)
        rng = np.random.default_rng(3)
        grid = RadialMomentumGrid(q_max=14.0, n=12000)
        for _ in range(3):
            b = rng.uniform(0.6, 1.4)
            a = rng.uniform(0.0, 1.0)
            mass = rng.uniform(0.7, 2.0)
            f = lambda p: (1.0 + a * np.asarray(p) ** 2) * np.exp(
                -np.asarray(p) ** 2 / (2.0 * b * b))
            df = lambda p: (2.0 * a - (1.0 + a * np.asarray(p) ** 2) / (b * b)) * np.asarray(
                p) * np.exp(-np.asarray(p) ** 2 / (2.0 * b * b))
            _, dp2 = norm_and_dp2(f, p_max=16.0 * b)
            dr2 = position_dispersion_momentum(f, mass, df, p_max=16.0 * b)
            d = d_parameter(dp2, dr2, mass)
            fq = rescaled_profile(f, mass, d)
            state = radial_state(grid, fq(grid.q), spec_spin0(d))
            dq2_r, drq2_r = state.delta_q2, state.delta_rq2
            assert drq2_r == pytest.approx((mass * d) ** 2 * dr2, rel=1e-5)
            # the self-consistent rescaling balances the state exactly
            assert dq2_r == pytest.approx(drq2_r, rel=1e-4)

    def test_position_route_validates_momentum_weight(self):
        f = lambda p: np.exp(-np.asarray(p) ** 2 / 2.0)
        direct = kg_fields.position_dispersion_direct(f, 1.3, r_max=30.0, p_max=12.0)
        mom = position_dispersion_momentum(f, 1.3, lambda p: -np.asarray(p) * f(p),
                                           p_max=12.0)
        assert direct == pytest.approx(mom, rel=1e-6)


class TestTransverseMinimization:
    def test_separation_oracle_is_exact(self):
        # planar level 4/2 plus line level 1/2, both closed forms
        assert separation_oracle() == 2.5

    def test_wrong_width_init(self, transverse_state):
        assert transverse_state.gamma == pytest.approx(2.5, abs=1e-3)
        # both tridiagonal factors together: 6 + 5 inverse iterations here
        assert transverse_state.meta["iterations"] <= 20

    def test_iterations_count_both_factor_solves(self, transverse_state):
        # the sum over the two tridiagonals, 6 + 5 here, that verify prints
        op = _TransverseOperator(CylindricalGrid())
        perp = numkernel.tridiag_ground(op.d_perp, op.e_perp)
        along = numkernel.tridiag_ground(op.d_z, np.full(len(op.d_z) - 1, op.e_z))
        assert transverse_state.meta["iterations"] == perp.iterations + along.iterations

    def test_random_positive_init(self, transverse_state):
        # no trial state has a Rayleigh quotient of the reference operator
        # below lambda: the random positive start the minimization once
        # took, two more, and the returned (rebalanced) minimizer
        grid = transverse_state.geometry
        lam = 2.0 * transverse_state.meta["mean_value"]
        W = cylindrical_measure(grid)
        qp, qz = grid.q_perp[:, None], grid.q_z[None, :]
        trials = [np.outer(*transverse_state.f_samples)]
        for seed, width in ((7, 0.3), (8, 0.5), (9, 1.0)):
            rng = np.random.default_rng(seed)
            trials.append(qp * (0.5 + rng.random((len(grid.q_perp), len(grid.q_z))))
                          * np.exp(-width * (qp**2 + qz**2)))
        for f in trials:
            rq = np.sum(W * f * staggered_apply_h(grid, f)) / np.sum(W * f * f)
            assert rq >= lam - 1e-12

    def test_separation_residual(self, transverse_state):
        # ||H g - lambda g|| of the unit g = sqrt(w) a b, from the unseparated
        # reference operator, and the library's value from the two factors
        grid = CylindricalGrid()
        a, b, meta = _lowest_mode(grid)
        f = np.outer(a, b)
        lam = 2.0 * meta["mean_value"]
        r = staggered_apply_h(grid, f) - lam * f
        assert math.sqrt(np.sum(cylindrical_measure(grid) * r * r)) <= 1e-9
        assert transverse_state.meta["grad_norm"] <= 1e-9

    def test_dense_generalized_eigenproblem(self):
        # the separated minimum against LAPACK on the assembled reference matrix
        from scipy.linalg import eigh

        grid = CylindricalGrid(q_max=2.4, step=0.1)
        shape = (len(grid.q_perp), len(grid.q_z))
        n = shape[0] * shape[1]
        H = np.empty((n, n))
        unit = np.zeros(n)
        for k in range(n):
            unit[k] = 1.0
            H[:, k] = staggered_apply_h(grid, unit.reshape(shape)).ravel()
            unit[k] = 0.0
        W = cylindrical_measure(grid).ravel()
        A = W[:, None] * H
        assert np.max(np.abs(A - A.T)) <= 1e-13 * np.max(np.abs(A))
        vals, vecs = eigh(A, np.diag(W), subset_by_index=[0, 0])
        state = minimize_transverse_massless(grid)
        assert 2.0 * state.meta["mean_value"] == pytest.approx(vals[0], rel=1e-10)
        a, b, _ = _lowest_mode(grid)
        v = vecs[:, 0] * math.copysign(1.0, vecs[np.argmax(np.abs(vecs[:, 0])), 0])
        assert np.max(np.abs(np.outer(a, b).ravel() - v)) <= 1e-9 * np.max(v)

    def test_balance_at_minimum(self, transverse_state):
        # the same samples on the rescaled grid balance to rounding, and
        # the product is that of the unbalanced state on the nominal grid
        dq2, drq2 = transverse_state.delta_q2, transverse_state.delta_rq2
        assert abs(dq2 - drq2) <= 1e-12 * max(dq2, drq2)
        grid = CylindricalGrid()
        a, b, _ = _lowest_mode(grid)
        unbalanced = factor_state(grid, a, b).gamma
        assert transverse_state.gamma == pytest.approx(unbalanced, abs=1e-14)
        dense = math.sqrt(np.prod(dense_dispersion_pair(grid, (a, b))))
        assert unbalanced == pytest.approx(dense, rel=1e-14)
        assert transverse_state.norm_N2 == pytest.approx(1.0, rel=1e-14)

    def test_evaluate_state_matches_minimizer(self, transverse_state):
        # the ragged (a, b) pair of the minimizer evaluates to the same state
        state = factor_state(transverse_state.geometry, *transverse_state.f_samples)
        assert all(x is y for x, y in zip(state.f_samples, transverse_state.f_samples))
        for name in ("norm_N2", "delta_q2", "delta_rq2", "gamma"):
            assert getattr(state, name) == getattr(transverse_state, name), name

    def test_euler_lagrange_residual(self, transverse_state):
        assert euler_lagrange_residual(transverse_state) <= 1e-3

    def test_euler_lagrange_residual_matches_dense(self, transverse_state):
        # the factor evaluation against the bracket applied to the whole
        # outer product by the reference operator; expanding the squared
        # norm with its cross term 2 (x . p)(y . b) misses by ~6e-9 here
        grid = transverse_state.geometry
        f = np.outer(*transverse_state.f_samples)
        W = cylindrical_measure(grid)
        dq2, drq2 = transverse_state.delta_q2, transverse_state.delta_rq2
        q2 = grid.q_perp[:, None] ** 2 + grid.q_z[None, :] ** 2
        el = (dq2 * staggered_apply_h(grid, f) + (drq2 - dq2) * q2 * f
              - 2.0 * dq2 * drq2 * f)
        dense = math.sqrt(np.sum(W * el * el) / np.sum(W * f * f)) / (2.0 * dq2 * drq2)
        assert abs(euler_lagrange_residual(transverse_state) / dense - 1.0) <= 1e-9

    def test_transverse_path_allocates_no_2d_array(self, transverse_state):
        # the minimizer, its EL residual and the closed-form readings stay
        # on the factors: one 400 x 801 float array alone is 2.44 MiB
        import tracemalloc

        def transverse_path():
            state = minimize_transverse_massless()
            euler_lagrange_residual(state)
            closed_form_readings()

        transverse_path()       # first calls import and cache outside the trace
        tracemalloc.start()
        try:
            transverse_path()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_minimizer_factorizes(self, transverse_state):
        grid = transverse_state.geometry
        f = np.outer(*transverse_state.f_samples)
        f /= np.max(f)
        qp = grid.q_perp[:, None]
        q2 = qp**2 + grid.q_z[None, :] ** 2
        mask = f > 1e-3
        coef = np.polyfit(q2[mask], np.log(f[mask])
                          - np.log(np.broadcast_to(qp, f.shape)[mask]), 1)
        model = qp * np.exp(coef[0] * q2 + coef[1])
        assert np.max(np.abs(f - model / np.max(model))) <= 1e-3

    def test_grid_refinement_improves(self):
        coarse = minimize_transverse_massless(CylindricalGrid(step=0.08))
        fine = minimize_transverse_massless(CylindricalGrid(step=0.04))
        assert abs(coarse.gamma - 2.5) / abs(fine.gamma - 2.5) >= 3.0

    def test_rejects_divergent_init(self):
        # the constant state, as the factor pair (ones, ones)
        grid = CylindricalGrid(q_max=4.0, step=0.1)
        bad = (np.ones(len(grid.q_perp)), np.ones(len(grid.q_z)))
        with pytest.raises(DivergentWeightError):
            factor_state(grid, *bad)

    def test_two_grid_richardson(self, transverse_state):
        # the gamma error is c h^2 in the nominal step h, so two grids
        # cancel it; each returned grid is that one rescaled to balance
        coarse = minimize_transverse_massless(CylindricalGrid(step=0.04))
        assert CylindricalGrid().step == 0.02
        assert (4.0 * transverse_state.gamma - coarse.gamma) / 3.0 == pytest.approx(2.5, abs=1e-6)

    def test_kronecker_operator_matches_staggered_form(self):
        grid = CylindricalGrid()
        f = np.random.default_rng(3).standard_normal((len(grid.q_perp), len(grid.q_z)))
        op = _TransverseOperator(grid)
        g = op.sqrt_w[:, None] * f
        # T_perp along q_perp (axis 0) and T_z along q_z (axis 1)
        hg = op.d_perp[:, None] * g + op.d_z * g
        hg[1:] += op.e_perp[:, None] * g[:-1]
        hg[:-1] += op.e_perp[:, None] * g[1:]
        hg[:, 1:] += op.e_z * g[:, :-1]
        hg[:, :-1] += op.e_z * g[:, 1:]
        got = hg / op.sqrt_w[:, None]
        want = staggered_apply_h(grid, f)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
