"""Tests for the effective potential construction."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbosons.eigensolver import AnalyticCase, closed_form_residual
from relbosons.potentials import (INFINITY, PotentialSpec, d_parameter,
                                  dispersion_weight, effective_potential, limit_profile,
                                  origin_behavior, spec_spin0, spec_spin1)

GOLDEN_ALPHA = 0.5 * (1.0 + math.sqrt(5.0))


class TestEffectivePotential:
    def test_spin0_nonrelativistic_is_pure_oscillator(self):
        assert effective_potential(1.0, spec_spin0(0.0)) == pytest.approx(1.0, abs=1e-15)
        q = np.linspace(0.1, 10, 50)
        assert effective_potential(q, spec_spin0(0.0)) == pytest.approx(q**2)

    def test_spin0_unit_d_substitution(self):
        # d = 1, q = 1: 1/2 + 1/8 + 1
        assert effective_potential(1.0, spec_spin0(1.0)) == pytest.approx(1.625, abs=1e-15)

    def test_spin1_nonrelativistic_value(self):
        assert effective_potential(1.0, spec_spin1(0.0)) == pytest.approx(3.0, abs=1e-15)

    def test_limits_are_exact_forms(self):
        q = np.array([0.3, 1.0, 4.0])
        for spec in (spec_spin0(INFINITY), spec_spin1(INFINITY)):
            assert effective_potential(q, spec) == pytest.approx(1.0 / q**2 + q**2)
        assert effective_potential(q, spec_spin1(0.0)) == pytest.approx(2.0 / q**2 + q**2)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            effective_potential(0.0, spec_spin0(1.0))
        with pytest.raises(ValueError):
            effective_potential(np.array([1.0, -0.5]), spec_spin1(1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec(2, 1.0)
        with pytest.raises(ValueError):
            PotentialSpec(0, -1.0)
        with pytest.raises(ValueError):
            PotentialSpec(0, 1.0, angular_index=-2)

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(1e-3, 20.0), d=st.floats(1e-6, 50.0))
    def test_pointwise_ordering_spin0(self, q, d):
        w0 = effective_potential(q, spec_spin0(0.0))
        wd = effective_potential(q, spec_spin0(d))
        winf = effective_potential(q, spec_spin0(INFINITY))
        assert w0 <= wd <= winf

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(1e-3, 20.0), d=st.floats(1e-6, 50.0))
    def test_pointwise_ordering_spin1(self, q, d):
        # the longitudinal family decreases with d: d=0 is the top
        winf = effective_potential(q, spec_spin1(INFINITY))
        wd = effective_potential(q, spec_spin1(d))
        w0 = effective_potential(q, spec_spin1(0.0))
        assert winf <= wd <= w0

    @pytest.mark.parametrize("make", [spec_spin0, spec_spin1])
    @pytest.mark.parametrize("d", [0.0, 0.7, 2.0, INFINITY])
    def test_centrifugal_term_strictly_raises(self, make, d):
        q = np.linspace(0.05, 12, 200)
        for l in (0, 1, 2):
            lower = effective_potential(q, make(d, l))
            upper = effective_potential(q, make(d, l + 1))
            assert np.all(upper > lower)

    @pytest.mark.parametrize("make", [spec_spin0, spec_spin1])
    def test_large_d_approaches_limit(self, make):
        big = make(1e6)
        lim = make(INFINITY)
        for q in (0.1, 1.0, 10.0):
            wb = effective_potential(q, big)
            wl = effective_potential(q, lim)
            assert abs(wb - wl) <= 1e-6 * abs(wl)


class TestLargeFiniteD:
    # the radial FD nodes and the shooting nodes of the default grid
    Q = np.concatenate((np.linspace(0.0, 12.0, 15999)[1:-1], np.geomspace(1e-7, 12.0, 8000)))

    @pytest.mark.parametrize("spin", [0, 1])
    @pytest.mark.parametrize("d", [1e80, 1e150])
    def test_no_warning_and_the_bits_of_the_plain_formula(self, spin, d):
        # (1 + x)^2 overflows from d q = 1.2e77 on, where its term's limit is 0
        with np.errstate(over="ignore"):
            x = (d * self.Q) ** 2
            tail = d**2 / (2.0 * (1.0 + x) ** 2)
            plain = (d**2 / (1.0 + x) + tail if spin == 0
                     else 1.0 / self.Q**2 + 1.0 / (self.Q**2 * (1.0 + x)) + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = dispersion_weight(self.Q, PotentialSpec(spin, d))
        assert np.all(np.isfinite(w))
        assert np.array_equal(w.view(np.int64), plain.view(np.int64))

    @pytest.mark.parametrize("spin,d", [(0, 5e153), (1, 5e153), (0, 1e155), (1, 1e155)])
    def test_overflow_raises_naming_d(self, spin, d):
        # at 5e153, (d q)^2 overflows from q = 2.7 on and the spin-0 weight
        # d^2/(1+x) fell to 0 there; from 1.34e154 on d^2 itself overflows
        message = re.escape(f"d = {d:g} is too large") + ".*use d = inf"
        with pytest.raises(ValueError, match=message):
            effective_potential(self.Q, PotentialSpec(spin, d))

    def test_largest_finite_d_at_the_default_grid(self):
        # d q_max = 1.2e154 at q_max = 12: (d q)^2 is finite and W tends to
        # the massless limit, to rounding
        q = np.linspace(0.05, 12.0, 240)
        assert effective_potential(q, spec_spin0(1e153)) == pytest.approx(
            effective_potential(q, spec_spin0(INFINITY)), rel=1e-15)


class TestTinyQ:
    # W ~ c/q^2 at the origin: with c > 0 its 1/q^2 terms overflow at q = 1e-160
    Q = np.array([1e-160, 2e-160])

    @pytest.mark.parametrize("spec,c", [(spec_spin1(1.0), 2), (spec_spin1(0.0), 2),
                                        (spec_spin0(INFINITY), 1), (spec_spin0(1.0, 1), 2)],
                             ids=["spin1", "spin1_d0", "spin0_inf", "spin0_l1"])
    def test_overflow_raises_naming_q(self, spec, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"q = 1e-160 is too small: the {c}/q^2 terms of W overflow")):
                effective_potential(self.Q, spec)

    def test_spin0_finite_d_has_no_inverse_square_term(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(effective_potential(self.Q, spec_spin0(1.0))) == [1.5, 1.5]

    def test_spin0_weight_overflow_names_d(self):
        # d^2 is finite to 1.34e154, but the weight 1.5 d^2 at d q << 1
        # overflows from 1.09e154; the same d at q = 1 gives W = 1 + 1
        spec = spec_spin0(1.2e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "d = 1.2e+154 is too large: the spin-0 weight")):
                effective_potential(self.Q, spec)
            assert effective_potential(1.0, spec) == 2.0
            assert math.isfinite(effective_potential(1e-160, spec_spin0(1.09e154)))

    @pytest.mark.parametrize("mk", [spec_spin0, spec_spin1], ids=["spin0", "spin1"])
    def test_smallest_accepted_q_is_finite(self, mk):
        # just above the stated floor (1.5e-154 for c = 2) W stays finite
        spec = mk(INFINITY if mk is spec_spin0 else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(effective_potential(1.5e-154, spec))


class TestLimitProfile:
    def test_no_closed_form_at_finite_d(self):
        with pytest.raises(ValueError, match="finite d"):
            limit_profile(np.array([0.5, 1.0]), spec_spin0(1.0))

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("make", [spec_spin0, spec_spin1])
    @pytest.mark.parametrize("d", [0.0, INFINITY])
    def test_ground_level_is_two_alpha_plus_one(self, make, d, l):
        # u = q f has an O(h^2) discrete residual at the level 2 alpha + 1
        # and one at least ten times larger a step of 1e-2 away from it
        spec = make(d, l)
        gamma = origin_behavior(spec).exponent_alpha + 0.5
        assert closed_form_residual(AnalyticCase("", spec, gamma, 0.2)) <= 1e-5
        assert closed_form_residual(AnalyticCase("", spec, gamma + 5e-3, 0.2)) >= 1e-4


class TestOriginBehavior:
    def test_spin0_regular_channel(self):
        ob = origin_behavior(spec_spin0(0.0))
        assert ob.singular_strength == 0.0
        assert ob.exponent_alpha == pytest.approx(1.0)
        assert origin_behavior(spec_spin0(0.35)).exponent_alpha == pytest.approx(1.0)

    def test_massless_limit_golden_exponent(self):
        ob = origin_behavior(spec_spin0(INFINITY))
        assert ob.singular_strength == pytest.approx(1.0)
        assert ob.exponent_alpha == pytest.approx(GOLDEN_ALPHA, abs=1e-14)

    def test_spin1_nonrelativistic(self):
        ob = origin_behavior(spec_spin1(0.0))
        assert ob.singular_strength == pytest.approx(2.0)
        assert ob.exponent_alpha == pytest.approx(2.0)
        # finite d keeps both 1/q^2 terms at the origin
        assert origin_behavior(spec_spin1(3.0)).singular_strength == pytest.approx(2.0)

    def test_centrifugal_contribution(self):
        ob = origin_behavior(spec_spin0(0.0, l=1))
        assert ob.singular_strength == pytest.approx(2.0)
        assert ob.exponent_alpha == pytest.approx(2.0)

    @pytest.mark.parametrize("spec", [
        spec_spin0(0.0), spec_spin0(0.5), spec_spin0(INFINITY),
        spec_spin1(0.0), spec_spin1(0.5), spec_spin1(INFINITY),
        spec_spin0(0.5, l=1), spec_spin1(0.5, j=2),
    ])
    def test_consistent_with_potential_at_small_q(self, spec):
        c = origin_behavior(spec).singular_strength
        q = 1e-4
        assert abs(q * q * effective_potential(q, spec) - c) <= 1e-8


class TestDParameter:
    def test_unit_case(self):
        assert d_parameter(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_fourth_root(self):
        assert d_parameter(16.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_nonrelativistic_branch(self):
        ds = [d_parameter(2.0, 3.0, m) for m in (1.0, 10.0, 100.0, 1e4)]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(dp2=st.floats(1e-6, 1e6), dr2=st.floats(1e-6, 1e6),
           m=st.floats(1e-3, 1e3))
    def test_scaling_identity(self, dp2, dr2, m):
        # quadrupling dp2 doubles the fourth root
        assert d_parameter(16.0 * dp2, dr2, m) == pytest.approx(
            2.0 * d_parameter(dp2, dr2, m), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            d_parameter(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            d_parameter(1.0, 1.0, -1.0)
        # a zero divisor is refused too, not left to raise ZeroDivisionError
        with pytest.raises(ValueError):
            d_parameter(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            d_parameter(1.0, 1.0, 0.0)
