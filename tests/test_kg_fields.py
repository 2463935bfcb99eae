"""Tests for the wavepacket densities and dispersions."""

import math
import warnings

import numpy as np
import pytest
from scipy.fft import dct, dst

from relbosons import kg_fields, numkernel, variational
from relbosons.kg_fields import (FieldSample, GaussianProfile, CosineProfile,
                                 TailWarning, WavepacketParams,
                                 charge_density, charge_momentum_space, default_radii,
                                 energy_density, energy_momentum_space,
                                 energy_position_space, field_sample,
                                 find_negative_shells, packet_fields,
                                 packet_momentum_profile, demo_packet, planar_map,
                                 position_dispersion_direct, scan_density, shells_json,
                                 state_fields_from_momentum)
from relbosons.numkernel import QuadratureError
from relbosons.potentials import spec_spin0


class TestFieldSample:
    def test_zero_profile_gives_zero_fields(self):
        params = WavepacketParams(1.0, 0.5, 0.0, lambda p: 0.0 * np.asarray(p))
        s = field_sample(1.3, params)
        assert s.phi == 0.0 and s.dt_phi == 0.0 and s.dr_phi == 0.0

    def test_origin_symmetry_real_profile(self):
        # at t = 0 with a real profile the kernel is real, so phi is real
        # and the time derivative purely imaginary
        params = demo_packet(time_t=0.0)
        s = field_sample(0.0, params)
        assert abs(s.phi.imag) <= 1e-12 * abs(s.phi.real)
        assert abs(s.dt_phi.real) <= 1e-12 * abs(s.dt_phi.imag)
        assert s.dr_phi == 0.0

    def test_all_radii_real_at_t0(self):
        params = demo_packet(time_t=0.0)
        for r in (0.5, 1.0, 3.7):
            s = field_sample(r, params)
            scale = abs(s.phi) + abs(s.dt_phi)
            assert abs(s.phi.imag) <= 1e-12 * scale
            assert abs(s.dt_phi.real) <= 1e-12 * scale

    def test_matches_brute_force_simpson(self):
        # fixed-step Simpson oracle on [0, 40] with 10^6 + 1 points
        params = demo_packet(time_t=0.05)
        r = 1.0
        p = np.linspace(0.0, 40.0, 1_000_001)
        E = np.sqrt(1.0 + p * p)
        kern = p * np.sin(p * r) * CosineProfile(1.0)(p) * np.exp(-(0.5 + 0.05j) * E)
        h = p[1] - p[0]
        oracle = h / 3.0 * (kern[0] + kern[-1] + 4.0 * kern[1:-1:2].sum()
                            + 2.0 * kern[2:-2:2].sum()) / r
        s = field_sample(r, params)
        assert s.phi == pytest.approx(oracle, abs=1e-8)

    def test_scan_consistent_with_pointwise(self):
        params = demo_packet()
        radii = default_radii(2.0, 0.02)
        self._check_scan_at(params, radii, (0.5, 0.98, 2.0))

    def test_oversampled_scan_consistent_with_pointwise(self):
        # pi / dr < p_max: the transform runs on a finer internal step
        params = demo_packet()
        radii = default_radii(2.0, 0.2)
        self._check_scan_at(params, radii, (0.2, 1.0, 2.0))

    def test_long_scan_consistent_with_pointwise(self):
        # the grid of the density --rmax 22.5 scan, checked far out
        self._check_scan_at(demo_packet(), default_radii(22.5, 0.01), (8.0, 12.0))

    @staticmethod
    def _check_scan_at(params, radii, check):
        phi, dtp, drp, failed = packet_fields(params, radii)
        assert len(failed) == 0
        for r in check:
            k = int(np.argmin(np.abs(radii - r)))
            s = field_sample(float(radii[k]), params)
            assert phi[k] == pytest.approx(s.phi, abs=1e-9)
            assert dtp[k] == pytest.approx(s.dt_phi, abs=1e-9)
            assert drp[k] == pytest.approx(s.dr_phi, abs=1e-9)

    def test_rejects_radii_off_the_lattice(self):
        with pytest.raises(ValueError, match="lattice"):
            packet_fields(demo_packet(), np.array([0.5, 0.98, 2.0]))
        with pytest.raises(ValueError, match="lattice"):
            packet_fields(demo_packet(), np.array([0.15, 0.25, 0.35]))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            field_sample(-0.1, demo_packet())

    def test_quadrature_failure_propagates(self):
        # the jumps of sign(sin(40 p)) exhaust QUADPACK's subdivisions
        params = WavepacketParams(1.0, 0.5, 0.05,
                                  lambda p: np.sign(np.sin(40.0 * np.asarray(p))))
        with pytest.raises(QuadratureError, match="did not settle"):
            field_sample(3.0, params)

    def test_reality_at_t0_across_scan(self):
        params = demo_packet(time_t=0.0)
        phi, dt_phi, _, _ = packet_fields(params, default_radii(4.0, 0.05))
        scale = np.max(np.abs(phi)) + np.max(np.abs(dt_phi))
        assert np.max(np.abs(phi.imag)) <= 1e-12 * scale
        assert np.max(np.abs(dt_phi.real)) <= 1e-12 * scale


class TestDensities:
    def test_plane_wave_charge_is_energy(self):
        E = 1.7
        s = FieldSample(phi=complex(np.exp(-1j * E * 0.3)),
                        dt_phi=complex(-1j * E * np.exp(-1j * E * 0.3)),
                        dr_phi=0.0j)
        assert charge_density(s) == pytest.approx(E, rel=1e-14)

    def test_zero_field(self):
        s = FieldSample(0.0j, 0.0j, 0.0j)
        assert charge_density(s) == 0.0
        assert energy_density(s, 1.0) == 0.0

    def test_pointwise_energy_density_nonnegative(self):
        params = demo_packet()
        for r in (0.1, 0.98, 4.0):
            s = field_sample(r, params)
            assert energy_density(s, params.mass) >= 0.0


class TestScan:
    def test_detects_negative_shell(self, demo_scan):
        assert len(demo_scan.negative_shells) >= 1
        shell = demo_scan.negative_shells[0]
        assert 0.0 < shell.r_min <= shell.r_max < 6.0
        assert shell.rho_min < 0.0

    def test_shells_cover_exactly_the_negative_set(self, demo_scan):
        covered = np.zeros(len(demo_scan.radii), dtype=bool)
        for s in demo_scan.negative_shells:
            covered |= (demo_scan.radii >= s.r_min) & (demo_scan.radii <= s.r_max)
        neg = demo_scan.rho < -1e-12
        assert np.array_equal(neg, covered & neg)
        assert np.all(demo_scan.rho[covered] <= 0.0)

    def test_nonrelativistic_gaussian_has_no_shell(self):
        params = WavepacketParams(1.0, 0.5, 0.05, GaussianProfile(sigma=0.1))
        fieldmap = scan_density(params, default_radii())
        assert fieldmap.negative_shells == []
        assert np.all(fieldmap.rho > 0.0)

    def test_shell_finder_on_synthetic_data(self):
        r = np.linspace(0.1, 1.0, 10)
        rho = np.array([1, 1, -1, -2, -1, 1, -3, 1, 1, 1], dtype=float)
        shells = find_negative_shells(r, rho)
        assert len(shells) == 2
        assert shells[0].r_min == pytest.approx(r[2])
        assert shells[0].r_max == pytest.approx(r[4])
        assert shells[0].rho_min == -2.0
        assert shells[1].rho_min == -3.0
        # dead band suppresses roundoff-scale dips
        assert find_negative_shells(r, np.full(10, -1e-13)) == []

    def test_planar_map_rotational_symmetry(self, demo_scan):
        x, z, rho = planar_map(demo_scan, n=41)
        k = np.searchsorted(x, 0.98)
        mid = len(z) // 2
        expect = np.interp(abs(x[k]), demo_scan.radii, demo_scan.rho)
        assert rho[k, mid] == pytest.approx(expect, rel=1e-12)
        assert rho[k, mid] == pytest.approx(rho[mid, k], rel=1e-12)

    def test_shells_json_round_trip(self, demo_scan):
        import json

        data = json.loads(shells_json(demo_scan))
        assert len(data) == len(demo_scan.negative_shells)
        assert set(data[0]) == {"r_min", "r_max", "rho_min"}

    def test_unsettled_radii_recorded_scan_continues(self, monkeypatch):
        monkeypatch.setattr(kg_fields, "_FIELD_ABS_TOL", 1e-18)
        monkeypatch.setattr(kg_fields, "_FIELD_REL_TOL", 1e-18)
        fieldmap = scan_density(demo_packet(), default_radii(2.0, 0.2))
        assert len(fieldmap.failed_radii) > 0
        assert len(fieldmap.rho) == 10  # results still delivered

    def test_rejects_unsorted_radii(self):
        with pytest.raises(ValueError):
            scan_density(demo_packet(), np.array([1.0, 0.5]))


def packet_weight(params):
    """The sine weight of packet_fields: p f e^{-(a+it)E}."""
    a, t = params.damping_a, params.time_t

    def b0(p):
        return p * params.profile(p) * np.exp(-(a + 1j * t) * params.energy(p))

    return b0


def direct_fields(weight, energy, radii, p_max, m):
    """The trapezoid rule taken afresh on all 2M + 1 nodes p_j = j pi / (M h):
    a DST-I of w and of -i E w and a DCT-I of p w, zero beyond p_max."""
    dr, k = kg_fields._radius_lattice(radii)
    s = max(1, math.ceil(p_max * dr / math.pi))
    h = dr / s
    n = k * s
    dp = math.pi / (m * h)
    p = dp * np.arange(m + 1)
    w = np.where(p <= p_max, weight(p), 0.0)
    s0, s1 = (0.5 * dp * dst(v[1:m], type=1)[n - 1] for v in (w, -1j * energy(p) * w))
    c = 0.5 * dp * dct(p * w, type=1)[n]
    return s0 / radii, s1 / radii, c / radii - s0 / radii**2


class CountingProfile:
    """A profile that counts its calls."""

    def __init__(self, profile):
        self.profile, self.calls = profile, 0

    def __call__(self, p):
        self.calls += 1
        return self.profile(p)


class TestTransforms:
    @staticmethod
    def _spy(monkeypatch, name):
        """Record (type, size) of every call of kg_fields.<name>."""
        calls, real = [], getattr(kg_fields, name)

        def spy(x, type, **kwargs):
            calls.append((type, len(x)))
            return real(x, type=type, **kwargs)

        monkeypatch.setattr(kg_fields, name, spy)
        return calls

    def _check_against_direct_rule(self, monkeypatch, params, radii):
        dst_calls = self._spy(monkeypatch, "dst")
        weight, p_max = packet_weight(params), kg_fields._packet_p_max(params)
        *fields, failed = kg_fields._radial_fields(weight, params.energy, radii, p_max)
        # the last halving added M midpoints to a level of M intervals
        assert dst_calls[-1][0] == 2
        m_final = 2 * dst_calls[-1][1]
        ref = direct_fields(weight, params.energy, radii, p_max, m_final)
        # r times a field is a transform: gated on the largest sine transform
        scale = max(float(np.max(np.abs(v * radii))) for v in ref[:2])
        for got, want in zip(fields, ref):
            assert np.max(np.abs(got - want) * radii) <= 1e-14 * scale
        return dst_calls, failed

    @pytest.mark.parametrize("params,radii", [
        (demo_packet(), default_radii(22.5, 0.01)),
        (WavepacketParams(1.0, 0.5, 0.05, GaussianProfile(1.0)), default_radii()),
    ], ids=["demo", "gaussian"])
    def test_refinement_matches_direct_rule(self, monkeypatch, params, radii):
        self._check_against_direct_rule(monkeypatch, params, radii)

    def test_refinement_matches_direct_rule_after_many_halvings(self, monkeypatch):
        # tolerances below roundoff: every halving up to _MAX_DOUBLINGS runs
        monkeypatch.setattr(kg_fields, "_FIELD_ABS_TOL", 1e-18)
        monkeypatch.setattr(kg_fields, "_FIELD_REL_TOL", 1e-18)
        dst_calls, failed = self._check_against_direct_rule(
            monkeypatch, demo_packet(), default_radii(2.0, 0.2))
        halvings = [c for c in dst_calls if c[0] == 2]
        assert len(halvings) == 2 * kg_fields._MAX_DOUBLINGS >= 4
        assert len(failed) > 0

    @pytest.mark.parametrize("fields", [
        lambda: packet_fields(demo_packet(), default_radii()),
        lambda: state_fields_from_momentum(
            packet_momentum_profile(demo_packet(time_t=0.0)), 1.0,
            default_radii(6.0, 0.05)),
    ], ids=["packet", "state"])
    def test_one_cosine_transform_per_level(self, monkeypatch, fields):
        dst_calls = self._spy(monkeypatch, "dst")
        dct_calls = self._spy(monkeypatch, "dct")
        fields()
        levels = len(dst_calls) // 2  # two sine weights per level
        assert levels >= 2
        assert [c[0] for c in dct_calls] == [1] + [2] * (levels - 1)

    @pytest.mark.parametrize("route", ["packet", "state"])
    def test_profile_sampled_once_per_level(self, monkeypatch, route):
        dst_calls = self._spy(monkeypatch, "dst")
        if route == "packet":
            profile = CountingProfile(CosineProfile(1.0))
            params = WavepacketParams(1.0, 0.5, 0.05, profile)
            profile.calls = 0  # the construction's probe
            packet_fields(params, default_radii())
            extra = 1  # _packet_p_max samples the profile on its own grid
        else:
            profile = CountingProfile(packet_momentum_profile(demo_packet(time_t=0.0)))
            state_fields_from_momentum(profile, 1.0, default_radii(6.0, 0.05))
            extra = 0
        levels = len(dst_calls) // 2
        assert levels >= 2
        assert profile.calls == levels + extra


@pytest.fixture(scope="module")
def demo_charges():
    """Position-space charges at two times plus the momentum oracle."""
    out = {}
    for t in (0.0, 0.05):
        out[t] = charge_from_scan(demo_packet(time_t=t))
    out["momentum"] = charge_momentum_space(demo_packet())
    return out


class TestCharges:
    def test_charge_conserved_in_time(self, demo_charges):
        assert demo_charges[0.0] == pytest.approx(demo_charges[0.05], rel=1e-4)

    def test_positive_despite_negative_shells(self, demo_charges):
        assert demo_charges["momentum"] > 0.0
        assert demo_charges[0.05] > 0.0
        assert demo_charges[0.05] == pytest.approx(demo_charges["momentum"],
                                                    rel=1e-5)

    def test_zero_profile(self):
        params = WavepacketParams(1.0, 0.5, 0.0, lambda p: 0.0 * np.asarray(p))
        assert charge_momentum_space(params) == 0.0

    def test_tail_warning_on_short_grid(self):
        params = demo_packet()
        from relbosons.kg_fields import total_charge

        with pytest.warns(TailWarning):
            total_charge(params, radii=default_radii(2.0, 0.01))


def charge_from_scan(params):
    from relbosons.kg_fields import total_charge

    with warnings.catch_warnings():
        warnings.simplefilter("error", TailWarning)
        return total_charge(params)


class TestEnergyNorm:
    def test_position_energy_equals_momentum_norm(self):
        # the packet's t = 0 momentum amplitude reproduces the energy
        params = demo_packet(time_t=0.0)
        ftil = packet_momentum_profile(params)
        e_pos = energy_position_space(ftil, params.mass)
        p, w = numkernel.radial_rule(60.0)
        n2_mom = float(np.sum(w * ftil(p) ** 2))
        assert e_pos == pytest.approx(n2_mom, rel=1e-6)
        assert n2_mom == pytest.approx(energy_momentum_space(params), rel=1e-8)


class TestStateFields:
    def test_matches_pointwise_quadrature(self):
        # phi = kap/r int p f/E sin(pr), pi = kap/r int p f sin(pr),
        # dphi/dr = kap (int p^2 f/E cos(pr) / r - int p f/E sin(pr) / r^2)
        params = demo_packet(time_t=0.0)
        ftil = packet_momentum_profile(params)
        radii = default_radii(6.0, 0.01)
        phi, pi, dphi = state_fields_from_momentum(ftil, params.mass, radii)
        kap = 1.0 / math.sqrt(math.pi)
        for r in (0.5, 0.98, 4.0):
            k = int(np.argmin(np.abs(radii - r)))
            r = float(radii[k])
            s_phi = kg_fields._quad(lambda p: p * ftil(p) / params.energy(p), "sin", r).real
            s_pi = kg_fields._quad(lambda p: p * ftil(p), "sin", r).real
            c_phi = kg_fields._quad(lambda p: p * p * ftil(p) / params.energy(p),
                                    "cos", r).real
            assert phi[k] == pytest.approx(kap * s_phi / r, abs=1e-9)
            assert pi[k] == pytest.approx(-1j * kap * s_pi / r, abs=1e-9)
            assert dphi[k] == pytest.approx(kap * (c_phi / r - s_phi / r**2), abs=1e-9)

    def test_unsettled_transform_raises(self):
        # f~ = 1 cut off at p_max: the jump keeps the trapezoid rule from
        # settling within the tolerances
        with pytest.raises(QuadratureError, match="did not settle"):
            state_fields_from_momentum(lambda p: np.ones_like(p), 1.0,
                                       default_radii(5.0, 0.05), p_max=5.0)


class TestPositionDispersion:
    @pytest.mark.parametrize("mass,sigma", [(1.0, 1.0), (3.0, 0.8), (0.6, 1.3)])
    def test_agrees_with_momentum_space_formula(self, mass, sigma):
        f = lambda p: np.exp(-np.asarray(p) ** 2 / (2.0 * sigma**2))
        df = lambda p: -np.asarray(p) / sigma**2 * f(p)
        direct = position_dispersion_direct(f, mass, r_max=30.0,
                                            p_max=14.0 * sigma)
        mom = variational.radial_state(f, df, spec_spin0(1.0 / mass),
                                       p_max=14.0 * sigma).delta_rq2
        assert direct == pytest.approx(mom, rel=1e-6)

    def test_five_random_profiles_match_momentum_route(self):
        # five profiles drawn from seed 11, and three more from seed 5
        rng = np.random.default_rng(11)
        params = []
        for _ in range(5):
            a, b = rng.uniform(0.2, 1.5), rng.uniform(0.5, 1.5)
            params.append((a, b, rng.uniform(0.5, 3.0)))
        rng = np.random.default_rng(5)
        for _ in range(3):
            b, a = rng.uniform(0.6, 1.4), rng.uniform(0.0, 1.0)
            params.append((a, b, rng.uniform(0.7, 2.0)))
        for a, b, mass in params:
            f = lambda p: (1.0 + a * np.asarray(p) ** 2) * np.exp(
                -np.asarray(p) ** 2 / (2.0 * b**2))
            df = lambda p: (2.0 * a - (1.0 + a * np.asarray(p) ** 2) / b**2) * np.asarray(
                p) * np.exp(-np.asarray(p) ** 2 / (2.0 * b**2))
            direct = position_dispersion_direct(f, mass, r_max=40.0, p_max=16.0 * b)
            mom = variational.radial_state(f, df, spec_spin0(1.0 / mass),
                                           p_max=16.0 * b).delta_rq2
            assert direct == pytest.approx(mom, rel=1e-5)

    def test_narrow_peak_dispersion_grows(self):
        widths = (0.5, 0.25, 0.125)
        out = []
        for w in widths:
            f = lambda p: np.exp(-((np.asarray(p) - 2.0) ** 2) / (2.0 * w * w))
            out.append(position_dispersion_direct(f, mass=1.0, r_max=80.0, p_max=8.0))
        assert out[0] < out[1] < out[2]


class TestProfilesAndParams:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            WavepacketParams(0.0, 0.5, 0.0, CosineProfile(1.0))
        with pytest.raises(ValueError):
            WavepacketParams(1.0, 0.0, 0.0, CosineProfile(1.0))
        with pytest.raises(ValueError):
            WavepacketParams(1.0, 1.0, 0.0, lambda p: 1j * np.asarray(p))
        # non-finite values would fill every density with nan
        for mass, a, t in ((math.nan, 0.5, 0.0), (math.inf, 0.5, 0.0),
                           (1.0, math.nan, 0.0), (1.0, 0.5, math.nan), (1.0, 0.5, -math.inf)):
            with pytest.raises(ValueError):
                WavepacketParams(mass, a, t, GaussianProfile(1.0))
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                GaussianProfile(sigma)

    def test_cosine_profile_scales_with_the_mass(self):
        # cos(p/m) / sqrt(m^2 + p^2) at m = 2: 1/m at p = 0, the first zero at m pi/2
        f = CosineProfile(2.0)
        assert f(0.0) == 0.5
        assert abs(f(math.pi)) <= 1e-16
        assert f(1.0) == pytest.approx(math.cos(0.5) / math.sqrt(5.0), rel=1e-15)


class TestDefaultRadii:
    def test_the_density_grids_fit_under_the_cap(self):
        # the benchmark's and CI's 2250 radii; 96900 radii span 97e3 lattice points
        assert len(default_radii(22.5, 0.01)) == 2250
        assert len(default_radii(969.0, 0.01)) == 96900

    @pytest.mark.parametrize("r_max,dr", [(1e6, 0.01), (971.0, 0.01), (0.1, 1e-6),
                                          (1e300, 1e-300)])
    def test_lattice_above_the_cap_is_refused(self, r_max, dr):
        # 1e8 radii; just past the cap; 1e5 radii but 3e7 lattice points to
        # r_max + 30; a count that overflows to inf
        with pytest.raises(ValueError, match="--rmax.*--dr.*MAX_LATTICE_POINTS"):
            default_radii(r_max, dr)


class TestPacketMomentumRange:
    @pytest.mark.parametrize("params", [
        WavepacketParams(1.0, 0.5, 0.05, GaussianProfile(0.05)),
        WavepacketParams(1.0, 0.02, 0.05, GaussianProfile(1.0)),
    ], ids=["narrow", "weakly_damped"])
    def test_gaussian_scan_matches_pointwise(self, params):
        # the envelope peaks near p = sigma, between two even scan points
        radii = default_radii()
        rho = scan_density(params, radii).rho
        for r in (0.5, 2.0):
            want = charge_density(field_sample(r, params))
            assert abs(want) > 1e-9
            assert rho[int(round(r / 0.01)) - 1] == pytest.approx(want, rel=1e-8)

    def test_weight_below_the_tolerance_is_refused(self):
        # p exp(-p^2 / 2 sigma^2) peaks at 6e-5, e^(-100 E) below 1e-43:
        # every sample of the weight is below _FIELD_ABS_TOL
        for params in (WavepacketParams(1.0, 0.5, 0.05, GaussianProfile(1e-4)),
                       WavepacketParams(1.0, 100.0, 0.05, GaussianProfile(1.0))):
            with pytest.raises(ValueError, match="--sigma or lower --a"):
                packet_fields(params, default_radii())


class TestTransformCap:
    class Started(Exception):
        """Raised by the first DST: the transforms got past their size check."""

    def _stop_at_first_dst(self, monkeypatch):
        def started(*args, **kwargs):
            raise self.Started

        monkeypatch.setattr(kg_fields, "dst", started)

    def test_a_just_above_the_cap_is_refused(self, monkeypatch):
        # a = 0.002: p_max = 1.37e4, a first level of 2^18 nodes (8 MiB of
        # weights), 2^24 after the six halvings; without the check the
        # first DST would stop the run
        self._stop_at_first_dst(monkeypatch)
        with pytest.raises(ValueError, match="MAX_TRANSFORM_NODES.*--a"):
            packet_fields(WavepacketParams(1.0, 0.002, 0.05, CosineProfile(1.0)),
                          default_radii())
        # the largest admitted first levels, 2^17 nodes, reach 2^23 = the cap
        for params, radii in ((WavepacketParams(1.0, 0.003, 0.05, CosineProfile(1.0)),
                               default_radii()),
                              (demo_packet(), default_radii(970.0, 0.01))):
            with pytest.raises(self.Started):
                packet_fields(params, radii)
