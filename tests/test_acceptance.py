"""Acceptance suite: the registry of anchored checks, plus the criteria
that no other test checks.

Every row of ``relbosons.verify.CHECKS`` is one test here, read from one
run of ``run_verify``; each row must pass, must turn red once its target
or bound moves just past the value it recorded, and the rows on the
table must turn red under a planted fault.  The numbered
criteria check the endpoints by both solver routes, the shells under
grid halving and the CLI's figure data.
"""

import math

import numpy as np
import pytest

from relbosons import eigensolver, kg_fields, numkernel, potentials, variational, verify
from relbosons.cli import run
from relbosons.eigensolver import GOLDEN_GAMMA
from relbosons.potentials import INFINITY, spec_spin0, spec_spin1

GOLD_TOL = 1e-6

# gamma(d) recorded from the shooting solver at n = 8000, cross-checked
# against n = 12000 (two-resolution agreement <= 4e-8) and against the
# finite-difference Richardson route (<= 1e-6)
GOLDEN_GAMMAS = {
    (0, 0.0): 1.500000000,
    (0, 0.25): 1.541925318,
    (0, 0.5): 1.631258507,
    (0, 1.0): 1.801051525,
    (0, 2.0): 1.973835768,
    (0, 4.0): 2.068090568,
    (0, INFINITY): 2.118033989,
    (1, 0.0): 2.500000000,
    (1, 0.25): 2.484709986,
    (1, 0.5): 2.446439330,
    (1, 1.0): 2.362286558,
    (1, 2.0): 2.259333971,
    (1, 4.0): 2.183004966,
    (1, INFINITY): 2.118033989,
}

ROWS = {check.name: check for check in verify.CHECKS}


@pytest.fixture(scope="session")
def verify_results():
    return {result.name: result for result in verify.run_verify()}


@pytest.mark.parametrize("name", list(ROWS))
def test_row(name, verify_results):
    result = verify_results[name]
    print(verify.format_report([result]).splitlines()[0])
    assert result.passed, result.detail


def _past(condition, x):
    """``condition`` moved just past the recorded value ``x``."""
    if isinstance(condition, verify.Target):
        return verify.Target(x + 2.0 * condition.tol, condition.tol)
    edge = {"<": x, ">": x, "<=": np.nextafter(x, -np.inf),
            ">=": np.nextafter(x, np.inf)}[condition.op]
    return verify.Bound(condition.op, edge)


def test_each_condition_moved_past_its_value_fails(verify_results):
    for name, check in ROWS.items():
        values = verify_results[name].values
        assert len(values) == len(check.conditions), name
        for i, x in enumerate(values):
            moved = list(check.conditions)
            moved[i] = _past(moved[i], x)
            assert not verify.passes(moved, values), f"{name}: condition {i}"


# ----------------------------------------------------------------------
# planted faults: at least one per row
# ----------------------------------------------------------------------

def _stiffer_potential(monkeypatch, results):
    # W + 1e-3 q^2 in both solver routes, the closed-form residuals and
    # the direct readings of W
    potential = potentials.effective_potential

    def stiffer(q, spec):
        return potential(q, spec) + 1e-3 * np.asarray(q) ** 2

    monkeypatch.setattr(eigensolver, "effective_potential", stiffer)
    monkeypatch.setattr(potentials, "effective_potential", stiffer)


def _irregular_origin_root(monkeypatch, results):
    # alpha (alpha - 1) = c has the roots alpha and 1 - alpha; take the
    # irregular one
    behavior = potentials.origin_behavior

    def faulty(spec):
        b = behavior(spec)
        return potentials.OriginBehavior(b.singular_strength, 1.0 - b.exponent_alpha)

    monkeypatch.setattr(potentials, "origin_behavior", faulty)


def _planar_radial_measure(monkeypatch, results):
    # the radial rule with the measure p dp in place of p^2 dp: the
    # Gaussian trial reads (1, 1)
    rule = numkernel.radial_rule

    def faulty(p_max):
        p, w = rule(p_max)
        return p, w / p

    monkeypatch.setattr(numkernel, "radial_rule", faulty)


def _fencepost_dirichlet_step(monkeypatch, results):
    # nodes linspace(0, hi, n), spaced hi / (n - 1), while the stencil
    # of every Richardson level divides by the step hi / n
    grid = numkernel._dirichlet_grid

    def faulty(hi, n):
        nodes = grid(hi, n)[0]
        h = hi / n
        return nodes, 2.0 / h**2, -1.0 / h**2

    monkeypatch.setattr(numkernel, "_dirichlet_grid", faulty)


def _doubled_axis_weight(monkeypatch, results):
    # 2 / q_perp^2 in place of 1 / q_perp^2 in the minimized operator
    init = variational._TransverseOperator.__init__

    def faulty(self, grid):
        init(self, grid)
        self.d_perp = self.d_perp + 1.0 / grid.q_perp**2

    monkeypatch.setattr(variational._TransverseOperator, "__init__", faulty)


def _squared_transverse_prefactor(monkeypatch, results):
    # one more factor q_perp in front of the separable readings' Gaussian
    # (the transverse prefactor becomes q_perp^2), which moves the orbit
    # reading off 5/2; the spherical reading only reads the axis check
    evaluate = variational.factor_state
    monkeypatch.setattr(variational, "factor_state",
                        lambda grid, a, b: evaluate(grid, grid.q_perp * a, b))


def _deadband_above_min_rho(monkeypatch, results):
    min_rho = results["charge density goes negative for the demonstration packet"].values[0]
    monkeypatch.setattr(kg_fields, "RHO_DEADBAND", 2.0 * abs(min_rho))


def _d_without_mass(monkeypatch, results):
    # (dp^2/dr^2)^(1/4) without the 1/m: d no longer falls with the mass
    monkeypatch.setattr(potentials, "d_parameter",
                        lambda delta_p2, delta_r2, mass: (delta_p2 / delta_r2) ** 0.25)


def _absolute_charge(monkeypatch, results):
    # |rho|: the density can no longer go negative
    density = kg_fields.charge_density
    monkeypatch.setattr(kg_fields, "charge_density", lambda sample: np.abs(density(sample)))


def _real_square_time_term(monkeypatch, results):
    # Re((dphi/dt)^2) in place of |dphi/dt|^2 in the energy density
    def faulty(sample, mass):
        return (np.real(sample.dt_phi**2) + np.abs(sample.dr_phi) ** 2
                + mass**2 * np.abs(sample.phi) ** 2)

    monkeypatch.setattr(kg_fields, "energy_density", faulty)


def _heavier_massless_weight(monkeypatch, results):
    # the d = inf dispersion weight 1/q^2 scaled by 1.01
    weight = potentials.dispersion_weight

    def faulty(q, spec):
        w = weight(q, spec)
        return 1.01 * w if math.isinf(spec.d) else w

    monkeypatch.setattr(potentials, "dispersion_weight", faulty)


def _heavier_radial_rule(monkeypatch, results):
    # every weight of the radial rule scaled by 1 + 1e-3; the ratio
    # <p^2> is blind to it, the position-space N^2 is not
    rule = numkernel.radial_rule

    def faulty(p_max):
        p, w = rule(p_max)
        return p, w * (1.0 + 1e-3)

    monkeypatch.setattr(numkernel, "radial_rule", faulty)


PLANTED_FAULTS = {
    "tridiag ground of -u'' + (1/q^2 + q^2) u = 2 + sqrt(5)": _fencepost_dirichlet_step,
    "longitudinal W(1; d=0) = 3": _stiffer_potential,
    "massless-limit origin exponent alpha = (1 + sqrt 5)/2": _irregular_origin_root,
    "spin-1 d=0 origin exponent alpha = 2": _irregular_origin_root,
    "scalar gamma(d=0) = 3/2 (shooting)": _stiffer_potential,
    "scalar gamma(d=inf) = 1 + sqrt(5)/2 (shooting)": _stiffer_potential,
    "longitudinal gamma(d=0) = 5/2 (shooting)": _stiffer_potential,
    "longitudinal gamma(d=inf) = 1 + sqrt(5)/2 (fd)": _stiffer_potential,
    **{f"closed-form eigenfunction residual: {label}": _stiffer_potential
       for label in ("spin0 d=0", "spin0 d=inf", "spin1 d=0")},
    "transverse massless minimization lands on gamma = 5/2": _doubled_axis_weight,
    "closed-form minimizer readings recorded": _squared_transverse_prefactor,
    "negative-density region forms at least one spherical shell": _deadband_above_min_rho,
    "Gaussian trial: (Delta q^2, Delta r_q^2) = (3/2, 3/2)": _planar_radial_measure,
    "d -> 0 as mass -> inf at fixed dispersions": _d_without_mass,
    "charge density goes negative for the demonstration packet": _absolute_charge,
    "energy density nonnegative at every sample": _real_square_time_term,
    "massless-limit profile gives gamma = 1 + sqrt(5)/2": _heavier_massless_weight,
    "position-space product tends to 3/2 in the nonrelativistic regime": _heavier_radial_rule,
}


def test_every_row_has_a_planted_fault():
    assert set(PLANTED_FAULTS) == set(ROWS)


@pytest.mark.parametrize("name", list(PLANTED_FAULTS))
def test_planted_fault_turns_row_red(name, monkeypatch, verify_results):
    PLANTED_FAULTS[name](monkeypatch, verify_results)
    result = verify.evaluate(ROWS[name])
    line = verify.format_report([result]).splitlines()[0]
    print(line)
    assert line.startswith("[FAIL]")


def test_solver_rows_call_the_solver_when_they_run(monkeypatch):
    # the row looks its route up in eigensolver as it runs, so a patched
    # solver (or a tracer's wrapper) is the one it calls
    fd = eigensolver.solve_ground_fd

    def shifted_fd(spec, n, ladder=None):
        res = fd(spec, n, ladder)
        res.gamma += 1e-3
        return res

    monkeypatch.setattr(eigensolver, "solve_ground_fd", shifted_fd)
    assert not verify.evaluate(ROWS["longitudinal gamma(d=inf) = 1 + sqrt(5)/2 (fd)"]).passed


# ----------------------------------------------------------------------
# the shared demonstration scan
# ----------------------------------------------------------------------

SCAN_ROWS = ["charge density goes negative for the demonstration packet",
             "negative-density region forms at least one spherical shell",
             "energy density nonnegative at every sample"]


@pytest.fixture
def scan_calls(monkeypatch):
    scan, calls = kg_fields.scan_density, []

    def counting(params, radii):
        calls.append(params)
        return scan(params, radii)

    monkeypatch.setattr(kg_fields, "scan_density", counting)
    return calls


def test_one_scan_per_verify_run(scan_calls):
    for run in (1, 2):
        verify.run_verify()
        assert len(scan_calls) == run


@pytest.mark.parametrize("name", SCAN_ROWS)
def test_single_row_builds_its_own_scan(name, scan_calls):
    assert verify.evaluate(ROWS[name]).passed
    assert len(scan_calls) == 1


# ----------------------------------------------------------------------
# criteria beyond the registry
# ----------------------------------------------------------------------

def _assert_endpoint_by_both_routes(sweep_curves, spin, d, exact):
    point = next(p for p in sweep_curves[spin] if p.d == d)
    assert abs(point.gamma - exact) <= GOLD_TOL, point
    assert abs(point.gamma_fd - exact) <= GOLD_TOL, point


def test_criterion_1_nonrelativistic_scalar_limit(sweep_curves):
    _assert_endpoint_by_both_routes(sweep_curves, 0, 0.0, 1.5)


def test_criterion_2_massless_scalar_limit(sweep_curves):
    _assert_endpoint_by_both_routes(sweep_curves, 0, INFINITY, GOLDEN_GAMMA)


def test_criterion_3_longitudinal_endpoints(sweep_curves):
    _assert_endpoint_by_both_routes(sweep_curves, 1, 0.0, 2.5)
    _assert_endpoint_by_both_routes(sweep_curves, 1, INFINITY, GOLDEN_GAMMA)


def test_criterion_5_negative_density_shells(demo_scan):
    # the shells survive halving the radius step, and barely move
    fine = kg_fields.scan_density(kg_fields.demo_packet(),
                                  kg_fields.default_radii(6.0, 0.005))
    assert float(np.min(fine.eps)) >= 0.0
    assert len(fine.negative_shells) == len(demo_scan.negative_shells)
    for a, b in zip(demo_scan.negative_shells, fine.negative_shells):
        assert max(abs(a.r_min - b.r_min), abs(a.r_max - b.r_max)) < 0.02


def test_criterion_10_figure_data_emission(tmp_path, sweep_curves):
    pot_csv = tmp_path / "potential.csv"
    gam_csv = tmp_path / "gamma.csv"
    code_pot = run(["potential", "--spin", "0", "--q", "0.1:6:0.1",
                    "--out", str(pot_csv)])
    code_gam = run(["gamma", "--spin", "0", "--d", "0,inf", "--grid-n", "6000",
                    "--out", str(gam_csv)])
    lines = gam_csv.read_text().splitlines()
    g0 = float(lines[1].split(",")[1])
    ginf = float(lines[2].split(",")[1])
    assert code_pot == 0 and code_gam == 0
    assert pot_csv.read_text().splitlines()[0] == "d,q,W"
    assert abs(g0 - 1.5) <= 1e-6 and abs(ginf - GOLDEN_GAMMA) <= 1e-6
    # golden curve: frozen values, plus two-resolution agreement at the
    # intermediate d where no closed form exists
    for spin, curve in sweep_curves.items():
        for p in curve:
            assert abs(p.gamma - GOLDEN_GAMMAS[(spin, p.d)]) <= 1e-6, (spin, p.d)
    for spin, mk in ((0, spec_spin0), (1, spec_spin1)):
        for d in (0.5, 1.0, 2.0):
            g2 = eigensolver.solve_ground_shooting(mk(d), 12000).gamma
            assert abs(GOLDEN_GAMMAS[(spin, d)] - g2) <= 1e-6, (spin, d)
