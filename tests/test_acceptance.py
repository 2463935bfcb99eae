"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one `[PASS]`/`[FAIL]` line (visible with
``pytest tests/test_acceptance.py -s``) and asserts the same condition.
"""

import math

import numpy as np

from relbosons import eigensolver, kg_fields, variational
from relbosons.cli import run
from relbosons.eigensolver import GOLDEN_GAMMA, RadialGrid, expectation_q2
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


def _report(num, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] acceptance {num}: {detail}")
    assert passed, f"acceptance criterion {num} failed: {detail}"


def test_criterion_1_nonrelativistic_scalar_limit():
    sh = eigensolver.solve_ground_shooting(spec_spin0(0.0))
    fd = eigensolver.solve_ground_fd(spec_spin0(0.0))
    ok = abs(sh.gamma - 1.5) <= GOLD_TOL and abs(fd.gamma - 1.5) <= GOLD_TOL
    _report(1, ok, f"gamma(spin0, d=0): shooting {sh.gamma:.9f}, "
                   f"fd Richardson {fd.gamma:.9f} (target 1.5 +- 1e-6)")


def test_criterion_2_massless_scalar_limit():
    sh = eigensolver.solve_ground_shooting(spec_spin0(INFINITY))
    fd = eigensolver.solve_ground_fd(spec_spin0(INFINITY))
    ok = abs(sh.gamma - 2.1180340) <= GOLD_TOL and abs(fd.gamma - 2.1180340) <= GOLD_TOL
    _report(2, ok, f"gamma(spin0, d=inf): shooting {sh.gamma:.9f}, "
                   f"fd Richardson {fd.gamma:.9f} (target 2.1180340 +- 1e-6)")


def test_criterion_3_longitudinal_endpoints():
    g0 = eigensolver.solve_ground_shooting(spec_spin1(0.0)).gamma
    ginf = eigensolver.solve_ground_shooting(spec_spin1(INFINITY)).gamma
    ok = abs(g0 - 2.5) <= GOLD_TOL and abs(ginf - 2.1180340) <= GOLD_TOL
    _report(3, ok, f"gamma(spin1): d=0 {g0:.9f} (target 2.5), "
                   f"d=inf {ginf:.9f} (target 2.1180340), each +- 1e-6")


def test_criterion_4_transverse_massless_minimization(transverse_state):
    grid = variational.CylindricalGrid()
    rng = np.random.default_rng(7)
    qp, qz = grid.q_perp[:, None], grid.q_z[None, :]
    random_init = qp * (0.5 + rng.random((len(grid.q_perp), len(grid.q_z)))) \
        * np.exp(-0.3 * (qp**2 + qz**2))
    state2 = variational.minimize_transverse_massless(grid, random_init)
    oracle = variational.separation_oracle()
    ok = (abs(transverse_state.gamma - 2.5) <= 1e-3
          and abs(state2.gamma - 2.5) <= 1e-3
          and abs(oracle - 2.5) <= 1e-6)
    _report(4, ok, f"transverse massless gamma: {transverse_state.gamma:.6f} "
                   f"(default init), {state2.gamma:.6f} (random init), "
                   f"separation oracle {oracle:.8f}")


def test_criterion_5_negative_density_shells(demo_scan):
    params = kg_fields.demo_packet()
    fine = kg_fields.scan_density(params, kg_fields.default_radii(6.0, 0.005))
    ok = (len(demo_scan.negative_shells) >= 1
          and float(np.min(demo_scan.eps)) >= 0.0
          and float(np.min(fine.eps)) >= 0.0
          and len(fine.negative_shells) == len(demo_scan.negative_shells))
    max_shift = 0.0
    for a, b in zip(demo_scan.negative_shells, fine.negative_shells):
        max_shift = max(max_shift, abs(a.r_min - b.r_min), abs(a.r_max - b.r_max))
    ok = ok and max_shift < 0.02
    _report(5, ok, f"{len(demo_scan.negative_shells)} negative shell(s), "
                   f"eps >= 0 at every sample, boundary shift under grid "
                   f"halving {max_shift:.4f} < 0.02")


def test_criterion_6_oracle_agreement(sweep_curves):
    worst = 0.0
    for curve in sweep_curves.values():
        for p in curve.points:
            assert p.ok, p.message
            worst = max(worst, abs(p.gamma_shooting - p.gamma_fd))
    rng = np.random.default_rng(5)
    worst_disp = 0.0
    for _ in range(3):
        b = rng.uniform(0.6, 1.4)
        a = rng.uniform(0.0, 1.0)
        mass = rng.uniform(0.7, 2.0)
        f = lambda p: (1.0 + a * np.asarray(p) ** 2) * np.exp(
            -np.asarray(p) ** 2 / (2.0 * b * b))
        direct = kg_fields.position_dispersion_direct(f, mass, r_max=40.0,
                                                      p_max=16.0 * b)
        mom = variational.position_dispersion_momentum(f, mass, p_max=16.0 * b)
        worst_disp = max(worst_disp, abs(direct - mom) / mom)
    ok = worst <= 1e-6 and worst_disp <= 1e-5
    _report(6, ok, f"shooting vs fd across d sweep: max |diff| {worst:.2e} "
                   f"<= 1e-6; position vs momentum dispersion on 3 profiles: "
                   f"max rel {worst_disp:.2e} <= 1e-5")


def test_criterion_7_interval_bounds(sweep_curves):
    ok = True
    for p in sweep_curves[0].points:
        ok = ok and (1.5 - 1e-9 <= p.gamma <= GOLDEN_GAMMA + 1e-9)
    for p in sweep_curves[1].points:
        ok = ok and (GOLDEN_GAMMA - 1e-9 <= p.gamma <= 2.5 + 1e-9)
    lo0 = min(p.gamma for p in sweep_curves[0].points)
    hi0 = max(p.gamma for p in sweep_curves[0].points)
    lo1 = min(p.gamma for p in sweep_curves[1].points)
    hi1 = max(p.gamma for p in sweep_curves[1].points)
    _report(7, ok, f"scalar sweep in [{lo0:.6f}, {hi0:.6f}] within "
                   f"[1.5, {GOLDEN_GAMMA:.6f}]; longitudinal sweep in "
                   f"[{lo1:.6f}, {hi1:.6f}] within [{GOLDEN_GAMMA:.6f}, 2.5]")


def test_criterion_8_scaling_balance_identity(sweep_curves):
    # the identity <q^2> = gamma is exact where the potential's
    # non-oscillator part is homogeneous of degree -2, i.e. the four
    # d in {0, inf} cases with their analytic anchors 3/2 and (2+sqrt5)/2;
    # at finite d the virial term shifts <q^2> away from gamma and the
    # deviation is reported, not asserted (see the decisions ledger)
    anchors = {
        ("spin0 d=0", 1.5), ("spin0 d=inf", (2.0 + math.sqrt(5.0)) / 2.0),
    }
    ok = True
    details = []
    for case in eigensolver.analytic_cases():
        res = eigensolver.solve_ground_shooting(case.spec)
        q2 = expectation_q2(res)
        ok = ok and abs(q2 - res.gamma) <= 1e-5
        details.append(f"{case.label}: <q^2> - gamma = {q2 - res.gamma:+.2e}")
    for label, value in anchors:
        case = next(c for c in eigensolver.analytic_cases() if c.label == label)
        res = eigensolver.solve_ground_shooting(case.spec)
        ok = ok and abs(expectation_q2(res) - value) <= 1e-5
    finite_d = []
    for spin, curve in sweep_curves.items():
        for p in curve.points:
            if p.d in (0.25, 1.0):
                spec = spec_spin0(p.d) if spin == 0 else spec_spin1(p.d)
                res = eigensolver.solve_ground_shooting(spec)
                finite_d.append(
                    f"spin{spin} d={p.d}: {expectation_q2(res) - res.gamma:+.3f}")
    _report(8, ok, "limit-case identity <q^2> = gamma to 1e-5 ("
            + "; ".join(details) + "); informational finite-d imbalance: "
            + ", ".join(finite_d))


def test_criterion_9_analytic_eigenfunction_residuals():
    fine = eigensolver.verify_analytic_limits(n=8000)
    coarse = eigensolver.verify_analytic_limits(n=4000)
    ok = all(c.passed and c.residual <= 1e-5 for c in fine)
    ratios = [c.residual / f.residual for c, f in zip(coarse, fine)]
    ok = ok and all(r >= 3.0 for r in ratios)
    _report(9, ok, "residuals " + ", ".join(f"{c.label} {c.residual:.2e}"
                                            for c in fine)
            + f"; refinement ratios {['%.2f' % r for r in ratios]} (h^2)")


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
    ok = (code_pot == 0 and code_gam == 0
          and pot_csv.read_text().splitlines()[0] == "d,q,W"
          and abs(g0 - 1.5) <= 1e-6 and abs(ginf - GOLDEN_GAMMA) <= 1e-6)
    # golden curve: frozen values, plus two-resolution agreement at the
    # intermediate d where no closed form exists
    worst_gold = 0.0
    for spin, curve in sweep_curves.items():
        for p in curve.points:
            worst_gold = max(worst_gold, abs(p.gamma - GOLDEN_GAMMAS[(spin, p.d)]))
    ok = ok and worst_gold <= 1e-6
    worst_res = 0.0
    for spin, mk in ((0, spec_spin0), (1, spec_spin1)):
        for d in (0.5, 1.0, 2.0):
            g1 = GOLDEN_GAMMAS[(spin, d)]
            g2 = eigensolver.solve_ground_shooting(mk(d), RadialGrid(n=12000)).gamma
            worst_res = max(worst_res, abs(g1 - g2))
    ok = ok and worst_res <= 1e-6
    _report(10, ok, f"CLI emits potential curves and levels; endpoints match "
                    f"analytic values to 1e-6; golden levels reproduced to "
                    f"{worst_gold:.2e}; two-resolution agreement {worst_res:.2e}"
                    f" <= 1e-6")


def test_verify_subcommand_aggregates_all_checks(capsys):
    from relbosons.verify import format_report, run_verify

    checks = run_verify()
    report = format_report(checks)
    print(report)
    assert all(c.passed for c in checks), report
