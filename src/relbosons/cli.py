"""Command-line front door.

Subcommands: ``density`` (radial charge/energy scan plus planar map),
``potential`` (effective potential curves), ``gamma`` (uncertainty-bound
sweeps over the relativity parameter), ``rayleigh`` (dispersion
functionals and the transverse minimization), ``verify`` (the anchored
self-check table).

Output files are written atomically (temp file + rename) and floats are
printed with 9 significant digits, so repeated runs with identical flags
produce byte-identical files.  No subcommand draws random numbers; the
``--seed`` of ``verify`` is parsed and ignored.

Only :mod:`relbosons.potentials` (numpy alone) is imported here; each
``_cmd_*`` imports the modules it runs, so building the parser loads no
scipy and a subcommand loads only the scipy modules on its own path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import potentials
from .potentials import INFINITY, PotentialSpec


# points of a --q grid at most; the default grid has 120
MAX_Q_POINTS = 10**7
# cells of the planar map at most, (--map-n)^2; the default map has 121^2
MAX_MAP_CELLS = 10**6


def _fmt(x) -> str:
    return "%.9g" % x


def atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename; never a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relbosons-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Header line plus one ``%.9g`` line per row; the rows are flattened
    and the whole body is formatted by one ``%`` call."""
    flat = [v for row in rows for v in row]
    line = ",".join(["%.9g"] * len(header)) + "\n"
    body = (line * (len(flat) // len(header))) % tuple(flat)
    atomic_write(path, ",".join(header) + "\n" + body)


def write_grid_csv(path: str, header, x, y, values) -> None:
    """CSV with one row (x[i], y[j], values[i, j]) per grid point, x slowest.

    Same text as :func:`write_csv` on those rows.  The y column is
    formatted once, and so is each distinct value: values are told apart
    by their bits, so 0.0 and -0.0 keep their own text.  Each x row is
    then one template filled with the row's formatted values.  Raises
    ValueError unless ``values`` has the shape (len(x), len(y)).
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.shape != (len(x), len(y)):
        raise ValueError(f"values has shape {values.shape}, "
                         f"expected ({len(x)}, {len(y)})")
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    texts = np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    cells = texts[inverse].reshape(values.shape)
    tails = [f",{_fmt(yv)},%s\n" for yv in y]
    lines = [",".join(header) + "\n"]
    for xv, row in zip(x, cells):
        xs = _fmt(xv)
        # xs + xs.join(tails) puts xs in front of every tail
        lines.append((xs + xs.join(tails)) % tuple(row))
    atomic_write(path, "".join(lines))


def parse_d_list(text: str):
    """Comma list of d values; 'inf' maps to the exact limit, -0 to +0."""
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok in ("inf", "infinity"):
            out.append(INFINITY)
        else:
            val = float(tok)
            if not val >= 0:  # also rejects nan
                raise argparse.ArgumentTypeError(f"d values must be nonnegative, not {tok}")
            out.append(abs(val))
    if not out:
        raise argparse.ArgumentTypeError("no d values given")
    return out


def parse_range(text: str):
    """'min:max:step' range specification for q grids, all three finite.

    The point count is checked before the grid is built: an error raised
    while allocating it would escape argparse, which converts only
    ValueError and TypeError into a usage error."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected min:max:step")
    lo, hi, step = (parse_finite(p) for p in parts)
    if not (0 < lo < hi) or step <= 0:
        raise argparse.ArgumentTypeError("need 0 < min < max and step > 0")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_Q_POINTS:  # also inf, where the division overflows
        raise argparse.ArgumentTypeError(f"{text} has more than {MAX_Q_POINTS} points")
    return lo + step * np.arange(int(math.floor(span)) + 1)


def parse_finite(text: str) -> float:
    """A finite number: nan and inf would reach the packet transforms."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text}")
    return value


def parse_positive(text: str) -> float:
    """A finite number above 0: a mass, a damping, a width or a radius."""
    value = parse_finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, not {text}")
    return value


def parse_map_n(text: str) -> int:
    """Points per axis of the planar map; the map spans both corners."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("the planar map needs at least 2 points per axis")
    if n * n > MAX_MAP_CELLS:
        raise argparse.ArgumentTypeError(f"{n} points per axis make {n * n} cells, more "
                                         f"than MAX_MAP_CELLS = {MAX_MAP_CELLS}")
    return n


def parse_nonnegative_int(text: str) -> int:
    """An integer >= 0: an angular index, or the seed of ``verify``.

    ``verify`` draws no random numbers, so its seed does not change the
    report; the flag is kept so that command lines passing it still parse."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {value}")
    return value


def parse_grid_n(text: str) -> int:
    """Nodes of the radial grid of the eigensolvers, at least
    ``eigensolver.MIN_GRID_N``.

    Only ``gamma`` and ``verify`` take the flag, and both load the
    eigensolver anyway."""
    from .eigensolver import MIN_GRID_N

    value = int(text)
    if value < MIN_GRID_N:
        raise argparse.ArgumentTypeError(f"n must be at least {MIN_GRID_N}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relbosons",
        description="Uncertainty bounds for relativistic bosons: densities, "
                    "potentials, gamma sweeps, dispersion minimization.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_dens = sub.add_parser(
        "density", help="radial charge/energy density scan (CSV r,rho,eps)")
    p_dens.add_argument("--m", type=parse_positive, default=1.0, help="mass (natural units)")
    p_dens.add_argument("--a", type=parse_positive, default=0.5, help="damping parameter a")
    p_dens.add_argument("--t", type=parse_finite, default=0.05, help="time t")
    p_dens.add_argument("--rmax", type=parse_positive, default=6.0)
    p_dens.add_argument("--dr", type=parse_positive, default=0.01)
    p_dens.add_argument("--profile", choices=["cosine", "gaussian"], default="cosine",
                        help="spectral profile f(p)")
    p_dens.add_argument("--sigma", type=parse_positive, default=None,
                        help="width of the gaussian profile (default 1)")
    p_dens.add_argument("--out", required=True, help="CSV output (r,rho,eps)")
    p_dens.add_argument("--map-out", default="", help="planar map CSV (x,z,rho)")
    p_dens.add_argument("--map-n", type=parse_map_n, default=None,
                        help="points per axis of the planar map (default 121)")
    p_dens.add_argument("--shells-out", default="",
                        help="negative-shell JSON ([{r_min,r_max,rho_min}])")

    p_pot = sub.add_parser(
        "potential", help="effective potential curves (CSV q,W; d,q,W for sweeps)")
    p_pot.add_argument("--spin", type=int, choices=[0, 1], required=True)
    p_pot.add_argument("--d", type=parse_d_list, default="0,0.5,1,2,inf",
                       help="comma list of d values; 'inf' allowed "
                            "(default sweep 0,0.5,1,2,inf)")
    p_pot.add_argument("--l", type=parse_nonnegative_int, default=0, help="angular index")
    p_pot.add_argument("--q", type=parse_range, default="0.05:6:0.05",
                       help="q grid as min:max:step (default 0.05:6:0.05)")
    p_pot.add_argument("--out", required=True)

    p_gam = sub.add_parser(
        "gamma", help="gamma(d) sweep (CSV d,gamma,residual,method)")
    p_gam.add_argument("--spin", type=int, choices=[0, 1], required=True)
    p_gam.add_argument("--d", type=parse_d_list, required=True)
    p_gam.add_argument("--l", type=parse_nonnegative_int, default=0)
    p_gam.add_argument("--grid-n", type=parse_grid_n, default=8000)
    p_gam.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p_gam.add_argument("--out", default="", help="output file (stdout if omitted)")

    p_ray = sub.add_parser(
        "rayleigh", help="dispersion functional evaluation / minimization (JSON)")
    p_ray.add_argument("--case", required=True,
                       choices=["spin0", "long", "trans-nonrel", "trans-massless"])
    p_ray.add_argument("--d", type=parse_d_list, default=None,
                       help="single d for the spin0/long cases")
    p_ray.add_argument("--out", default="", help="JSON output (stdout if omitted)")
    p_ray.add_argument("--samples-out", default="",
                       help="CSV of the minimizer samples (trans-massless)")

    p_ver = sub.add_parser("verify", help="run every anchored check; exit 0 iff all pass")
    p_ver.add_argument("--seed", type=parse_nonnegative_int, default=0,
                       help="accepted and ignored: verify draws no random numbers, "
                            "so the report does not depend on it")
    p_ver.add_argument("--grid-n", type=parse_grid_n, default=8000)

    return parser


def _cmd_density(args) -> int:
    from . import kg_fields

    if args.sigma is not None and args.profile != "gaussian":
        raise ValueError(f"--sigma applies only to --profile gaussian, not {args.profile}")
    if args.map_n is not None and not args.map_out:
        raise ValueError("--map-n applies only to the planar map of --map-out")
    if args.profile == "cosine":
        profile = kg_fields.CosineProfile(args.m)
    else:
        profile = kg_fields.GaussianProfile(args.sigma or 1.0)
    params = kg_fields.WavepacketParams(args.m, args.a, args.t, profile)
    radii = kg_fields.default_radii(args.rmax, args.dr)
    fieldmap = kg_fields.scan_density(params, radii)
    write_csv(args.out, ["r", "rho", "eps"],
              zip(fieldmap.radii, fieldmap.rho, fieldmap.eps))
    if args.map_out:
        x, z, rho = kg_fields.planar_map(fieldmap, args.map_n or 121)
        write_grid_csv(args.map_out, ["x", "z", "rho"], x, z, rho)
    if args.shells_out:
        atomic_write(args.shells_out, kg_fields.shells_json(fieldmap) + "\n")
    shells = fieldmap.negative_shells
    if shells:
        ranges = ", ".join(f"[{s.r_min:.3f}, {s.r_max:.3f}]" for s in shells)
        print(f"negative charge-density shells: {len(shells)} ({ranges})",
              file=sys.stderr)
    else:
        print("no negative charge-density shell on this grid", file=sys.stderr)
    if len(fieldmap.failed_radii):
        shown = ", ".join(_fmt(r) for r in fieldmap.failed_radii[:5])
        more = "" if len(fieldmap.failed_radii) <= 5 else ", ..."
        print(f"quadrature did not settle at {len(fieldmap.failed_radii)} radii: "
              f"r = {shown}{more}", file=sys.stderr)
        return 1
    return 0


def _cmd_potential(args) -> int:
    rows = []
    for d in args.d:
        w = potentials.effective_potential(args.q, PotentialSpec(args.spin, d, args.l))
        rows.extend((d, qv, wv) for qv, wv in zip(args.q, w))
    if len(args.d) == 1:
        write_csv(args.out, ["q", "W"], [(r[1], r[2]) for r in rows])
    else:
        write_csv(args.out, ["d", "q", "W"], rows)
    return 0


def _cmd_gamma(args) -> int:
    from . import eigensolver

    template = PotentialSpec(args.spin, 0.0, args.l)
    points = eigensolver.gamma_curve(template, args.d, args.grid_n)
    if args.fmt == "csv":
        rows = [(p.d, p.gamma, p.residual, "shooting" if p.ok else f"failed:{p.message}")
                for p in points]
        text = "\n".join([",".join(["d", "gamma", "residual", "method"])]
                         + [",".join(_fmt(v) if isinstance(v, float) else str(v)
                                     for v in row) for row in rows]) + "\n"
    else:
        def num(x):
            return None if math.isnan(x) else x

        payload = {
            "spin": args.spin, "channel": template.channel, "angular_index": args.l,
            "grid": {"q_min": eigensolver.SHOOTING_Q_LO, "q_max": eigensolver.Q_MAX,
                     "n": args.grid_n},
            "points": [{"d": ("inf" if math.isinf(p.d) else p.d),
                        "gamma": num(p.gamma), "residual": num(p.residual),
                        "method": "shooting", "gamma_fd": num(p.gamma_fd),
                        "gamma_shooting": num(p.gamma),
                        "ok": p.ok, "message": p.message}
                       for p in points],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    for p in points:
        if not p.ok:
            print(f"gamma failed at d = {_fmt(p.d)}: {p.message}", file=sys.stderr)
    return 0 if all(p.ok for p in points) else 1


def _cmd_rayleigh(args) -> int:
    from . import eigensolver, variational

    if args.d is not None:
        if args.case not in ("spin0", "long"):
            raise ValueError(f"--d applies only to --case spin0 and long, not {args.case}")
        if len(args.d) != 1:
            raise ValueError(f"--d takes one value for --case {args.case}, "
                             f"got {len(args.d)}")
    if args.samples_out and args.case != "trans-massless":
        raise ValueError(f"--samples-out applies only to --case trans-massless, "
                         f"not {args.case}")
    payload = {"case": args.case}
    if args.case != "trans-massless":
        # the nonrelativistic transverse weight vanishes like the scalar d = 0
        # weight, so trans-nonrel is the scalar d = 0 channel and its ground state
        d = (args.d or [0.0])[0]
        spec = PotentialSpec(1 if args.case == "long" else 0, d)
        state = variational.fd_state(eigensolver.solve_ground_fd(spec))
        if args.case != "trans-nonrel":
            payload["d"] = "inf" if math.isinf(d) else d
        payload["iterations"] = 0
    else:
        state = variational.minimize_transverse_massless()
        payload.update(iterations=state.meta["iterations"],
                       euler_lagrange_residual=variational.euler_lagrange_residual(state),
                       separation_oracle=variational.separation_oracle(),
                       closed_form_readings=variational.closed_form_readings())
    payload.update(gamma=state.gamma, delta_q2=state.delta_q2,
                   delta_rq2=state.delta_rq2, norm_N2=state.norm_N2)
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.samples_out:
        grid = state.geometry
        write_grid_csv(args.samples_out, ["q_perp", "q_z", "f"],
                       grid.q_perp, grid.q_z, np.outer(*state.f_samples))
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    checks = verify.run_verify(grid_n=args.grid_n)
    print(verify.format_report(checks))
    return 0 if all(c.passed for c in checks) else 1


_DISPATCH = {
    "density": _cmd_density,
    "potential": _cmd_potential,
    "gamma": _cmd_gamma,
    "rayleigh": _cmd_rayleigh,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`, built once: each parse fills a new namespace
    and converts string defaults afresh, so runs share no parsed value."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for flag errors
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.subcommand](args)
    except Exception as exc:
        print(f"relbosons {args.subcommand}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
