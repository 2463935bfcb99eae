"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import relbosons
from relbosons import kg_fields
from relbosons.cli import (parse_d_list, parse_map_n, parse_range, run, write_csv,
                           write_grid_csv)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(relbosons.__file__)))


def read(path):
    with open(path) as handle:
        return handle.read()


class TestParsing:
    def test_d_list(self):
        assert parse_d_list("0,0.5,inf") == [0.0, 0.5, math.inf]
        # -0 enters as +0, so no d column prints a signed zero
        for text in ("-0", "-0.0", "-0,1"):
            assert math.copysign(1.0, parse_d_list(text)[0]) == 1.0, text
        for text in ("-1", "nan", "0,nan"):
            with pytest.raises(Exception):
                parse_d_list(text)

    def test_range(self):
        q = parse_range("0.5:2:0.5")
        assert q == pytest.approx([0.5, 1.0, 1.5, 2.0])
        with pytest.raises(Exception):
            parse_range("1:2")
        # an infinite bound or step would size the grid by int(inf); a count
        # above the cap is refused before the grid is built (the first would
        # take 43 TiB, the second overflows its count to inf)
        for text in ("0.05:inf:0.05", "-inf:1:0.1", "0.1:1:inf", "0.1:1:nan",
                     "0.05:6:1e-12", "0.1:1e300:1e-300"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_range(text)

    def test_flag_error_exit_code(self, capsys):
        assert run(["potential", "--spin", "7", "--out", "x.csv"]) == 2
        assert run(["nonsense"]) == 2
        # the spin fixes the channel; there is no --channel flag
        assert run(["gamma", "--spin", "0", "--channel", "scalar", "--d", "0"]) == 2
        # rejected while parsing, before any row or sweep point runs, with
        # a message that names the flag
        for argv, flag in ((["verify", "--seed", "-1"], "--seed"),
                           (["verify", "--grid-n", "99"], "--grid-n"),
                           (["gamma", "--spin", "0", "--d", "0", "--grid-n", "50"],
                            "--grid-n"),
                           # nan fails every comparison, so it must not pass as d >= 0
                           (["gamma", "--spin", "0", "--d", "nan", "--out", "x.csv"], "--d"),
                           (["rayleigh", "--case", "spin0", "--d", "nan"], "--d"),
                           (["potential", "--spin", "0", "--d", "nan", "--out", "x.csv"],
                            "--d"),
                           (["potential", "--spin", "0", "--q", "0.05:inf:0.05",
                             "--out", "x.csv"], "--q"),
                           (["potential", "--spin", "0", "--q", "0.05:6:1e-12",
                             "--out", "x.csv"], "--q"),
                           # the angular index is a nonnegative integer, like d
                           (["potential", "--spin", "0", "--l", "-1", "--out", "x.csv"],
                            "--l"),
                           (["gamma", "--spin", "0", "--d", "1", "--l", "-1"], "--l"),
                           *((["density", flag, value, "--out", "x.csv"], flag)
                             for flag, value in (("--t", "nan"), ("--m", "nan"),
                                                 ("--a", "nan"), ("--rmax", "inf"),
                                                 ("--sigma", "0"), ("--dr", "-0.01"),
                                                 ("--m", "abc")))):
            capsys.readouterr()
            assert run(argv) == 2, argv
            assert f"argument {flag}: " in capsys.readouterr().err, argv

    def test_write_csv_formats_each_value(self, tmp_path):
        out = tmp_path / "t.csv"
        write_csv(str(out), ["a", "b", "c", "d", "e"],
                  [(3, np.float64(0.1), math.inf, -math.inf, math.nan),
                   (np.float64(-1.5e-12), 10**10, 2.0 / 3.0, -0.0, 7)])
        assert read(out) == ("a,b,c,d,e\n3,0.1,inf,-inf,nan\n"
                             "-1.5e-12,1e+10,0.666666667,-0,7\n")

    def test_write_grid_csv_matches_write_csv(self, tmp_path):
        grid, flat = tmp_path / "grid.csv", tmp_path / "flat.csv"
        x, y = np.array([-math.inf, 0.25, 0.0]), np.array([1.0, -2.0, 1e-20, -0.0])
        # repeated values, both zeros, nan and both infinities in one grid
        values = np.array([[0.5, math.nan, -math.inf, 0.0],
                           [1e9, 123456789.5, 3.0, -0.0],
                           [0.5, math.inf, 1e-20, math.nan]])
        write_grid_csv(str(grid), ["x", "y", "v"], x, y, values)
        write_csv(str(flat), ["x", "y", "v"],
                  [(xv, yv, values[i, j]) for i, xv in enumerate(x)
                   for j, yv in enumerate(y)])
        assert read(grid) == read(flat)
        lines = read(grid).splitlines()
        assert lines[1:5] == ["-inf,1,0.5", "-inf,-2,nan", "-inf,1e-20,-inf",
                              "-inf,-0,0"]
        assert lines[8] == "0.25,-0,-0"
        assert lines[9:13] == ["0,1,0.5", "0,-2,inf", "0,1e-20,1e-20", "0,-0,nan"]

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (4, 3), (12,)])
    def test_write_grid_csv_rejects_mismatched_values(self, tmp_path, shape):
        out = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match="shape"):
            write_grid_csv(str(out), ["x", "y", "v"], np.arange(3.0), np.arange(4.0),
                           np.zeros(shape))
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_map_n_below_two_rejected(self, n, tmp_path, capsys):
        with pytest.raises(Exception):
            parse_map_n(n)
        out, planar = tmp_path / "rho.csv", tmp_path / "map.csv"
        assert run(["density", "--rmax", "2", "--dr", "0.05", "--out", str(out),
                    "--map-out", str(planar), "--map-n", n]) == 2
        assert "--map-n" in capsys.readouterr().err
        assert not out.exists() and not planar.exists()


class TestDensity:
    def test_writes_csv_and_reports_shells(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        shells = tmp_path / "shells.json"
        planar = tmp_path / "map.csv"
        code = run(["density", "--m", "1", "--a", "0.5", "--t", "0.05",
                    "--rmax", "6", "--dr", "0.01", "--out", str(out),
                    "--shells-out", str(shells), "--map-out", str(planar),
                    "--map-n", "41"])
        assert code == 0
        err = capsys.readouterr().err
        assert "negative charge-density shells" in err
        lines = read(out).splitlines()
        assert lines[0] == "r,rho,eps"
        assert len(lines) == 601
        rho = np.array([float(l.split(",")[1]) for l in lines[1:]])
        eps = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert rho.min() < 0.0
        assert eps.min() >= 0.0
        data = json.loads(read(shells))
        assert len(data) >= 1 and data[0]["rho_min"] < 0.0
        assert read(planar).splitlines()[0] == "x,z,rho"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["density", "--rmax", "2", "--dr", "0.05"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_map_matches_row_formatting(self, tmp_path):
        planar = tmp_path / "map.csv"
        assert run(["density", "--rmax", "2", "--dr", "0.05", "--out",
                    str(tmp_path / "rho.csv"), "--map-out", str(planar),
                    "--map-n", "9"]) == 0
        fieldmap = kg_fields.scan_density(kg_fields.demo_packet(),
                                          kg_fields.default_radii(2.0, 0.05))
        x, z, rho = kg_fields.planar_map(fieldmap, 9)
        rows = [(xv, zv, rho[i, j]) for i, xv in enumerate(x)
                for j, zv in enumerate(z)]
        expect = "x,z,rho\n" + "".join(
            ",".join(f"{v:.9g}" for v in row) + "\n" for row in rows)
        assert read(planar) == expect

    def test_gaussian_profile_no_shell(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        code = run(["density", "--profile", "gaussian", "--sigma", "0.1",
                    "--rmax", "3", "--dr", "0.05", "--out", str(out)])
        assert code == 0
        assert "no negative charge-density shell" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["--sigma", "2"], "--sigma"),
        (["--profile", "cosine", "--sigma", "1"], "--sigma"),
        (["--map-n", "41"], "--map-n"),
        (["--profile", "gaussian", "--map-n", "121"], "--map-n"),
    ])
    def test_ignored_flags_rejected(self, argv, flag, tmp_path, capsys):
        # --sigma only shapes the gaussian profile, --map-n only the planar map
        out, shells = tmp_path / "rho.csv", tmp_path / "shells.json"
        assert run(["density", "--rmax", "2", "--dr", "0.05", *argv, "--out", str(out),
                    "--shells-out", str(shells)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"relbosons density: {flag} applies only to ")
        assert not out.exists()
        assert not shells.exists()

    def test_radius_lattice_above_the_cap_is_refused(self, tmp_path, capsys):
        # 1e8 radii: refused before the grid is built
        out = tmp_path / "rho.csv"
        assert run(["density", "--rmax", "1e6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--rmax" in err and "MAX_LATTICE_POINTS" in err
        assert not out.exists()

    def test_transform_nodes_above_the_cap_are_refused(self, tmp_path, capsys, monkeypatch):
        # --a 0.002: 2^24 p nodes after the six halvings; without the check
        # the first DST would stop the run, with another message
        def started(*args, **kwargs):
            raise RuntimeError("the transforms started")

        monkeypatch.setattr(kg_fields, "dst", started)
        out = tmp_path / "rho.csv"
        assert run(["density", "--a", "0.002", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "MAX_TRANSFORM_NODES" in err and "--a" in err
        assert not out.exists()

    def test_gaussian_weight_below_the_tolerance_is_refused(self, tmp_path, capsys):
        # sigma = 1e-4: the fields would be zeros at every radius
        out = tmp_path / "rho.csv"
        assert run(["density", "--profile", "gaussian", "--sigma", "1e-4",
                    "--out", str(out)]) == 1
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_map_cells_above_the_cap_are_refused(self, tmp_path, capsys):
        # 1e10 cells: an argparse error before any scan
        assert parse_map_n("1000") == 1000
        with pytest.raises(argparse.ArgumentTypeError, match="MAX_MAP_CELLS"):
            parse_map_n("1001")
        out, planar = tmp_path / "rho.csv", tmp_path / "map.csv"
        assert run(["density", "--out", str(out), "--map-out", str(planar),
                    "--map-n", "100000"]) == 2
        assert "--map-n" in capsys.readouterr().err
        assert not out.exists() and not planar.exists()

    def test_empty_radius_grid_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        assert run(["density", "--rmax", "0.001", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("relbosons density: ")
        assert "r_max = 0.001" in err and "dr = 0.01" in err
        assert not out.exists()


class TestPotential:
    def test_single_d_two_columns(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["potential", "--spin", "0", "--d", "1", "--q", "0.5:2:0.5",
                    "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "q,W"
        q1 = [float(v) for v in lines[2].split(",")]
        assert q1 == pytest.approx([1.0, 1.625])

    def test_default_sweep_long_format(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["potential", "--spin", "1", "--q", "1:2:1",
                    "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "d,q,W"
        assert len(lines) == 1 + 5 * 2  # default sweep of five d values
        assert lines[1].startswith("0,")
        assert lines[-1].split(",")[0] == "inf"


    @pytest.mark.parametrize("spin", ["0", "1"])
    def test_large_finite_d_names_d(self, spin, tmp_path, capsys):
        # (d q)^2 overflows at q = 2 and 3: the scalar weight fell to 0
        # there, and W read 4 and 9 in place of 4.25 and 9.11
        out = tmp_path / "w.csv"
        assert run(["potential", "--spin", spin, "--d", "1e154", "--q", "1:3:1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "d = 1e+154 is too large" in err and "use d = inf" in err
        assert not out.exists()

    def test_tiny_q_names_q(self, tmp_path, capsys):
        # the spin-1 1/q^2 terms overflow at q = 1e-160: W read inf
        out = tmp_path / "w.csv"
        assert run(["potential", "--spin", "1", "--d", "1", "--q", "1e-160:2e-160:1e-160",
                    "--out", str(out)]) == 1
        assert "q = 1e-160 is too small" in capsys.readouterr().err
        assert not out.exists()

    def test_spin0_weight_overflow_names_d(self, tmp_path, capsys):
        # d^2 is finite, but the weight 1.5 d^2 at d q << 1 is not: W read inf
        out = tmp_path / "w.csv"
        assert run(["potential", "--spin", "0", "--d", "1.2e154",
                    "--q", "1e-160:2e-160:1e-160", "--out", str(out)]) == 1
        assert "d = 1.2e+154 is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_q_spin0_finite_d(self, tmp_path):
        # the scalar W at finite d has no 1/q^2 term: d^2 (1 + 1/2) at q -> 0
        out = tmp_path / "w.csv"
        assert run(["potential", "--spin", "0", "--d", "1", "--q", "1e-160:2e-160:1e-160",
                    "--out", str(out)]) == 0
        assert read(out).splitlines() == ["q,W", "1e-160,1.5", "2e-160,1.5"]


# d in {0, inf} and 10^[-300, 300]
D_VALUES = st.one_of(st.sampled_from([0.0, math.inf]),
                     st.floats(-300.0, 300.0).map(lambda e: 10.0**e))


@st.composite
def q_ranges(draw):
    """A --q range 'min:max:step' from min = 10^[-300, 300], of 1 to 100 points."""
    lo = 10.0 ** draw(st.floats(-300.0, 300.0))
    step = lo * 10.0 ** draw(st.floats(-2.0, 1.0))
    return f"{lo!r}:{lo + step * (draw(st.integers(1, 100)) - 0.5)!r}:{step!r}"


class TestPotentialContract:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spin=st.sampled_from([0, 1]), ds=st.lists(D_VALUES, min_size=1, max_size=3),
           l=st.integers(0, 60), q=q_ranges())
    # the spin-0 weight overflows while d^2 does not; the spin-1 1/q^2 terms overflow
    @example(spin=0, ds=[1.2e154], l=0, q="1e-160:2e-160:1e-160")
    @example(spin=1, ds=[1.0], l=0, q="1e-160:2e-160:1e-160")
    # q^2 overflows; the spin-1 q^2 (1 + (d q)^2) overflows while q^2 does not
    @example(spin=0, ds=[0.0], l=0, q="1e200:2e200:1e200")
    @example(spin=1, ds=[1e-150], l=0, q="1e154:1.3e154:1e153")
    def test_finite_table_or_a_refusal_naming_its_flag(self, spin, ds, l, q):
        # either every W is finite (the d column prints inf by design), or
        # the run exits 1 or 2 naming q, d or l and writes no file
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "w.csv")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = run(["potential", "--spin", str(spin), "--d", ",".join(map(repr, ds)),
                            "--l", str(l), "--q", q, "--out", out])
            err = err.getvalue()
            assert "Traceback" not in err
            if code == 0:
                rows = read(out).splitlines()[1:]
                assert rows and all(math.isfinite(float(r.split(",")[-1])) for r in rows)
            else:
                assert code in (1, 2)
                assert re.search(r"--q|\bq = |--d|\bd = |--l", err), err
                assert not os.path.exists(out)


class TestGamma:
    def test_endpoint_values_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run(["gamma", "--spin", "0", "--d", "0,inf", "--grid-n", "4000",
                    "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == "d,gamma,residual,method"
        row0 = lines[1].split(",")
        rowinf = lines[2].split(",")
        assert float(row0[0]) == 0.0 and row0[3] == "shooting"
        assert float(row0[1]) == pytest.approx(1.5, abs=1e-6)
        assert rowinf[0] == "inf"
        assert float(rowinf[1]) == pytest.approx(2.118034, abs=1e-6)

    def test_json_variant_carries_grid(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gamma", "--spin", "1", "--d", "0", "--grid-n", "4000",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(read(out))
        assert payload["grid"]["n"] == 4000
        assert payload["channel"] == "longitudinal"
        assert payload["points"][0]["gamma"] == pytest.approx(2.5, abs=1e-5)

    def test_negative_zero_prints_as_zero(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gamma", "--spin", "0", "--d=-0", "--grid-n", "2000",
                    "--format", "json", "--out", str(out)]) == 0
        text = read(out)
        assert '"d": 0.0,' in text and '"d": -0.0' not in text

    def test_two_point_sweep_values(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run(["gamma", "--spin", "0", "--d", "0,0.5", "--grid-n", "4000",
                    "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(1.5, abs=1e-5)
        assert float(lines[2].split(",")[1]) == pytest.approx(1.6312585, abs=1e-5)

    def test_cross_method_disagreement_exits_nonzero(self, tmp_path, capsys,
                                                     monkeypatch):
        import relbosons.eigensolver as es

        fd = es.solve_ground_fd

        def shifted_fd(spec, n, ladder=None):
            res = fd(spec, n, ladder)
            res.gamma += 1e-5
            return res

        monkeypatch.setattr(es, "solve_ground_fd", shifted_fd)
        out = tmp_path / "g.csv"
        code = run(["gamma", "--spin", "0", "--d", "0", "--grid-n", "4000",
                    "--out", str(out)])
        assert code == 1
        row = read(out).splitlines()[1].split(",")
        assert len(row) == 4 and row[3].startswith("failed:shooting gamma ")
        # the unshifted shooting value as printed, at 3/2
        shot = re.match(r"failed:shooting gamma (\S+)", row[3]).group(1)
        assert float(shot) == pytest.approx(1.5, abs=1e-9)
        # the FD value as printed, 1e-5 above its unshifted 3/2
        printed = re.search(r"FD gamma (\S+)", capsys.readouterr().err).group(1)
        assert float(printed) == pytest.approx(1.5 + 1e-5, abs=1e-9)


    def test_vast_finite_d(self, tmp_path):
        # the (1 + x)^2 term overflows, silently, to its limit 0
        out = tmp_path / "g.csv"
        assert run(["gamma", "--spin", "0", "--d", "1e80,1e150", "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        assert [r[1] for r in rows] == ["2.11803399"] * 2

    def test_start_underflow_names_the_angular_index(self, tmp_path, capsys):
        # shooting starts at l <= 45 only; l = 144 lies far past that
        out = tmp_path / "g.csv"
        for d, l in (("0", "46"), ("1", "144")):
            assert run(["gamma", "--spin", "0", "--d", d, "--l", l,
                        "--out", str(out)]) == 1
            message = f"shooting cannot start at angular index l = {l}"
            assert message in capsys.readouterr().err
            assert message in read(out)


class TestVerify:
    def test_report_contract(self, capsys):
        # the report layout that benchmarks/checks.py parses
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        checks = [line for line in lines if line.startswith("[")]
        assert checks and all(line.startswith("[PASS]") for line in checks)
        assert lines[-1] == "20/20 checks passed"
        for fragment in ("scalar gamma(d=0) =", "scalar gamma(d=inf) =",
                         "longitudinal gamma(d=0) =", "longitudinal gamma(d=inf) ="):
            hits = [line for line in checks if fragment in line]
            assert len(hits) == 1, fragment
            assert float(hits[0].split("gamma = ")[1].split()[0]) > 0.0
        # verify draws no random numbers; --seed is parsed and ignored
        assert run(["verify", "--seed", "9301"]) == 0
        assert capsys.readouterr().out == out

    def test_coarse_grid_passes(self, capsys):
        # the closed-form residual rows keep their own 8000-node grid, so a
        # coarse solver grid leaves them as they read at the default one
        assert run(["verify", "--grid-n", "2000"]) == 0
        coarse = capsys.readouterr().out.splitlines()
        assert coarse[-1] == "20/20 checks passed"
        assert run(["verify"]) == 0
        default = capsys.readouterr().out.splitlines()
        residual = [i for i, line in enumerate(default) if "closed-form eigenfunction" in line]
        assert len(residual) == 3
        assert [coarse[i] for i in residual] == [default[i] for i in residual]


class TestRayleigh:
    def test_spin0_nonrelativistic(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rayleigh", "--case", "spin0", "--d", "0",
                    "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["gamma"] == pytest.approx(1.5, abs=1e-4)
        assert payload["iterations"] == 0

    def test_spin0_massless(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rayleigh", "--case", "spin0", "--d", "inf",
                    "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["gamma"] == pytest.approx(2.118034, abs=1e-3)

    def test_longitudinal_intermediate_d(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rayleigh", "--case", "long", "--d", "1",
                    "--out", str(out)]) == 0
        payload = json.loads(read(out))
        # the product of the FD ground state stays inside the bounds
        assert 2.118 < payload["gamma"] < 2.51

    def test_moments_of_the_fd_eigenvector_on_its_own_nodes(self, tmp_path):
        # the unit FD eigenvector, read on the solver's own nodes: no
        # interpolation moves its norm off 1
        out = tmp_path / "r.json"
        assert run(["rayleigh", "--case", "spin0", "--d", "1", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert abs(payload["norm_N2"] - 1.0) <= 1e-12
        assert payload["gamma"] == pytest.approx(
            math.sqrt(payload["delta_q2"] * payload["delta_rq2"]), rel=1e-15)

    def test_trans_nonrel(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rayleigh", "--case", "trans-nonrel", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["gamma"] == pytest.approx(1.5, abs=1e-4)

    def test_trans_nonrel_is_spin0_at_d0(self, tmp_path):
        # the nonrelativistic transverse weight is the scalar d = 0 weight, 0:
        # the same run, whose JSON is the spin0 one without its "d" key
        outs = tmp_path / "n.json", tmp_path / "s.json"
        assert run(["rayleigh", "--case", "trans-nonrel", "--out", str(outs[0])]) == 0
        assert run(["rayleigh", "--case", "spin0", "--d", "0", "--out", str(outs[1])]) == 0
        spin0 = json.loads(read(outs[1]))
        del spin0["d"]
        spin0["case"] = "trans-nonrel"
        assert read(outs[0]) == json.dumps(spin0, indent=2) + "\n"

    def test_trans_massless_logs_readings(self, tmp_path):
        out = tmp_path / "r.json"
        samples = tmp_path / "f.csv"
        assert run(["rayleigh", "--case", "trans-massless", "--out", str(out),
                    "--samples-out", str(samples)]) == 0
        payload = json.loads(read(out))
        assert payload["gamma"] == pytest.approx(2.5, abs=1e-3)
        assert payload["separation_oracle"] == 2.5
        assert payload["euler_lagrange_residual"] <= 1e-3
        readings = payload["closed_form_readings"]
        assert readings["qperp_times_full_gaussian"] == pytest.approx(2.5, abs=1e-3)
        assert "divergent" in readings["spherical_magnitude"]
        assert read(samples).splitlines()[0] == "q_perp,q_z,f"

    def test_samples_match_row_formatting(self, tmp_path, transverse_state):
        samples = tmp_path / "f.csv"
        assert run(["rayleigh", "--case", "trans-massless", "--out",
                    str(tmp_path / "r.json"), "--samples-out", str(samples)]) == 0
        grid = transverse_state.geometry
        f = np.outer(*transverse_state.f_samples)
        rows = [(qp, qz, f[i, j])
                for i, qp in enumerate(grid.q_perp)
                for j, qz in enumerate(grid.q_z)]
        expect = "q_perp,q_z,f\n" + "".join(
            ",".join(f"{v:.9g}" for v in row) + "\n" for row in rows)
        assert read(samples) == expect

    @pytest.mark.parametrize("argv", [
        ["--case", "spin0", "--d", "0.5,7"],
        ["--case", "long", "--d", "0.5,7"],
        ["--case", "trans-nonrel", "--d", "0.5"],
        ["--case", "trans-massless", "--d", "0.5"],
    ])
    def test_ignored_d_values_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["rayleigh", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("relbosons rayleigh: --d ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--case", "spin0", "--d", "1"],
        ["--case", "long", "--d", "1"],
        ["--case", "trans-nonrel"],
    ])
    def test_ignored_samples_out_rejected(self, argv, tmp_path, capsys):
        out, samples = tmp_path / "r.json", tmp_path / "f.csv"
        assert run(["rayleigh", *argv, "--out", str(out),
                    "--samples-out", str(samples)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("relbosons rayleigh: --samples-out ")
        assert not out.exists()
        assert not samples.exists()

    def test_computational_failure_exit_code(self, tmp_path):
        # an unwritable output directory surfaces as exit 1 with a message
        assert run(["rayleigh", "--case", "spin0", "--d", "0",
                    "--out", str(tmp_path / "no" / "dir" / "r.json")]) == 1


    @pytest.mark.parametrize("d", ["5e153", "1e155"])
    def test_large_finite_d_names_d(self, d, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["rayleigh", "--case", "spin0", "--d", d, "--out", str(out)]) == 1
        assert f"d = {float(d):g} is too large" in capsys.readouterr().err
        assert not out.exists()


class TestRayleighContract:
    # each channel's gamma(d) between its d = 0 and d = inf levels
    ENDPOINTS = {"spin0": (1.5, 1.0 + math.sqrt(5.0) / 2.0),
                 "long": (1.0 + math.sqrt(5.0) / 2.0, 2.5)}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=st.sampled_from(["spin0", "long"]), d=D_VALUES)
    def test_finite_trial_in_the_bracket_or_a_refusal_naming_d(self, case, d):
        # either every number is finite and gamma lies within 1e-5 of the
        # channel's endpoint interval (the FD product at d = 0 reads 1.49999965),
        # or the run exits 1 naming d and writes no file
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "r.json")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = run(["rayleigh", "--case", case, "--d", repr(d), "--out", out])
            err = err.getvalue()
            assert "Traceback" not in err
            if code == 0:
                payload = json.loads(read(out))
                numbers = [v for k, v in payload.items() if k not in ("case", "d")]
                assert all(math.isfinite(v) for v in numbers), payload
                lo, hi = self.ENDPOINTS[case]
                assert lo - 1e-5 <= payload["gamma"] <= hi + 1e-5, payload
            else:
                assert code == 1
                assert re.search(r"\bd = ", err), err
                assert not os.path.exists(out)


class TestRepeatedRuns:
    """One process, one parser: runs share no parsed value."""

    def test_reruns_write_identical_files(self, tmp_path, capsys):
        gamma = ["gamma", "--spin", "1", "--d", "0,1,inf", "--grid-n", "2000",
                 "--format", "json", "--out"]
        potential = ["potential", "--spin", "0", "--q", "0.5:2:0.5", "--out"]
        assert run(gamma + [str(tmp_path / "g1.json")]) == 0
        assert run(["gamma", "--spin", "1", "--d", "-1"]) == 2
        assert run(gamma + [str(tmp_path / "g2.json")]) == 0
        assert run(potential + [str(tmp_path / "w1.csv")]) == 0
        assert run(potential + [str(tmp_path / "w2.csv")]) == 0
        for first, second in (("g1.json", "g2.json"), ("w1.csv", "w2.csv")):
            assert (tmp_path / first).read_bytes() == (tmp_path / second).read_bytes()
        assert (tmp_path / "w1.csv").read_text().count("\n") == 1 + 5 * 4

    def test_defaults_are_converted_at_every_run(self, monkeypatch, tmp_path):
        # a command that changes its parsed values leaves the next run's as parsed
        from relbosons import cli

        seen = []

        def spoiling(args):
            seen.append((list(args.d), args.q.copy()))
            args.d.append(7.0)
            args.q[:] = -1.0
            return 0

        monkeypatch.setitem(cli._DISPATCH, "potential", spoiling)
        for _ in range(2):
            assert run(["potential", "--spin", "0", "--out", str(tmp_path / "w.csv")]) == 0
        (d1, q1), (d2, q2) = seen
        assert d1 == d2 == [0.0, 0.5, 1.0, 2.0, math.inf]
        assert np.array_equal(q1, q2) and q1[0] == 0.05 and len(q1) == 120

    def test_parser_built_on_first_run_only(self, tmp_path):
        # in a fresh interpreter: importing the CLI builds no parser, and
        # three runs build one (subparsers carry a longer prog)
        argv = ["potential", "--spin", "0", "--d", "1", "--out", str(tmp_path / "w.csv")]
        built = run_fresh(
            "import argparse, json\n"
            "progs = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    progs.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from relbosons import cli\n"
            "on_import = len(progs)\n"
            f"codes = [cli.run({argv!r}) for _ in range(3)]\n"
            "print(json.dumps([on_import, progs.count('relbosons'), codes]))")
        assert built == [0, 1, [0, 0, 0]]


def run_fresh(code: str):
    """JSON-decoded last stdout line of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
                           + code], capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code: str) -> set:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    return set(run_fresh(code + "\nimport json\nprint(json.dumps(sorted(\n"
                         "    m for m in sys.modules if m.split('.')[0] == 'scipy')))"))


class TestImports:
    """Each subcommand loads only the scipy modules on its own path."""

    def test_cli_import_loads_no_scipy(self):
        assert scipy_modules_after("import relbosons.cli\nrelbosons.cli.build_parser()") \
            == set()

    def test_potential_loads_no_scipy(self, tmp_path):
        argv = ["potential", "--spin", "0", "--d", "1", "--out", str(tmp_path / "w.csv")]
        assert scipy_modules_after(
            f"from relbosons.cli import run\nassert run({argv!r}) == 0") == set()

    def test_density_loads_only_fft(self, tmp_path):
        argv = ["density", "--rmax", "2", "--dr", "0.05", "--out", str(tmp_path / "rho.csv")]
        loaded = scipy_modules_after(f"from relbosons.cli import run\nassert run({argv!r}) == 0")
        assert "scipy.fft" in loaded
        assert not loaded & {"scipy.linalg", "scipy.optimize", "scipy.interpolate",
                             "scipy.integrate"}

    @pytest.mark.parametrize("argv", [
        ["gamma", "--spin", "0", "--d", "0,1,inf", "--out", "{tmp}/g.csv"],
        ["rayleigh", "--case", "trans-massless", "--out", "{tmp}/r.json"],
        ["verify"],
    ], ids=["gamma", "rayleigh-trans-massless", "verify"])
    def test_compute_paths_load_no_optimize_or_interpolate(self, argv, tmp_path):
        # the shooting root is numkernel.find_root and the transverse
        # balance rescales the grid, so neither module is on these paths;
        # QUADPACK serves only the pointwise references
        argv = [a.format(tmp=tmp_path) for a in argv]
        loaded = scipy_modules_after(
            "import contextlib, io\nfrom relbosons.cli import run\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert run({argv!r}) == 0")
        assert "scipy.linalg" in loaded
        assert not {m.split(".")[1] for m in loaded if "." in m} & {"optimize", "interpolate",
                                                                   "integrate"}

    def test_package_import_loads_nothing(self):
        # the package defines no names beyond its version; each caller
        # imports the submodule it uses, which the import system resolves
        loaded, public, cli_name = run_fresh(
            "import json, relbosons\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('relbosons.') or m.split('.')[0] == 'scipy')\n"
            "public = [n for n in dir(relbosons) if not n.startswith('_')]\n"
            "from relbosons import cli\n"
            "print(json.dumps([loaded, public, cli.__name__]))")
        assert loaded == [] and public == []
        assert cli_name == "relbosons.cli"
