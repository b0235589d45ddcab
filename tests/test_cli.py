"""Command-line contract: reproducible tables, config round trip, exits."""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab import cli, coherent, scott
from scottlab.numerics import Grid1D, fit_power_series
from scottlab.cli import (
    CONFIG_PREFIX,
    RunConfig,
    UsageError,
    config_from_args,
    main,
    read_config,
)


def run_to_file(argv, path):
    status = main(argv + ["--out", str(path)])
    return status, path.read_bytes()


class TestHydrogen:
    def test_prints_exact_sum(self, capsys):
        assert main(["hydrogen", "--z", "1", "--h", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "-70" in out
        assert out.startswith(CONFIG_PREFIX)

    def test_value_survives_text_round_trip(self, tmp_path):
        status, data = run_to_file(
            ["hydrogen", "--z", "1", "--h", "0.1"], tmp_path / "hy.csv"
        )
        assert status == 0
        last = data.decode().rstrip("\n").splitlines()[-1]
        z, h, total = last.split(",")
        assert float(total) == -70.0
        assert float(z) == 1.0 and float(h) == 0.1

    def test_expansion_metadata_uses_exact_fractions(self, tmp_path):
        path = tmp_path / "hy.csv"
        status, _ = run_to_file(
            ["hydrogen", "--z", "1", "--h", "0.1", "--k", "5"], path
        )
        assert status == 0
        sidecar = json.loads((tmp_path / "hy.csv.meta.json").read_text())
        exp = sidecar["meta"]["expansion"]
        assert exp["remainder"] == "5/6"
        assert exp["sum"] == "-70"
        assert exp["h"] == "1/10"


class TestWeyl:
    def test_reference_value_full_precision(self, tmp_path):
        path = tmp_path / "weyl.csv"
        status, data = run_to_file(
            ["weyl", "--n", "3", "--potential", "coulomb", "--z", "1",
             "--shift", "1", "--h", "1"],
            path,
        )
        assert status == 0
        value = float(data.decode().rstrip("\n").splitlines()[-1].split(",")[-1])
        assert value == pytest.approx(-1.0 / 12.0, abs=1e-6)
        # 17 significant digits wrote the double exactly
        assert format(value, ".17g") in data.decode()

    def test_the_well_takes_no_z_or_shift(self):
        # the well used to ignore both and echo them into its row and header
        argv = ["weyl", "--n", "1", "--potential", "well", "--h", "0.3"]
        for extra, name in ((["--shift", "5"], "shift"), (["--z", "7"], "z")):
            status, out, err = run_captured(argv + extra)
            assert (status, out) == (2, "")
            assert err == f"scottlab: usage error: the well takes no {name}\n"
        status, out, _ = run_captured(argv)
        assert status == 0
        assert '"z"' not in out.splitlines()[0] and '"shift"' not in out.splitlines()[0]
        assert out.splitlines()[3:] == ["n,h,weyl", "1,0.29999999999999999,-0.64672484811944764"]

    def test_coulomb_fills_z_and_shift(self):
        # 1.0 unless given, on the command line and in a replayed config,
        # without touching the caller's map
        assert config_from_args(["weyl"]).parameters["z"] == 1.0
        given = {"n": 3, "potential": "coulomb", "h": 1.0, "shift": 0.5}
        config = RunConfig("weyl", given)
        assert (config.parameters["z"], config.parameters["shift"]) == (1.0, 0.5)
        assert "z" not in given

    def test_divergent_integral_is_a_solver_failure(self, tmp_path, capsys):
        # 1D Coulomb: |V_-|^(3/2) is not integrable at the origin
        status = main(
            ["weyl", "--n", "1", "--potential", "coulomb", "--shift", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert status == 1
        assert "failed" in capsys.readouterr().err


class TestDeterminism:
    def test_csv_identical_across_three_runs(self, tmp_path):
        path = tmp_path / "out.csv"
        argv = ["weyl", "--n", "3", "--potential", "coulomb", "--z", "2",
                "--shift", "1", "--h", "0.5"]
        blobs = {run_to_file(argv, path)[1] for _ in range(3)}
        assert len(blobs) == 1

    def test_line_endings_are_bare_lf(self, tmp_path):
        _, data = run_to_file(
            ["hydrogen", "--z", "1", "--h", "0.1"], tmp_path / "o.csv"
        )
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestConfigRoundTrip:
    def test_header_line_parses_back(self):
        cfg = RunConfig(
            command="hydrogen",
            parameters={"z": 1.0, "h": 0.1, "strict": False},
            output_path="table.csv",
            format="csv",
        )
        again = RunConfig.from_header_line(cfg.to_header_line())
        assert again == cfg

    def test_written_file_reproduces_config(self, tmp_path):
        path = tmp_path / "w.csv"
        argv = ["weyl", "--n", "1", "--potential", "well", "--h", "0.5",
                "--out", str(path)]
        assert main(argv) == 0
        cfg = read_config(str(path))
        assert cfg.command == "weyl"
        assert cfg.parameters["potential"] == "well"
        # the recovered config is the one the command line parsed to
        assert cfg == config_from_args(argv)

    def test_json_document_round_trips(self, tmp_path):
        path = tmp_path / "w.json"
        argv = ["weyl", "--h", "1", "--format", "json", "--out", str(path)]
        assert main(argv) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"config_header", "columns", "rows", "meta", "warnings"}
        assert doc["columns"] == ["n", "z", "shift", "h", "weyl"]
        assert doc["rows"][0][-1] == pytest.approx(-1.0 / 12.0, abs=1e-6)
        cfg = read_config(str(path))
        assert cfg.format == "json"

    def test_rejects_foreign_header(self):
        with pytest.raises(UsageError, match="config header"):
            RunConfig.from_header_line("# something else")


class TestValidation:
    def test_parser_offers_exactly_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().out

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_increasing_h_sequence_exits_two(self, capsys):
        assert main(["scott", "--z", "1", "--h", "0.05,0.12"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_nonnumeric_h_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scott", "--z", "1", "--h", "abc"])
        assert exc.value.code == 2
        assert "argument --h: invalid _floats value: 'abc'" in capsys.readouterr().err

    def test_bad_a_rule_exits_two(self, capsys):
        status = main(["coherent-check", "--h", "0.4", "--a-rule", "bogus^2"])
        assert status == 2
        assert "a-rule" in capsys.readouterr().err

    def test_config_class_rejects_bad_fields(self):
        with pytest.raises(UsageError, match="unknown command"):
            RunConfig(command="nope", parameters={})
        with pytest.raises(UsageError, match="unknown format"):
            RunConfig(command="hydrogen", parameters={}, format="xml")
        with pytest.raises(UsageError, match="strictly decreasing"):
            RunConfig(
                command="scott",
                parameters={"h_values": (0.05, 0.12)},
            )


class TestStrictMode:
    def test_narrow_fit_range_warns_and_strict_fails(self, tmp_path, capsys):
        # h spanning less than a factor 2 leaves the power fit
        # ill-conditioned; the pipeline records the warning
        argv = ["local-trace", "--n", "1", "--potential", "well",
                "--h", "0.4,0.3", "--bump-radius", "2.5"]
        path = tmp_path / "lt.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert "factor 2" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "lt.csv.meta.json").read_text())
        assert any("factor 2" in w for w in sidecar["warnings"])

        strict_path = tmp_path / "lt2.csv"
        assert main(argv + ["--strict", "--out", str(strict_path)]) == 1
        assert "warning: h range spans less than a factor 2" in capsys.readouterr().err
        # the table is still written for inspection
        assert strict_path.exists()

    def test_exact_fit_warns_and_strict_fails(self, tmp_path, capsys):
        # two h values a factor 2.4 apart for two exponents: a fit with no
        # residual and no leave-one-out range, which used to pass --strict
        argv = ["scott", "--z", "1", "--h", "0.12,0.05", "--strict"]
        assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "scottlab: warning: exact fit: as many rows as exponents (2), so no "
            "residual and no leave-one-out range"
        ]
        assert main(argv[:-1] + ["--out", str(tmp_path / "s2.csv")]) == 0

    def test_clean_run_passes_strict(self, tmp_path):
        argv = ["hydrogen", "--z", "1", "--h", "0.1", "--strict"]
        assert main(argv + ["--out", str(tmp_path / "h.csv")]) == 0


class TestScottCommand:
    def test_fit_spread_in_metadata_without_sub_fit_warnings(
        self, tmp_path, monkeypatch, scott_z1
    ):
        # the acceptance sweep from the shared fixture; the fit that leaves
        # out h = 0.05 spans only 0.12/0.07 < 2, and its warning must not
        # reach the run's warnings or --strict
        monkeypatch.setattr(scott, "scott_experiment_tf", lambda *a, **k: scott_z1)
        argv = ["scott", "--z", "1", "--h", "0.12,0.09,0.07,0.05", "--strict"]
        status, _ = run_to_file(argv, tmp_path / "s.csv")
        assert status == 0
        sidecar = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert sidecar["warnings"] == []
        (scott_range, h_inverse_range), shift = scott_z1.spread()
        spread = {
            "scott_leave_one_out": scott_range,
            "scott_constant_shift": shift,
            "h_inverse_leave_one_out": h_inverse_range,
        }
        assert {key: sidecar["meta"][key] for key in spread} == spread
        assert sidecar["meta"]["per_h"] == list(scott_z1.per_h)


class TestTfAtomCommand:
    def test_tables_and_metadata(self, tmp_path):
        path = tmp_path / "tf.csv"
        status, data = run_to_file(["tf-atom", "--z", "1"], path)
        assert status == 0
        text = data.decode()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "r,v_tf,rho_tf"
        sidecar = json.loads((tmp_path / "tf.csv.meta.json").read_text())
        meta = sidecar["meta"]
        assert meta["initial_slope"] == pytest.approx(-1.588071, abs=1e-4)
        assert meta["E_TF"] == pytest.approx(-0.7687, rel=1e-3)


class TestLocalTraceCommand:
    def test_radial_grid_off_a_whole_step_count(self, tmp_path):
        # r_max = 1.625 is 32.5 steps of h/8 = 0.05: the grid takes 33 steps
        # of at most h/8, where 32 exceeded it and the run exited 1
        argv = ["local-trace", "--n", "3", "--potential", "coulomb",
                "--bump-center", "1", "--bump-radius", "0.5", "--h", "0.4,0.2"]
        status, data = run_to_file(argv, tmp_path / "lt.csv")
        assert status == 0
        assert len(data.decode().splitlines()) == 4 + 2
        # both quantum sums are 0 (the shift empties the bump), so both rows
        # leave the fit and none is written; --strict would exit 1
        sidecar = json.loads((tmp_path / "lt.csv.meta.json").read_text())
        assert sidecar["meta"]["fit"] is None
        assert [row["h"] for row in sidecar["meta"]["left_out_of_fit"]] == [0.4, 0.2]
        assert any(w.startswith("no fit: 2 of 2 rows") for w in sidecar["warnings"])

    def test_zero_quantum_row_is_left_out_of_the_fit(self, tmp_path):
        # the default well has no negative eigenvalue under the bump at
        # h = 0.4; the fit takes h = 0.3 and 0.2 only
        status, data = run_to_file(["local-trace", "--h", "0.4,0.3,0.2"],
                                   tmp_path / "lt.csv")
        assert status == 0
        meta = json.loads((tmp_path / "lt.csv.meta.json").read_text())["meta"]
        [row] = meta["left_out_of_fit"]
        assert row["h"] == 0.4 and row["reason"].startswith("quantum sum is 0")
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), map(float, l.split(","))))
                for l in lines[1:]]
        assert [r["h"] for r in rows] == [0.4, 0.3, 0.2] and rows[0]["quantum"] == 0.0
        fit = fit_power_series(
            [0.3, 0.2], [abs(r["residual"]) for r in rows[1:]], (6.0 / 5.0 - 3,)
        )
        assert meta["fit"]["coefficients"] == list(fit.coefficients)

    def test_empty_quantum_side_warns(self, tmp_path, capsys):
        # -1/r + 1 has no negative eigenvalue under this bump at either h, so
        # the residual is the Weyl term alone: a warning per h, not a silent 0
        argv = ["local-trace", "--n", "3", "--potential", "coulomb",
                "--bump-center", "1", "--bump-radius", "0.5", "--h", "0.4,0.2",
                "--strict"]
        status, data = run_to_file(argv, tmp_path / "lt.csv")
        assert status == 1
        rows = [l for l in data.decode().splitlines() if not l.startswith("#")]
        assert [float(row.split(",")[1]) for row in rows[1:]] == [0.0, 0.0]
        warnings = json.loads((tmp_path / "lt.csv.meta.json").read_text())["warnings"]
        err = capsys.readouterr().err
        for h in ("0.4", "0.2"):
            [message] = [w for w in warnings if f"quantum sum is 0 at h = {h} " in w]
            assert f"scottlab: warning: {message}\n" in err

    def test_empty_weyl_side_warns(self, tmp_path, capsys):
        # the well is 0 on the bump's support [4, 6], so both sides are 0;
        # the Weyl integral says which sampling it read as empty
        argv = ["local-trace", "--n", "1", "--potential", "well",
                "--bump-center", "5", "--bump-radius", "1", "--h", "0.4,0.2",
                "--strict"]
        status, data = run_to_file(argv, tmp_path / "lt.csv")
        assert status == 1
        rows = [l for l in data.decode().splitlines() if not l.startswith("#")]
        assert [float(row.split(",")[2]) for row in rows[1:]] == [0.0, 0.0]
        warnings = json.loads((tmp_path / "lt.csv.meta.json").read_text())["warnings"]
        [message] = [w for w in warnings if "Weyl position integral" in w]
        assert "the bump's cuts 4, 4.5, 5.5, 6" in message
        assert f"scottlab: warning: {message}\n" in capsys.readouterr().err


class TestCoherentCheckCommand:
    def test_single_h_row(self, tmp_path):
        path = tmp_path / "cc.csv"
        status, data = run_to_file(["coherent-check", "--h", "0.4"], path)
        assert status == 0
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        assert lines[0] == (
            "h,a,b,weight_dev,resolution_dev,cancellation,"
            "representation_err,err_over_h2b"
        )
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert row["h"] == 0.4
        assert row["a"] == pytest.approx(0.4**-0.8)
        assert row["weight_dev"] < 1e-8
        assert row["resolution_dev"] < 1e-6
        assert abs(row["cancellation"]) < 1e-8
        assert row["err_over_h2b"] == pytest.approx(
            1.0 + (row["h"] * row["a"]) ** 2, rel=0.05
        )
        # the problem sizes are deterministic counts of the h = 0.4 rule
        meta = json.loads((tmp_path / "cc.csv.meta.json").read_text())["meta"]
        assert meta["problem_sizes"] == [{
            "h": 0.4,
            "representation_grid_points": 121,
            "representation_core_points": 17,
            "representation_u_nodes": 60,
            "representation_factor_rank": 18,
            "resolution_grid_points": 211,
            "resolution_q_nodes": 671,
        }]

    def test_resolution_grid_resolves_a_near_h(self, tmp_path, monkeypatch):
        # at a = h the default spacing min(h, 1/sqrt(b))/6 is 0.37 h sqrt(2a),
        # where the deviation is 0.04; the resolution grid is refined to
        # 0.25 h sqrt(2a), and the old grid warns.  The representation check
        # is slow at small a and not measured here.
        monkeypatch.setattr(coherent, "representation_error_norm", lambda *a: 0.5)
        path = tmp_path / "cc.csv"
        status, data = run_to_file(
            ["coherent-check", "--h", "0.1", "--a-rule", "0.1"], path
        )
        assert status == 0
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert row["resolution_dev"] < 1e-10
        sidecar = json.loads((tmp_path / "cc.csv.meta.json").read_text())
        assert sidecar["warnings"] == []
        [sizes] = sidecar["meta"]["problem_sizes"]
        p = coherent.CoherentParams(h=0.1, a=0.1)
        assert 14.0 / (sizes["resolution_grid_points"] - 1) <= (
            0.25 * p.h * math.sqrt(2.0 * p.a)
        )
        old = Grid1D.uniform(-7.0, 7.0, int(round(14.0 / (0.1 / 6.0))) + 1)
        psi = np.exp(-old.points**2 / 2.0)
        with pytest.warns(UserWarning, match=r"exceeds 0\.25 h sqrt\(2a\); resol"):
            deviation = coherent.resolution_of_identity_check(p, psi, old)
        assert deviation > 0.01

    def test_weight_dev_matches_the_two_dimensional_sum(self, tmp_path):
        # the pipeline sums w(u, q) as two 1D sums; the oracle sums all
        # 801 x 801 nodes of the same span
        path = tmp_path / "cc.csv"
        status, data = run_to_file(
            ["coherent-check", "--h", "0.6,0.4,0.25,0.1"], path
        )
        assert status == 0
        lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), map(float, l.split(","))))
                for l in lines[1:]]
        assert [row["h"] for row in rows] == [0.6, 0.4, 0.25, 0.1]
        for row in rows:
            p = coherent.CoherentParams(h=row["h"], a=row["h"] ** -0.8)
            span = 9.0 / math.sqrt(2.0 * p.a / (1.0 - p.h * p.a))
            t = np.linspace(-span, span, 801)
            uu, qq = np.meshgrid(t, t, indexing="ij")
            step = t[1] - t[0]
            oracle = float(np.sum(coherent.weight_w(p, uu, qq)) * step * step - 1.0)
            assert abs(row["weight_dev"] - oracle) <= 1e-13

    def test_grid_widens_past_the_edge_margin(self, tmp_path):
        # half-width 4 leaves h = 0.99 no core window past the edge margin
        # 6 h sqrt(a); every h above about 0.41 gets that reach plus 0.5
        # instead, which keeps h = 0.7 and 0.5 close to a half-width-10 run
        runs = []
        for name, extra in (("w.csv", []), ("wide.csv", ["--half-width", "10"])):
            path = tmp_path / name
            argv = ["coherent-check", "--h", "0.99,0.7,0.5", *extra]
            status, data = run_to_file(argv, path)
            assert status == 0
            lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
            meta = json.loads(path.with_name(name + ".meta.json").read_text())
            runs.append((
                [dict(zip(lines[0].split(","), map(float, l.split(","))))
                 for l in lines[1:]],
                meta["meta"]["problem_sizes"],
            ))
        (widened, sizes), (wide, _) = runs
        for row, size in zip(widened, sizes):
            h = row["h"]
            width = 6.0 * h * math.sqrt(row["a"]) + 0.5
            dx = min(h, 1.0 / math.sqrt(row["b"])) / 6.0
            assert width > 4.0
            points = int(round(2.0 * width / dx)) + 1
            assert size["representation_grid_points"] == points
        assert widened[1]["representation_err"] == pytest.approx(
            wide[1]["representation_err"], rel=1e-8
        )
        assert widened[2]["representation_err"] == pytest.approx(
            wide[2]["representation_err"], abs=1e-3
        )


# numbers for the input-boundary properties: an in-domain band kept small
# enough that every command finishes quickly, and the values that are out of
# domain for a positive parameter (zero of both signs, negatives, NaN, +-inf)
IN_DOMAIN = st.floats(0.05, 10.0)
OUT_OF_DOMAIN = st.one_of(
    st.floats(-10.0, 0.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
ANY_VALUE = st.one_of(IN_DOMAIN, OUT_OF_DOMAIN)


def positive(value):
    return math.isfinite(value) and value > 0


# complete parameter maps, each a minimal command line with every default
# the parser fills, to vary one parameter at a time
BASE = {
    "hydrogen": config_from_args(["hydrogen", "--z", "1", "--h", "0.1"]).parameters,
    "weyl": config_from_args(["weyl"]).parameters,
    "tf-atom": config_from_args(["tf-atom", "--z", "8"]).parameters,
    "scott": config_from_args(["scott", "--z", "1", "--h", "0.2,0.1"]).parameters,
    "local-trace": config_from_args(["local-trace", "--h", "0.4,0.3"]).parameters,
    "coherent-check": config_from_args(["coherent-check", "--h", "0.4"]).parameters,
}


def case_id(command, key, value):
    """A parametrized case's own id, so removing one case renames no other."""
    return f"{command}-{key}={value!r}"


# (command, key, value): BASE[command] with key set to a value out of range
RANGE_CASES = [
    ("scott", "h_values", (0.1,)),
    ("scott", "spacing_scale", 1.5),
    ("scott", "spacing_scale", 0.0),
    ("scott", "x_max", 0.0),
    ("local-trace", "h_values", (0.4,)),
    ("local-trace", "bump_radius", -2.0),
    ("hydrogen", "k", 0),
    ("coherent-check", "a_rule", "3"),
    ("coherent-check", "half_width", 0.0),
    ("weyl", "shift", math.inf),
    ("weyl", "n", 2),
    ("coherent-check", "a_rule", 0.5),
]

# (command, valid parameters, key, value of the wrong type for key)
NON_NUMBER_CASES = [
    ("tf-atom", BASE["tf-atom"], "z", "8"),
    ("hydrogen", BASE["hydrogen"], "h", "0.1"),
    ("hydrogen", {**BASE["hydrogen"], "k": 5}, "k", "5"),
    ("scott", BASE["scott"], "h_values", ("0.2", "0.1")),
    ("scott", BASE["scott"], "h_values", 0.2),
    ("scott", BASE["scott"], "x_max", "15"),
    ("scott", BASE["scott"], "spacing_scale", None),
    ("weyl", BASE["weyl"], "n", "3"),
    ("weyl", BASE["weyl"], "shift", True),
    ("local-trace", BASE["local-trace"], "bump_center", "0"),
    ("local-trace", BASE["local-trace"], "bump_radius", [2.0]),
    ("coherent-check", BASE["coherent-check"], "half_width", "4"),
]


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


class TestInputBoundary:
    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["hydrogen", "weyl"]), z=ANY_VALUE, h=ANY_VALUE)
    def test_exit_two_exactly_when_out_of_domain(self, command, z, h):
        # --flag=value keeps argparse from reading "-inf" as an option
        status, out, err = run_captured([command, f"--z={z!r}", f"--h={h!r}"])
        assert status == (0 if positive(z) and positive(h) else 2)
        if status == 2:
            assert out == ""
        assert "nan" not in (out + err).lower()

    @settings(max_examples=60, deadline=None)
    @given(z=ANY_VALUE, h1=ANY_VALUE, h2=ANY_VALUE)
    def test_scott_domain(self, z, h1, h2):
        params = {**BASE["scott"], "z": z, "h_values": (h1, h2)}
        if positive(z) and positive(h1) and positive(h2) and h2 < h1:
            RunConfig(command="scott", parameters=params)
        else:
            with pytest.raises(UsageError):
                RunConfig(command="scott", parameters=params)

    @settings(max_examples=30, deadline=None)
    @given(z=ANY_VALUE)
    def test_tf_atom_domain(self, z):
        if positive(z):
            RunConfig(command="tf-atom", parameters={"z": z})
        else:
            with pytest.raises(UsageError):
                RunConfig(command="tf-atom", parameters={"z": z})

    @settings(max_examples=40, deadline=None)
    @given(h=st.one_of(st.floats(0.05, 0.95), st.floats(1.0, 10.0), OUT_OF_DOMAIN))
    def test_coherent_check_domain(self, h):
        # the default rule a = h^-0.8 lies below 1/h exactly when h < 1; the
        # grid of each such h widens past the edge margin 6 h sqrt(a), so a
        # core window is left whatever the half-width
        params = {**BASE["coherent-check"], "h_values": (h,)}
        if positive(h) and h < 1.0:
            RunConfig(command="coherent-check", parameters=params)
        else:
            with pytest.raises(UsageError):
                RunConfig(command="coherent-check", parameters=params)

    @pytest.mark.parametrize(
        "command, key, value", RANGE_CASES, ids=[case_id(*c) for c in RANGE_CASES]
    )
    def test_range_rules(self, command, key, value):
        with pytest.raises(UsageError):
            RunConfig(command=command, parameters={**BASE[command], key: value})

    @pytest.mark.parametrize(
        "argv",
        [
            ["tf-atom", "--z", "-1"],
            ["weyl", "--h", "0"],
            ["scott", "--z", "1", "--h", "0.1"],
            ["coherent-check", "--h", "2"],
            ["weyl", "--z", "nan", "--h", "1"],
            ["weyl", "--h", "nan"],
            ["weyl", "--h", "inf"],
        ],
    )
    def test_domain_errors_exit_two_before_any_output(self, argv):
        status, out, err = run_captured(argv)
        assert status == 2
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--h", "200", "--a-rule", "0.0025"],
             "half-width 7 gives a 6-point grid at h = 200; "
             "a grid needs at least 8 points"),
            # a = 0.001 at h = 100 puts the resolution grid's spacing bound
            # 0.25 h sqrt(2a) below its min(h, 1/sqrt(b))/6, so that grid
            # gets 14 points and the representation grid's margin fails
            (["--h", "100", "--a-rule", "0.001"],
             "grid at h = 100, a = 0.001, half-width 19.4737: grid too short "
             "for the edge margin"),
            (["--h", "10", "--a-rule", "0.01"],
             "grid at h = 10, a = 0.01, half-width 6.5: grid too short "
             "for the edge margin"),
            (["--h", "0.5", "--a-rule", "0.01"],
             "grid at h = 0.5, a = 0.01, half-width 4: grid spacing too coarse"),
            (["--h", "0.3", "--half-width", "1e308"],
             "half-width 1e+308 at h = 0.3 gives more grid points than a float"),
            (["--h", "0.4", "--half-width", "1e300"],
             f"half-width 1e+300 gives more than {cli.MAX_GRID_POINTS} grid "
             "points at h = 0.4"),
            # dx = 0.0667 at h = 0.4: 2 * 167 / dx + 1 = 5011 points
            (["--h", "0.4", "--half-width", "167"],
             f"half-width 167 gives more than {cli.MAX_GRID_POINTS} grid points"),
        ],
    )
    def test_coherent_check_grid_errors_exit_two(self, argv, message, monkeypatch):
        # the grid each h gets follows from the input alone, so a grid that
        # the pipeline cannot build is a domain error, raised before any check
        def no_check(*args):
            pytest.fail("a check started")

        for name in ("resolution_of_identity_check", "representation_error_norm"):
            monkeypatch.setattr(coherent, name, no_check)
        status, out, err = run_captured(["coherent-check", *argv])
        assert status == 2
        assert out == ""
        assert f"scottlab: usage error: {message}" in err


    def test_grid_just_under_the_point_limit_is_accepted(self):
        # half-width 166 at h = 0.4 counts 4981 points, and only counts them
        params = {"a_rule": "h^-0.8", "half_width": 166.0, "h_values": [0.4]}
        [(_, _, n, _, r_n)] = cli._coherent_cases(params)
        assert r_n == n == 4981 <= cli.MAX_GRID_POINTS
    @pytest.mark.parametrize(
        "command, parameters, key, bad",
        NON_NUMBER_CASES,
        ids=[case_id(command, key, bad) for command, _, key, bad in NON_NUMBER_CASES],
    )
    def test_non_numbers_rejected(self, command, parameters, key, bad):
        RunConfig(command=command, parameters=parameters)
        with pytest.raises(UsageError, match=key):
            RunConfig(command=command, parameters={**parameters, key: bad})

    def test_replayed_string_number_is_a_usage_error(self, tmp_path):
        # a hand-edited header with "z": "8" is a usage error, not a solver
        # failure of the pipeline
        path = tmp_path / "tf.csv"
        doc = {"command": "tf-atom", "parameters": {"z": "8", "strict": False},
               "output_path": None, "format": "csv"}
        path.write_text(CONFIG_PREFIX + json.dumps(doc) + "\n")
        with pytest.raises(UsageError, match="z must be a number"):
            read_config(str(path))

    @pytest.mark.parametrize(
        "command, key",
        [("weyl", "n"), ("coherent-check", "h_values"), ("scott", "z")],
    )
    def test_missing_parameter_is_a_usage_error(self, command, key):
        params = {k: v for k, v in BASE[command].items() if k != key}
        with pytest.raises(UsageError, match=f"lacks {key}"):
            RunConfig(command=command, parameters=params)

    def test_replayed_header_without_a_filled_parameter(self, tmp_path):
        # a weyl header without "n" used to reach the pipeline and fail
        # there as a solver failure (exit 1)
        path = tmp_path / "w.csv"
        assert main(["weyl", "--out", str(path)]) == 0
        doc = json.loads(path.read_text().splitlines()[0][len(CONFIG_PREFIX):])
        del doc["parameters"]["n"]
        path.write_text(CONFIG_PREFIX + json.dumps(doc) + "\n")
        with pytest.raises(UsageError, match="lacks n"):
            read_config(str(path))

    @pytest.mark.parametrize(
        "argv, key, value, message",
        [
            (["hydrogen", "--z", "1", "--h", "0.1", "--k", "5"], "k", 2.5,
             "k must be an integer, got 2.5"),
            (["local-trace", "--n", "1", "--h", "0.4,0.3"], "strict", "no",
             "strict must be true or false, got 'no'"),
            (["weyl"], "potential", "foo", "potential must be coulomb or well"),
            (["weyl"], "output_path", 1, "output path must be a string or null, got 1"),
        ],
        ids=["int-k", "bool-strict", "potential-choice", "output-path"],
    )
    def test_replayed_config_gets_the_command_line_checks(
        self, tmp_path, argv, key, value, message
    ):
        # each passed read_config: k = 2.5 ran as K = 2, "strict": "no" turned
        # strict mode on, "foo" failed only in the pipeline, and output path 1
        # wrote to file descriptor 1 and ended in a TypeError traceback
        doc = json.loads(config_from_args(argv).to_header_line()[len(CONFIG_PREFIX):])
        (doc if key == "output_path" else doc["parameters"])[key] = value
        path = tmp_path / "o.csv"
        path.write_text(CONFIG_PREFIX + json.dumps(doc) + "\n")
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            read_config(str(path))

    @pytest.mark.parametrize(
        "argv",
        [["weyl", "--potential", "well"], ["local-trace", "--h", "0.4,0.3"]],
        ids=["weyl", "local-trace"],
    )
    def test_replayed_well_header_with_z_and_shift(self, tmp_path, argv):
        # as files written before the well lost the two parameters hold them
        doc = json.loads(config_from_args(argv).to_header_line()[len(CONFIG_PREFIX):])
        doc["parameters"].update(z=1.0, shift=1.0)
        path = tmp_path / "o.csv"
        path.write_text(CONFIG_PREFIX + json.dumps(doc) + "\n")
        with pytest.raises(UsageError, match="^the well takes no shift or z$"):
            read_config(str(path))

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["hydrogen", "--z", "1", "--h", "0.1"], "bogus"),
            (["scott", "--z", "1", "--h", "0.2,0.1"], "x_mx"),
            (["scott", "--z", "1", "--h", "0.2,0.1"], "extra_channels"),
            (["local-trace", "--h", "0.4,0.3"], "bump_order"),
        ],
    )
    def test_replayed_header_with_an_unknown_parameter(self, tmp_path, argv, key):
        # a typo, or a parameter the command no longer takes, used to be
        # accepted and silently ignored by the pipeline
        path = tmp_path / "o.csv"
        doc = json.loads(config_from_args(argv).to_header_line()[len(CONFIG_PREFIX):])
        doc["parameters"][key] = 3
        path.write_text(CONFIG_PREFIX + json.dumps(doc) + "\n")
        with pytest.raises(UsageError, match=f"^{argv[0]} takes no parameter {key}$"):
            read_config(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]

    @pytest.mark.parametrize(
        "options",
        [["--bump-center", "-5"], ["--bump-center", "-2.4", "--potential", "coulomb"]],
    )
    def test_radial_bump_off_the_half_line_exits_two_without_a_file(
        self, tmp_path, options
    ):
        # these used to exit 1 with "need hi > lo", or 0 with rows of zeros
        argv = ["local-trace", "--n", "3", "--h", "0.4,0.3", *options]
        status, out, err = run_captured(argv + ["--out", str(tmp_path / "o.csv")])
        assert status == 2
        assert out == ""
        assert "must reach some radius r > 0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, admissible",
        [
            (["tf-atom", "--z", "1e132"], "outside [1e-130, 1e+131]"),
            (["tf-atom", "--z", "1e-131"], "outside [1e-130, 1e+131]"),
            (["tf-atom", "--z", "1e300"], "outside [1e-130, 1e+131]"),
            (["tf-atom", "--z", "1e-300"], "outside [1e-130, 1e+131]"),
            (["scott", "--z", "1e300", "--h", "0.2,0.1"], "outside [1e-130, 1e+131]"),
            (["scott", "--z", "1e-300", "--h", "0.2,0.1"], "outside [1e-130, 1e+131]"),
            (["hydrogen", "--z", "1e300", "--h", "0.1", "--k", "2"],
             "at h = 0.1 lies outside 0 < z <= 2h x 5.6438e+102"),
        ],
    )
    def test_charge_out_of_range_exits_two_without_a_file(
        self, tmp_path, argv, admissible
    ):
        # these used to exit 0 with an infinite or NaN energy in the file,
        # or 1 with an overflow or an empty-density message
        status, out, err = run_captured(argv + ["--out", str(tmp_path / "o.csv")])
        assert status == 2
        assert out == ""
        assert f"scottlab: usage error: z = {float(argv[2])!r} " in err
        assert admissible in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("z", ["1e131", "1e-130"])
    def test_charges_inside_the_range_run(self, tmp_path, z):
        path = tmp_path / "tf.csv"
        status, data = run_to_file(["tf-atom", "--z", z], path)
        assert status == 0
        for text in (data.decode(), (tmp_path / "tf.csv.meta.json").read_text()):
            assert "NaN" not in text and "Infinity" not in text
        rows = [line for line in data.decode().splitlines() if not line.startswith("#")]
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["meta", "row"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_non_finite_result_is_a_solver_failure_without_output(
        self, monkeypatch, tmp_path, fmt, bad, where, to_file
    ):
        def pipeline(params):
            row, meta = [params["z"], 2.0], {"value": 1.0}
            if where == "meta":
                meta["value"] = bad
            else:
                row[1] = bad
            return ["z", "value"], [row], meta

        entry = cli._COMMAND_TABLE["hydrogen"]._replace(pipeline=pipeline)
        monkeypatch.setitem(cli._COMMAND_TABLE, "hydrogen", entry)
        argv = ["hydrogen", "--z", "1", "--h", "0.1", "--format", fmt]
        if to_file:
            argv += ["--out", str(tmp_path / "o.csv")]
        status, out, err = run_captured(argv)
        assert status == 1
        assert out == ""
        assert "scottlab: hydrogen failed:" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["scott", "--z", "1", "--h", "0.12,0.09"], ["coherent-check", "--h", "0.4"]],
        ids=["scott", "coherent-check"],
    )
    def test_missing_output_directory_is_a_usage_error_before_any_work(
        self, monkeypatch, tmp_path, argv
    ):
        def pipeline(params):
            raise AssertionError("the pipeline ran")

        entry = cli._COMMAND_TABLE[argv[0]]._replace(pipeline=pipeline)
        monkeypatch.setitem(cli._COMMAND_TABLE, argv[0], entry)
        out_path = tmp_path / "missing" / "o.csv"
        status, out, err = run_captured(argv + ["--out", str(out_path)])
        assert status == 2
        assert out == ""
        assert err == (
            f"scottlab: usage error: output directory "
            f"{str(out_path.parent)!r} does not exist\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("directory", ["o.csv", "o.csv.meta.json"])
    @pytest.mark.parametrize(
        "argv",
        [["weyl"], ["scott", "--z", "1", "--h", "0.12,0.09"]],
        ids=["weyl", "scott"],
    )
    def test_directory_as_output_path_is_a_usage_error_before_any_work(
        self, monkeypatch, tmp_path, argv, directory
    ):
        # the table or its sidecar would land on a directory
        def pipeline(params):
            raise AssertionError("the pipeline ran")

        entry = cli._COMMAND_TABLE[argv[0]]._replace(pipeline=pipeline)
        monkeypatch.setitem(cli._COMMAND_TABLE, argv[0], entry)
        (tmp_path / directory).mkdir()
        status, out, err = run_captured(argv + ["--out", str(tmp_path / "o.csv")])
        assert status == 2
        assert out == ""
        assert err == (
            f"scottlab: usage error: output path "
            f"{str(tmp_path / directory)!r} is a directory\n"
        )
        assert list(tmp_path.iterdir()) == [tmp_path / directory]
        assert list((tmp_path / directory).iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coherent-check", "--h", "0.2,0.3"], "h values are not strictly decreasing"),
            (["scott", "--z", "1", "--h", "0.1"], "a fitted sweep needs at least 2 h values"),
        ],
        ids=["coherent-check-increasing", "scott-single"],
    )
    def test_h_list_error_names_the_fault(self, argv, message):
        # coherent-check fits nothing, and a single h is decreasing
        assert run_captured(argv) == (2, "", f"scottlab: usage error: {message}\n")

    def test_header_is_strict_json(self):
        cfg = RunConfig(command="hydrogen", parameters={"z": 1.0, "h": 0.1})
        # a NaN slipped into the mutable parameter map after validation
        # must not reach a header as a bare NaN token
        cfg.parameters["z"] = math.nan
        with pytest.raises(ValueError):
            cfg.to_header_line()


def test_readme_examples_parse():
    # every example command line in README.md parses and passes RunConfig's
    # checks, and each command has one; the shell loop line starts with "for"
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [l for l in readme.read_text().splitlines() if l.startswith("scottlab ")]
    configs = [config_from_args(shlex.split(line)[1:]) for line in lines]
    assert {cfg.command for cfg in configs} == set(cli.COMMANDS)


# one command line per subcommand, each with the parameter keys it must give
ROUND_TRIPS = [
    (["hydrogen", "--z", "1", "--h", "0.1", "--k", "5"], {"z", "h", "k"}),
    (["weyl", "--n", "1", "--potential", "well", "--h", "0.5"],
     {"n", "potential", "h"}),
    (["tf-atom", "--z", "8", "--format", "json"], {"z"}),
    (["scott", "--z", "1", "--h", "0.12,0.09", "--spacing-scale", "0.5",
      "--strict"],
     {"z", "h_values", "x_max", "spacing_scale"}),
    (["local-trace", "--h", "0.4,0.3", "--bump-radius", "1.5", "--out", "lt.csv"],
     {"h_values", "n", "potential", "bump_center", "bump_radius"}),
    (["coherent-check", "--h", "0.4,0.25", "--a-rule", "h^-0.7"],
     {"h_values", "a_rule", "half_width"}),
]


@pytest.mark.parametrize("argv, keys", ROUND_TRIPS, ids=[a[0] for a, _ in ROUND_TRIPS])
def test_argv_round_trip(argv, keys):
    cfg = config_from_args(argv)
    assert set(cfg.parameters) == keys | {"strict"}
    assert RunConfig.from_header_line(cfg.to_header_line()) == cfg


# ---------------------------------------------------------------------------
# every option matters or is rejected, generated from cli._COMMAND_TABLE

# per command, base command lines on the coarse end of the README examples'
# h sets; weyl and local-trace run on both potentials, since z and shift
# must be rejected with the well and matter with the Coulomb potential
ORACLE_BASES = {
    "hydrogen": [["--z", "1", "--h", "0.1"]],
    "weyl": [[], ["--n", "1", "--potential", "well", "--h", "0.3"]],
    "tf-atom": [["--z", "8"]],
    "scott": [["--z", "1", "--h", "0.12,0.09"]],
    "local-trace": [
        ["--n", "1", "--h", "0.4,0.3", "--potential", "well"],
        ["--n", "3", "--potential", "coulomb", "--bump-center", "1",
         "--bump-radius", "0.5", "--h", "0.4,0.2"],
    ],
    "coherent-check": [["--h", "0.4"]],
}
# two in-domain values per option key, or per (command, key)
ORACLE_PAIRS = {
    "z": (1.0, 2.0),
    "h": (0.1, 0.2),
    "k": (2, 3),
    "n": (1, 3),
    "potential": ("coulomb", "well"),
    "shift": (0.5, 1.0),
    "x_max": (10.0, 15.0),
    "spacing_scale": (0.8, 1.0),
    "bump_center": (0.5, 1.0),
    "bump_radius": (0.5, 0.75),
    "a_rule": ("h^-0.8", "h^-0.7"),
    "half_width": (4.0, 5.0),
    "strict": (False, True),
    ("scott", "h_values"): ((0.12, 0.09), (0.12, 0.1)),
    ("local-trace", "h_values"): ((0.4, 0.3), (0.4, 0.2)),
    ("coherent-check", "h_values"): ((0.4,), (0.5,)),
}
# options whose two values may give the same output, with the reason
KNOWN_NO_OPS = {"strict": "it shapes only the exit status"}
ORACLE_POOL = (0, -1, math.nan, math.inf)


def given_parameters(argv):
    """The parameter map a command line gives, defaults included, before the
    whole-map check completes it."""
    args = vars(cli._PARSER.parse_args(argv))
    return {k: v for k, v in args.items()
            if v is not None and k not in ("command", "out", "format")}


def in_domain(option, value):
    """Whether value passes the option's own type, domain and choices."""
    if option.choices is not None:
        return value in option.choices
    number = isinstance(value, int) and option.type in (int, float, cli._floats)
    return number and (option.domain is None or option.domain[0](value))


def singular_at_the_origin(command, params):
    # the 1D Coulomb potential is not integrable at x = 0: weyl's integral
    # diverges (exit 1), and local-trace samples it there when the bump
    # covers 0 (exit 1)
    return params.get("n") == 1 and params.get("potential") == "coulomb" and (
        command == "weyl" or abs(params["bump_center"]) < params["bump_radius"])


def reject_constant(token):
    raise AssertionError(f"output holds {token}")


def oracle_run(command, params, seen):
    """(exit status, computed output or None) of one run: the JSON output's
    rows and meta, less the columns and entries that echo a parameter.  The
    dict seen keeps the runs made, so each base runs once."""
    key = (command, json.dumps(params, sort_keys=True))
    if key not in seen:
        out, doc = io.StringIO(), None
        try:
            config = RunConfig(command, params, format="json")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.run(config)
        except UsageError:
            status = 2
        if out.getvalue():
            doc = json.loads(out.getvalue(), parse_constant=reject_constant)
            echoed = oracle_options(command)
            kept = [i for i, c in enumerate(doc["columns"]) if c not in echoed]
            doc = ([[row[i] for i in kept] for row in doc["rows"]],
                   {k: v for k, v in doc["meta"].items() if k not in echoed})
        seen[key] = status, doc
    return seen[key]


def oracle_options(command):
    return {**cli._COMMAND_TABLE[command].options, "strict": cli._STRICT}


class TestEveryOptionMattersOrIsRejected:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_bad_values_exit_two(self, command):
        # each pool value, and one of the wrong type (a string for a number,
        # a number for a string), that the option's own checks refuse; an h
        # list gets it as its last value
        for argv in ORACLE_BASES[command]:
            base = given_parameters([command, *argv])
            for key, option in oracle_options(command).items():
                wrong = 1.5 if option.type is str else "1"
                for bad in (*ORACLE_POOL, wrong):
                    if in_domain(option, bad):
                        continue
                    value = (*base[key][:-1], bad) if option.type is cli._floats else bad
                    status, _ = oracle_run(command, {**base, key: value}, {})
                    assert status == 2, (argv, key, value)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_two_values_change_the_output(self, command):
        # on each base, each option's two values both run and write different
        # outputs with no NaN or infinity, or are both rejected; every option
        # changes the output on some base
        mattered, seen = set(), {}
        for argv in ORACLE_BASES[command]:
            base = given_parameters([command, *argv])
            for key in oracle_options(command):
                pair = ORACLE_PAIRS.get((command, key), ORACLE_PAIRS.get(key))
                runs = [{**base, key: value} for value in pair]
                if any(singular_at_the_origin(command, p) for p in runs):
                    continue
                (s1, out1), (s2, out2) = (oracle_run(command, p, seen) for p in runs)
                if s1 == s2 == 2:
                    continue
                assert out1 is not None and out2 is not None, (argv, key, s1, s2)
                if out1 != out2:
                    mattered.add(key)
                else:
                    assert key in KNOWN_NO_OPS, (argv, key, pair)
        assert mattered == set(oracle_options(command)) - set(KNOWN_NO_OPS)
