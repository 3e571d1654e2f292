import csv
import json
import math
import os
import platform
import time
from dataclasses import asdict, astuple
from types import SimpleNamespace

import numpy as np
import pytest

from aircomp import acceptance, analytical, cli, montecarlo
from aircomp.analytical import PAPER_VARIANTS
from aircomp.cli import CSV_HEADER, RunConfig, UsageError, main, resolve_config
from aircomp.model import NetworkParams
from aircomp.numerics import QuadratureError


def write_config(tmp_path, **kw):
    config = {
        "network": {"snr_db": 30.0},  # the reference cell, NetworkParams()
        "sweep": {"parameter": "lambda", "from": 0.02, "to": 0.05, "steps": 2},
        "eta_policy": {"fixed": 10.0},
        "mc": {"iters": 200, "seed": 7},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestRunConfig:
    def test_snr_to_p_max(self, tmp_path):
        cfg = RunConfig.load(str(write_config(tmp_path)), {})
        assert cfg.network.p_max == pytest.approx(1000.0)

    def test_default_network_is_the_reference_cell(self):
        assert RunConfig.load(None, {}).network == NetworkParams()

    def test_snr_and_p_max_conflict(self):
        with pytest.raises(UsageError):
            resolve_config({"network": {"snr_db": 30.0, "p_max": 100.0}}, {})

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(UsageError):
            RunConfig.load(str(path), {})

    def test_overrides_apply(self, tmp_path):
        cfg = RunConfig.load(str(write_config(tmp_path)),
                             {"iters": 50, "seed": 9, "mode": "annulus",
                              "out": "elsewhere"})
        assert (cfg.mc.iters, cfg.mc.seed, cfg.mc.mode) == (50, 9, "annulus")
        assert cfg.output_dir == "elsewhere"

    def test_integral_float_counts_accepted(self):
        cfg = resolve_config({"mc": {"iters": 1e4, "jobs": 2.0},
                              "sweep": {"parameter": "lambda", "from": 0.02,
                                        "to": 0.05, "steps": 3.0}}, {})
        assert astuple(cfg.mc) == (10000, 0, "clamp", 2)
        assert len(cfg.points) == 3

    def test_log_scale_grid(self):
        cfg = resolve_config({"sweep": {"parameter": "lambda", "from": 0.01,
                                        "to": 1.0, "steps": 3, "log_scale": True}}, {})
        values = [point.value for point in cfg.points]
        assert [point.network.density for point in cfg.points] == values
        np.testing.assert_allclose(values, [0.01, 0.1, 1.0], rtol=1e-15)

    def test_variant_key_rejected(self, tmp_path, capsys, no_work):
        # every command reports both paper variants; there is no variant setting
        cfg_path = write_config(tmp_path, variant="both")
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "unknown config fields: ['variant']" in capsys.readouterr().err


class TestSweepCommand:
    def test_writes_csv_and_metadata(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(write_config(tmp_path))])
        assert code == 0
        out_dir = tmp_path / "out"
        with (out_dir / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3  # header + 2 sweep points
        values = [float(r[0]) for r in rows[1:]]
        assert values == [0.02, 0.05]
        for r in rows[1:]:
            assert float(r[1]) == 10.0  # fixed eta policy
            assert float(r[5]) > 0      # Monte Carlo stderr
            assert "mode=clamp" in r[7]
        meta = json.loads((out_dir / "run.json").read_text())
        assert meta["rows"] == 2
        assert meta["config"]["mc"]["iters"] == 200
        assert "wrote" in capsys.readouterr().out

    def test_run_json_holds_the_resolved_run(self, tmp_path):
        # a config without network and mc sections: run.json still records
        # every value the run used, and the host it ran on
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "sweep": {"parameter": "radius", "from": 5.0, "to": 10.0, "steps": 2},
            "eta_policy": {"fixed": 10.0}, "output_dir": str(tmp_path / "out")}))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        config = meta["config"]
        assert config["network"] == asdict(NetworkParams())
        assert config["network"]["p_max"] == 1000.0
        assert config["mc"] == {"iters": 10000, "seed": 0, "mode": "clamp", "jobs": 1}
        assert [point["value"] for point in config["points"]] == [5.0, 10.0]
        assert [point["network"]["radius"] for point in config["points"]] == [5.0, 10.0]
        assert [point["eta"] for point in config["points"]] == [10.0, 10.0]
        assert (meta["python"], meta["numpy"], meta["cpu_count"]) == (
            platform.python_version(), np.__version__, os.cpu_count())

    def test_run_json_records_the_workers_that_ran(self, tmp_path, monkeypatch):
        # --jobs 4 on a one-CPU host runs one worker, and run.json says so
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
        assert main(["sweep", "--config", str(write_config(tmp_path)), "--jobs", "4"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert (meta["config"]["mc"]["jobs"], meta["mc_workers"]) == (4, 1)

    def test_extended_search_is_flagged(self, tmp_path, monkeypatch):
        def extended(params, variant):
            return analytical.EtaOptimum(eta=10.0, mse=1.0, search_hi=1000.0,
                                         boundary=False, extended=True)

        monkeypatch.setattr(cli, "optimize_eta", extended)
        cfg_path = write_config(tmp_path, eta_policy={}, mc={"iters": 10, "seed": 1})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all("search-extended" in row["flags"].split(";") for row in rows)

    def test_boundary_minimum_is_flagged(self, tmp_path, monkeypatch):
        def at_edge(params, variant):
            return analytical.EtaOptimum(eta=10.0, mse=1.0, search_hi=100.0,
                                         boundary=True, extended=False)

        monkeypatch.setattr(cli, "optimize_eta", at_edge)
        cfg_path = write_config(tmp_path, eta_policy={}, mc={"iters": 10, "seed": 1})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            flags = row["flags"].split(";")
            assert "boundary-minimum" in flags
            assert "search-extended" not in flags

    def test_numeric_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kw):
            raise QuadratureError("quadrature did not converge")

        monkeypatch.setattr(cli, "optimize_eta", fail)
        cfg_path = write_config(tmp_path, eta_policy={})
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_rician_factor_past_the_marcum_limit_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, network={"snr_db": 30.0, "rician_b": 800.0},
                                eta_policy={})
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eta_sweep_uses_param_value(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            sweep={"parameter": "eta", "from": 5.0, "to": 20.0, "steps": 2},
            mc={"iters": 100, "seed": 1})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[1]) for r in rows] == [float(r[0]) for r in rows]

    def test_one_realization_has_zero_stderr(self, tmp_path):
        # one realization has no spread: the standard error is 0 and any
        # analytic-vs-Monte-Carlo gap raises the discrepancy flag
        cfg_path = write_config(tmp_path, mc={"iters": 1, "seed": 7})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        with (tmp_path / "out" / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert float(row["mse_mc_stderr"]) == 0.0
            assert "analytic-mc-discrepancy" in row["flags"].split(";")

    def test_bad_sweep_parameter_is_usage_error(self, tmp_path):
        cfg_path = write_config(
            tmp_path, sweep={"parameter": "nope", "from": 1, "to": 2})
        assert main(["sweep", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"mc": {"iters": 0}}, "mc.iters"),
        ({"mc": {"jobs": 0}}, "mc.jobs"),
        ({"mc": {"mode": "bogus"}}, "mc.mode"),
        ({"sweep": {"parameter": "lambda", "to": 0.05}}, "from and to"),
        ({"sweep": {"parameter": "lambda", "from": 0.02}}, "from and to"),
        ({"network": {"density": 0.05, "wavelength": 0.3}}, "bad network config"),
        ({"mc": {"iters": None}}, "mc.iters"),
        ({"sweep": {"parameter": "lambda", "from": "x", "to": 0.05}}, "sweep.from"),
        ({"eta_policy": {"fixed": -1}}, "eta_policy.fixed"),
        ({"network": {"density": -0.05},
          "sweep": {"parameter": "radius", "from": 5.0, "to": 10.0, "steps": 2}},
         "bad network config"),
        ({"mc": {"iters": 2.5}}, "mc.iters"),
        ({"mc": {"jobs": True}}, "mc.jobs"),
        ({"sweep": {"parameter": "lambda", "from": 0.02, "to": 0.05, "steps": 2.9}},
         "sweep.steps"),
        ({"mc": {"iterations": 50}}, "unknown mc keys: ['iterations']"),
        ({"sweep": {"parameter": "lambda", "from": 0.02, "to": 0.05, "step": 3}},
         "unknown sweep keys: ['step']"),
        ({"eta_policy": {"fix": 10.0}}, "unknown eta_policy keys: ['fix']"),
        ({"eta_policy": {"optimize": False}}, "unknown eta_policy keys: ['optimize']"),
        ({"mc": 50}, "mc must be an object"),
        ([], "config must be a JSON object"),
        ({"network": 5}, "network must be an object"),
        ({"sweep": {"parameter": ["lambda"], "from": 0.02, "to": 0.05}},
         "sweep.parameter"),
        ({"sweep": {"parameter": "lambda", "from": 0.02, "to": 0.05,
                    "log_scale": "no"}}, "sweep.log_scale"),
        ({"mc": {"seed": -1}}, "mc.seed"),
        ({"network": {"snr_db": 30.0, "radius": math.inf}}, "radius"),
        ({"eta_policy": {"fixed": math.inf}}, "eta_policy.fixed"),
        ({"eta_policy": {"fixed": 10 ** 400}}, "eta_policy.fixed"),
        ({"network": {"snr_db": "30"}}, "network.snr_db"),
        ({"network": {"snr_db": 30.0, "density": True},
          "sweep": {"parameter": "radius", "from": 5.0, "to": 10.0}}, "network.density"),
        ({"sweep": {"parameter": "lambda", "from": 0.02, "to": 1e400}}, "sweep.to"),
        ({"sweep": {"parameter": "lambda", "from": "0.01", "to": 0.05}}, "sweep.from"),
        ({"sweep": {"parameter": "lambda", "from": 0.02, "to": 0.05, "steps": 1}},
         "steps >= 2"),
        ({"sweep": {"parameter": "lambda", "from": 0.05, "to": 0.05}}, "from < to"),
        ({"sweep": {"parameter": "lambda", "from": 0.0, "to": 0.05,
                    "log_scale": True}}, "from > 0"),
        ({"sweep": {"parameter": "eta", "from": 0.0, "to": 5.0}}, "from > 0"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": None}, "output_dir"),
        ({"network": {"snr_db": 4000.0}}, "network.snr_db"),
        ({"sweep": {}}, "sweep.parameter must be one of"),
        ({"network": {"radius": 0.5},
          "sweep": {"parameter": "radius", "from": 5.0, "to": 10.0}},
         "bad network config"),
    ], ids=["iters-0", "jobs-0", "mode-bogus", "no-from", "no-to", "wavelength",
            "iters-null", "from-text", "fixed-negative", "density-negative",
            "iters-fraction", "jobs-bool", "steps-fraction", "mc-typo",
            "sweep-typo", "eta-policy-typo", "eta-policy-optimize", "mc-not-object",
            "config-not-object", "network-not-object", "parameter-not-text",
            "log-scale-not-bool", "seed-negative", "radius-infinite",
            "fixed-infinite", "fixed-huge-int", "snr-text", "density-bool",
            "to-overflow", "from-numeric-text", "steps-1", "from-equals-to",
            "log-from-0", "eta-from-0", "output-dir-number", "output-dir-null",
            "snr-overflow", "sweep-empty", "swept-radius-invalid"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, no_work, overrides,
                                       message):
        if isinstance(overrides, dict):
            cfg_path = write_config(tmp_path, **overrides)
        else:  # a document that is not an object
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(overrides))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, no_work):
        cfg_path = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--seed", "-1"]) == 1
        assert "mc.seed" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("command, config", [
        ("sweep", {}),
        ("eta-report", {"network": {"radius": 0.5}}),
    ], ids=["sweep-no-sweep-section", "eta-report-bad-radius"])
    def test_usage_error_creates_no_output_dir(self, tmp_path, command, config):
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config, "output_dir": str(out_dir)}))
        assert main([command, "--config", str(cfg_path)]) == 1
        assert not out_dir.exists()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--nonsense"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "5"],
        ["validate", "--config", "config.json"],
        ["optimal-radius", "--jobs", "2"],
        ["eta-report", "--iters", "100"],
        ["sweep", "--variant", "printed"],
        ["optimal-radius", "--variant", "printed"],
        ["eta-report", "--variant", "rederived"],
    ], ids=["validate-seed", "validate-config", "radius-jobs", "eta-iters",
            "sweep-variant", "radius-variant", "eta-variant"])
    def test_flag_the_command_ignores_exits_one(self, capsys, argv):
        # each subcommand registers only the flags it reads
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


class TestEtaReportCommand:
    def test_report_contents(self, tmp_path):
        cfg_path = write_config(tmp_path)
        code = main(["eta-report", "--config", str(cfg_path), "--points", "20"])
        assert code == 0
        out_dir = tmp_path / "out"
        report = json.loads((out_dir / "eta_report.json").read_text())
        assert report["eta_upper_bound"] >= report["variants"]["rederived"]["eta_opt"]
        with (out_dir / "eta_curve.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eta", "printed", "rederived"]
        assert len(rows) == 21

    def test_curve_ends_where_the_search_ended(self, tmp_path):
        # at epsilon = 0 the printed search is extended past the bound, and
        # the curve follows it to search_hi
        cfg_path = write_config(tmp_path, network={"snr_db": 30.0, "epsilon": 0.0})
        assert main(["eta-report", "--config", str(cfg_path), "--points", "20"]) == 0
        out_dir = tmp_path / "out"
        res = json.loads((out_dir / "eta_report.json").read_text())
        res = res["variants"]["printed"]
        assert res["extended"]
        with (out_dir / "eta_curve.csv").open() as fh:
            etas = [float(row["eta"]) for row in csv.DictReader(fh)]
        assert etas[-1] == pytest.approx(res["search_hi"], rel=1e-12)
        assert etas[-1] >= res["eta_opt"]

    def test_run_json_records_points(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["eta-report", "--config", str(cfg_path), "--points", "20"]) == 0
        assert json.loads((tmp_path / "out" / "run.json").read_text())["points"] == 20

    def test_no_points_is_usage_error(self, tmp_path, capsys, no_work):
        # a curve needs two points to end at search_hi
        cfg_path = write_config(tmp_path)
        for points in ("0", "1"):
            assert main(["eta-report", "--config", str(cfg_path),
                         "--points", points]) == 1
            assert "--points" in capsys.readouterr().err


def patch_optimize_eta(monkeypatch, replacement):
    """Replace optimize_eta under both names: analytical's, which the radius
    search calls through radius_curve, and the CLI's own import of it."""
    monkeypatch.setattr(analytical, "optimize_eta", replacement)
    monkeypatch.setattr(cli, "optimize_eta", replacement)


@pytest.fixture
def parabola(monkeypatch):
    """Record each optimize_eta call's radius and variant and make the call
    instant: the optimized MSE is a parabola in R with its minimum at 12.2 m."""
    calls = []

    def fake(params, variant="rederived", **kw):
        calls.append((params.radius, variant))
        return SimpleNamespace(mse=(params.radius - 12.2) ** 2 + 1.0)

    patch_optimize_eta(monkeypatch, fake)
    return calls


def radius_report(tmp_path, r_min, r_max, ref_radius):
    cfg_path = write_config(tmp_path)
    assert main(["optimal-radius", "--config", str(cfg_path), "--r-min", r_min,
                 "--r-max", r_max, "--ref-radius", ref_radius]) == 0
    report = json.loads((tmp_path / "out" / "optimal_radius.json").read_text())
    return report["variants"]["rederived"]


@pytest.fixture
def no_work(monkeypatch):
    """Make a command fail if it evaluates anything: an optimize_eta or an
    estimate_mse call before its input was checked."""
    def fail(*args, **kw):
        raise AssertionError("work ran before the input was checked")

    patch_optimize_eta(monkeypatch, fail)
    monkeypatch.setattr(cli, "estimate_mse", fail)


class TestOptimalRadiusCommand:
    def test_narrow_bracket(self, tmp_path, capsys):
        res = radius_report(tmp_path, "11", "15", "5")
        assert set(res) == {"r_opt", "mse_opt", "mse_ref", "reduction",
                            "boundary_flag", "grid_radii", "grid_mse"}
        assert 11.0 <= res["r_opt"] <= 15.0
        assert res["mse_opt"] <= res["mse_ref"]
        assert "R_opt" in capsys.readouterr().out

    def test_optimize_eta_calls(self, tmp_path, monkeypatch):
        # per variant: 5 grid radii, Brent's method inside the grid argmin's
        # bracket (no second scan of it) and the reference radius
        calls = []
        optimize_eta = analytical.optimize_eta

        def counted(*args, **kw):
            calls.append(args)
            return optimize_eta(*args, **kw)

        patch_optimize_eta(monkeypatch, counted)
        radius_report(tmp_path, "11", "15", "5")
        for variant in PAPER_VARIANTS:
            assert 0 < sum(args[1] == variant for args in calls) <= 5 + 20 + 1

    def test_one_variant_per_call(self, parabola):
        res = cli.optimal_radius(NetworkParams(), 11.0, 15.0, 5.0, "printed")
        assert {variant for _, variant in parabola} == {"printed"}
        assert res["r_opt"] == pytest.approx(12.2, rel=1e-3)
        assert not res["boundary_flag"]

    def test_run_json_records_the_scan(self, tmp_path, parabola):
        radius_report(tmp_path, "11", "15", "12")
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert (meta["r_min"], meta["r_max"], meta["ref_radius"]) == (11.0, 15.0, 12.0)

    def test_ref_radius_on_the_grid_reads_the_grid(self, tmp_path, parabola):
        off_grid = radius_report(tmp_path, "11", "15", "5")
        n_off_grid = len(parabola)
        parabola.clear()
        on_grid = radius_report(tmp_path, "11", "15", "11")
        assert len(parabola) == n_off_grid - len(PAPER_VARIANTS)  # one per variant
        assert on_grid["mse_ref"] == on_grid["grid_mse"][0]
        assert off_grid["mse_opt"] == on_grid["mse_opt"]

    @pytest.mark.parametrize("r_min, r_max", [
        ("11", "12.5"), ("5", "40.5"), ("5.1", "40.1"), ("5", "40"), ("5.5", "9.5"),
    ])
    def test_grid_ends_at_r_max(self, tmp_path, parabola, r_min, r_max):
        radii = radius_report(tmp_path, r_min, r_max, r_min)["grid_radii"]
        assert radii[0] == float(r_min) and radii[-1] == float(r_max)
        steps = np.diff(radii)
        assert np.allclose(steps[:-1], 1.0) and 1e-6 < steps[-1] <= 1.0 + 1e-9
        if float(r_max) - float(r_min) == round(float(r_max) - float(r_min)):
            # a whole number of metres: the 1 m grid, exactly
            assert radii == list(np.arange(float(r_min), float(r_max) + 1e-9, 1.0))

    def test_invalid_bracket_is_usage_error(self, tmp_path, capsys, no_work):
        cfg_path = write_config(tmp_path)
        # reversed, under 1 m wide (a grid of one radius), and unbounded
        for r_min, r_max in (("10", "5"), ("11", "11.5"), ("5", "inf")):
            assert main(["optimal-radius", "--config", str(cfg_path),
                         "--r-min", r_min, "--r-max", r_max]) == 1
            err = capsys.readouterr().err
            assert "--r-min" in err and "--r-max" in err

    def test_ref_radius_checked_before_any_work(self, tmp_path, capsys, no_work):
        cfg_path = write_config(tmp_path)
        for ref_radius in ("0.5", "inf"):
            assert main(["optimal-radius", "--config", str(cfg_path), "--r-min", "11",
                         "--r-max", "12", "--ref-radius", ref_radius]) == 1
            assert "ref_radius" in capsys.readouterr().err


class TestValidateCommand:
    def test_single_passing_criterion(self, tmp_path, capsys):
        code = main(["validate", "--criteria", "1"])
        assert code == 0
        assert "[PASS] criterion 1" in capsys.readouterr().out

    def test_determinism_sweeps_print_nothing(self, capsys):
        assert main(["validate", "--criteria", "8"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] criterion 8" in out
        assert "wrote" not in out

    def test_grid_time_goes_to_first_grid_criterion(self, monkeypatch):
        builds = []

        def slow_grid():
            time.sleep(0.1)
            builds.append(1)
            return []

        def reader(number):
            return lambda grid: acceptance.CriterionResult(
                number, "grid reader", grid == [], "")

        monkeypatch.setattr(acceptance, "compute_fig2_grid", slow_grid)
        monkeypatch.setattr(acceptance, "criterion_3", reader(3))
        monkeypatch.setattr(acceptance, "criterion_4", reader(4))
        for numbers in ([3, 4], [4]):
            builds.clear()
            results = acceptance.run_acceptance(numbers)
            assert builds == [1]
            assert all(r.passed for r in results)
            assert results[0].seconds >= 0.1
            assert all(r.seconds < 0.1 for r in results[1:])

    def test_criterion_5_out_of_band(self, parabola):
        # criterion 5 runs optimal-radius's search: the parabola's minimum,
        # 12.2 m, cuts the MSE by 98 % versus 5 m, outside the published band,
        # so the criterion fails and reads the bounds at the refined radius
        result = acceptance.criterion_5()
        assert not result.passed
        for b_factor in (10, 15, 20):
            assert f"B={b_factor}: R_opt=12.2 m," in result.detail
        r_opt = cli.optimal_radius(NetworkParams(), 5.0, 40.0, 5.0, "rederived")["r_opt"]
        bound = analytical.eta_upper_bound(NetworkParams(radius=r_opt))
        assert ("DISCREPANCY: outside the published band; formula-variant gap and "
                f"bound readings: capped printed {bound.capped_moment_printed:.4g} "
                f"vs appendix {bound.capped_moment_appendix:.4g}") in result.detail

    @pytest.mark.parametrize("criteria", ["x", "9"], ids=["not-a-number", "unknown"])
    def test_bad_criteria_exit_one(self, capsys, criteria):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--criteria", criteria])
        assert exc.value.code == 1
        assert "numbers 1-8" in capsys.readouterr().err
