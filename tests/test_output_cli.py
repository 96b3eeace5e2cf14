import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from regmom.cli import main, parse_config
from regmom.output import (compare_files, compare_profiles, read_csv,
                           write_columns)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    cols = {"x": np.linspace(0, 1, 7), "rho": np.pi * np.arange(7.0)}
    write_columns(path, cols)
    back = read_csv(path)
    assert list(back) == ["x", "rho"]
    assert np.array_equal(back["x"], cols["x"])
    assert np.array_equal(back["rho"], cols["rho"])  # 17 sig digits: exact


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nscenario = shock-tube\ncells = 100\n\nkn=0.5\n")
    cfg = parse_config(path)
    assert cfg == {"scenario": "shock-tube", "cells": "100", "kn": "0.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_config(bad)


def test_compare_file_against_itself(tmp_path):
    path = tmp_path / "a.csv"
    write_columns(path, {"x": np.linspace(0, 1, 9), "rho": np.random.rand(9)})
    rep = compare_files(path, path, "rho")
    assert rep.l1_rel == 0.0
    assert rep.linf == 0.0


def test_compare_rejects_missing_column(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_columns(a, {"x": np.arange(4.0), "rho": np.ones(4)})
    write_columns(b, {"x": np.arange(4.0), "theta": np.ones(4)})
    with pytest.raises(ValueError):
        compare_files(a, b, "rho")


def test_compare_interpolates_non_nested_grids():
    xa = np.linspace(0, 1, 11)
    xb = np.linspace(0, 1, 17)
    rep = compare_profiles(xa, xa**2, xb, xb**2, column="v")
    assert rep.l1_rel < 5e-3


def test_compare_normalize_and_align():
    # same logistic front shifted in x: normalized + centered comparison ~ 0
    xa = np.linspace(-10, 10, 400)
    xb = np.linspace(-10, 10, 400)
    f = lambda x: 1.0 / (1.0 + np.exp(-x))
    ya = 1.0 + 2.0 * f(xa / 0.7)
    yb = 1.0 + 2.0 * f((xb - 1.5) / 0.7)
    raw = compare_profiles(xa, ya, xb, yb, column="rho")
    aligned = compare_profiles(xa, ya, xb, yb, column="rho", normalize=True,
                               align_center=True)
    assert aligned.linf < 0.02 < raw.linf


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["falling", "rising"])
def test_compare_align_center_aligns_either_direction(sign):
    # the same tanh step centred at 1.3 and at -0.4: u1 falls across every
    # shock structure, so a falling profile must be aligned as a rising one
    xa, xb = np.linspace(-5.0, 5.0, 101), np.linspace(-5.0, 5.0, 201)
    ya = 0.5 * (1.0 + sign * np.tanh(xa - 1.3))
    yb = 0.5 * (1.0 + sign * np.tanh(xb + 0.4))
    rep = compare_profiles(xa, ya, xb, yb, column="u1", align_center=True)
    assert rep.linf < 1e-3


@pytest.mark.parametrize("flat", ["a", "b"])
def test_compare_normalize_rejects_a_flat_profile(flat):
    # equal end values leave nothing to map to 0 and 1: not a NaN report
    x = np.linspace(0.0, 1.0, 9)
    ramp, level = 1.0 + x, np.full_like(x, 2.0)
    ya, yb = (level, ramp) if flat == "a" else (ramp, level)
    with pytest.raises(ValueError, match="cannot normalize 'theta'"):
        compare_profiles(x, ya, x, yb, column="theta", normalize=True)


def test_cli_compare_normalize_flat_profile_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_columns(a, {"x": np.arange(6.0), "rho": np.ones(6)})
    write_columns(b, {"x": np.arange(6.0), "rho": np.arange(6.0)})
    assert main(["compare", str(a), str(b), "--normalize"]) == 2
    captured = capsys.readouterr()
    assert "cannot normalize 'rho'" in captured.err and "nan" not in captured.out


@pytest.mark.parametrize("flat", ["a", "b"])
def test_compare_align_center_rejects_a_flat_profile(flat):
    # equal end values cross no half level: not a silent alignment at x[0]
    x = np.linspace(0.0, 1.0, 9)
    ramp, level = 1.0 + x, np.full_like(x, 2.0)
    ya, yb = (level, ramp) if flat == "a" else (ramp, level)
    with pytest.raises(ValueError, match="cannot align the center of 'theta'"):
        compare_profiles(x, ya, x, yb, column="theta", align_center=True)


@pytest.mark.parametrize("flags", [[], ["--normalize"], ["--align-center"]],
                         ids=["plain", "normalize", "align-center"])
def test_cli_compare_rejects_a_non_finite_value(flags, tmp_path, capsys):
    # a NaN in the compared column is no "L1(rel) = nan" with exit 0, nor a
    # center misplaced so far that the profiles seem not to overlap
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    x = np.linspace(0.0, 1.0, 9)
    write_columns(good, {"x": x, "rho": 1.0 + x})
    write_columns(bad, {"x": x, "rho": np.where(x == 0.5, np.nan, 1.0 + x)})
    for files in ([good, bad], [bad, good]):
        assert main(["compare", *map(str, files), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: column 'rho' is not finite at row 4" in captured.err


@pytest.mark.parametrize("text", ["", "x,rho\n"], ids=["empty", "header-only"])
def test_cli_compare_file_without_data_rows_exit_code(text, tmp_path, capsys):
    bad, ok = tmp_path / "bad.csv", tmp_path / "ok.csv"
    bad.write_text(text, encoding="ascii")
    write_columns(ok, {"x": np.arange(4.0), "rho": np.ones(4)})
    with pytest.raises(ValueError, match="bad.csv has no data rows"):
        read_csv(bad)
    for files in ([bad, ok], [ok, bad]):
        assert main(["compare", *map(str, files)]) == 2
        assert "bad.csv has no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("row, what", [("1,1,5", "3 values under 2 column names"),
                                       ("1", "1 values under 2 column names"),
                                       ("1,abc", "could not convert string to float")],
                         ids=["long", "short", "not-a-number"])
def test_cli_compare_malformed_row_exit_code(row, what, tmp_path, capsys):
    # a row is read whole or not at all: no extra value dropped, no numpy
    # message that names neither the file nor the row
    bad, ok = tmp_path / "bad.csv", tmp_path / "ok.csv"
    bad.write_text(f"x,rho\n0,1\n{row}\n2,1\n", encoding="ascii")
    write_columns(ok, {"x": np.arange(4.0), "rho": np.ones(4)})
    with pytest.raises(ValueError, match=f"bad.csv, line 3: {what}"):
        read_csv(bad)
    for files in ([bad, ok], [ok, bad]):
        assert main(["compare", *map(str, files)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{bad}, line 3: {what}" in captured.err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus-flag"])
    assert exc.value.code == 2


def test_cli_unknown_scenario_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "nonsense"])
    assert exc.value.code == 2


def test_cli_breakdown_exit_code(monkeypatch, tmp_path):
    import regmom.cli as cli
    from regmom.solver import SolverBreakdown

    def explode(state, cfg):
        raise SolverBreakdown("negative density or temperature", 17, 0.125)

    monkeypatch.setattr(cli.solver, "run", explode)
    code = main(["run", "--scenario", "shock-tube", "--cells", "16",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert "cell 17" in summary["breakdown"]


def test_cli_run_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    code = main(["run", "--scenario", "shock-tube", "--kn", "0.05", "--M", "3",
                 "--cells", "32", "--out", str(out)])
    assert code == 0
    data = read_csv(out / "final.csv")
    assert list(data) == ["x", "rho", "u1", "theta", "sigma11", "q1"]
    assert data["x"].size == 32
    summary = json.loads((out / "summary.json").read_text())
    assert summary["breakdown"] is None
    assert summary["converged"] is True
    assert summary["config"]["n_cells"] == 32
    assert summary["t"] == pytest.approx(0.3)


def test_cli_run_default_tau_is_the_scenario_model(monkeypatch, tmp_path):
    import regmom.cli as cli

    used = []

    def no_solve(state, cfg):
        used.append(state.scenario.tau_model.kind)
        return state

    monkeypatch.setattr(cli.solver, "run", no_solve)
    args = ["run", "--scenario", "shock-structure", "--mach", "2", "--cells", "16"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert used == ["vhs"] and summary["scenario"]["tau"] == "vhs"
    # an explicit flag still replaces the scenario's model
    assert main(args + ["--tau", "kn-over-rho", "--out", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert used[-1] == "kn-over-rho" and summary["scenario"]["tau"] == "kn-over-rho"


def test_cli_reports_unconverged_steady_search(monkeypatch, tmp_path, capsys):
    import regmom.cli as cli

    run, dvm_run = cli.solver.run, cli.dvm.dvm_run
    monkeypatch.setattr(cli.solver, "run",
                        lambda state, cfg: run(state, replace(cfg, t_max=1.0)))
    monkeypatch.setattr(cli.dvm, "dvm_run",
                        lambda sc, cfg: dvm_run(sc, replace(cfg, t_max=1.0)))
    args = ["--scenario", "shock-structure", "--mach", "2", "--cells", "32"]
    assert main(["run", *args, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] is False
    assert main(["make-ref", *args, "--nv", "40", "--out", str(tmp_path / "refs")]) == 0
    assert "not converged" in capsys.readouterr().err


def test_cli_run_prints_unconverged_steady_search(monkeypatch, tmp_path, capsys):
    import regmom.cli as cli

    run = cli.solver.run
    monkeypatch.setattr(cli.solver, "run",
                        lambda state, cfg: run(state, replace(cfg, t_max=1.0)))
    assert main(["run", "--scenario", "shock-structure", "--mach", "2", "--cells", "32",
                 "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] is False
    err = capsys.readouterr().err
    assert err == (f"not converged: residual {summary['residual']:.3g} >= 1e-06 "
                   f"at t = {summary['t']:.6g}\n")
    # a run to t_stop searches no steady state and prints nothing
    assert main(["run", "--cells", "16", "--out", str(tmp_path / "t")]) == 0
    assert capsys.readouterr().err == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_run_records_are_strict_json(tmp_path):
    # t_stop runs measure no steady residual: the records say null, not
    # Infinity; a free-flight reference spells its Kn as the flag does
    assert main(["run", "--scenario", "shock-tube", "--cells", "16",
                 "--out", str(tmp_path / "o")]) == 0
    for kn in ("0.3", "inf"):
        assert main(["make-ref", "--scenario", "shock-tube", "--kn", kn, "--cells", "16",
                     "--nv", "40", "--out", str(tmp_path / "refs")]) == 0
    paths = [tmp_path / "o" / "summary.json", *(tmp_path / "refs").glob("dvm_*.json")]
    assert len(paths) == 3
    records = [json.loads(p.read_text(), parse_constant=_reject_constant) for p in paths]
    for record in records:
        assert record["residual"] is None and record["converged"] is True
    assert sorted(str(r["scenario"]["kn"]) for r in records[1:]) == ["0.3", "inf"]


def test_cli_run_and_make_ref_write_one_record(monkeypatch, tmp_path, capsys):
    import regmom.cli as cli
    from regmom.solver import SolverBreakdown

    args = ["--scenario", "shock-tube", "--kn", "0.3", "--cells", "16"]
    assert main(["run", *args, "--out", str(tmp_path / "o")]) == 0
    assert main(["make-ref", *args, "--nv", "40", "--out", str(tmp_path / "refs")]) == 0

    def explode(state, cfg):
        raise SolverBreakdown("negative density or temperature", 17, 0.125)

    monkeypatch.setattr(cli.solver, "run", explode)
    assert main(["run", *args, "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.count("breakdown:") == 1
    run, ref, broken = (json.loads(p.read_text()) for p in (
        tmp_path / "o" / "summary.json", next((tmp_path / "refs").glob("dvm_*.json")),
        tmp_path / "b" / "summary.json"))
    assert set(run) - set(ref) == {"dt_history", "max_speed"}
    assert set(ref) - set(run) == {"blocks"}
    assert set(run) == set(broken)
    assert set(run) & set(ref) == {"scenario", "config", "breakdown", "t", "steps",
                                   "residual", "converged", "wall_time_s"}
    # the scenario and config that ran, the stop rule included
    for record in (run, ref, broken):
        assert record["scenario"] == {"name": "shock-tube", "dim": 3, "kn": 0.3,
                                      "mach": None, "tau": "kn-over-rho", "omega": 0.72}
        assert (record["config"]["t_stop"], record["config"]["steady_tol"],
                record["config"]["t_max"]) == (0.3, None, 400.0)
    assert run["breakdown"] is None and ref["breakdown"] is None
    assert "cell 17" in broken["breakdown"] and broken["steps"] == 0
    assert broken["dt_history"] is None
    assert set(run["dt_history"]) == {"min", "max", "last"}


def test_cli_coefficient_dump(tmp_path):
    out = tmp_path / "run2"
    code = main(["run", "--scenario", "shock-tube", "--kn", "0.05", "--M", "3",
                 "--cells", "16", "--dump-coeffs", "--out", str(out)])
    assert code == 0
    data = read_csv(out / "final.csv")
    # one column g<a>_<k> per axisymmetric coefficient with a + 2k <= 3
    assert [c for c in data if c.startswith("g")] == [
        "g0_0", "g0_1", "g1_0", "g1_1", "g2_0", "g3_0"]
    assert np.allclose(data["g0_0"], data["rho"])


def test_cli_determinism_byte_identical(tmp_path):
    args = ["run", "--scenario", "shock-tube", "--kn", "0.05", "--M", "3",
            "--cells", "24"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "final.csv").read_bytes() == (out2 / "final.csv").read_bytes()


def test_cli_make_ref_determinism_byte_identical(tmp_path):
    # a mesh large enough for one cell block per CPU, up to two
    from regmom.dvm import _blocks

    args = ["make-ref", "--scenario", "shock-tube", "--kn", "0.3", "--cells", "400",
            "--nv", "200", "--vmax", "12", "--force"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    (csv1,), (csv2,) = out1.glob("dvm_*.csv"), out2.glob("dvm_*.csv")
    assert csv1.read_bytes() == csv2.read_bytes()
    record = json.loads(csv1.with_suffix(".json").read_text())
    assert record["blocks"] == len(_blocks(400, 200)) >= 1


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = shock-tube\nkn = 0.05\ncells = 16\n")
    out1 = tmp_path / "c1"
    assert main(["run", "--config", str(cfgfile), "--out", str(out1)]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    assert s1["config"]["n_cells"] == 16
    assert s1["scenario"]["kn"] == 0.05
    # an explicit flag overrides the config value
    out2 = tmp_path / "c2"
    assert main(["run", "--config", str(cfgfile), "--cells", "8",
                 "--out", str(out2)]) == 0
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s2["config"]["n_cells"] == 8


def test_cli_config_rejects_unknown_keys(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("not_a_flag = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfgfile)])
    assert exc.value.code == 2


@pytest.mark.parametrize("line, columns", [("dump_coeffs = TRUE", True),
                                          ("dump_coeffs = false", False),
                                          ("dump_coeffs = no", None), ("cells = eight", None)])
def test_cli_config_values_read_as_their_flags(tmp_path, capsys, line, columns):
    # an on/off flag takes true or false in any case; any other value, or one
    # that a typed flag cannot read, is a configuration error naming its key
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"cells = 8\n{line}\n")
    args = ["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]
    if columns is None:
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err
    else:
        assert main(args) == 0
        header = (tmp_path / "o" / "final.csv").read_text().splitlines()[0].split(",")
        assert ("g0_0" in header) is columns


def test_cli_compare_subcommand(tmp_path, capsys):
    a = tmp_path / "a.csv"
    write_columns(a, {"x": np.arange(8.0), "rho": np.arange(8.0) ** 2})
    assert main(["compare", str(a), str(a), "--column", "rho"]) == 0
    out = capsys.readouterr().out
    assert "L1(rel) = 0" in out


def test_cli_magnitude_subcommand(tmp_path):
    out = tmp_path / "mag.csv"
    code = main(["magnitude", "--preset", "gentle-1d", "--mmax", "7",
                 "--report-order", "5", "--sweeps", "2", "--tau-count", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,order,predicted,measured,degenerate"
    assert len(lines) > 4


@pytest.mark.parametrize("flags", [["--tau-count", "1"], ["--mmax", "2"]])
def test_cli_magnitude_rejects_unfit_arguments(flags, capsys):
    # one tau gives no slope; order 2 carries no heat flux for the sweep
    assert main(["magnitude", "--preset", "gentle-1d"] + flags) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_make_ref_caches(tmp_path):
    refdir = tmp_path / "refs"
    args = ["make-ref", "--scenario", "shock-tube", "--kn", "0.3",
            "--cells", "64", "--nv", "40", "--vmax", "10", "--out", str(refdir)]
    assert main(args) == 0
    files = list(refdir.glob("dvm_*.csv"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    assert main(args) == 0  # second call hits the cache
    assert files[0].stat().st_mtime_ns == stamp
    data = read_csv(files[0])
    assert "rho" in data and data["x"].size == 64


def test_cli_make_ref_cache_key_covers_dimension(tmp_path, capsys):
    # without --cells the reference takes the scenario's default mesh
    refdir = tmp_path / "refs"
    args = ["make-ref", "--scenario", "shock-tube", "--kn", "0.3", "--nv", "40",
            "--out", str(refdir)]
    assert main(args + ["--D", "3"]) == 0
    assert main(args + ["--D", "1"]) == 0
    assert "cached" not in capsys.readouterr().out
    files = sorted(refdir.glob("dvm_*.csv"))
    assert len(files) == 2 and read_csv(files[0])["x"].size == 200
    records = [json.loads(p.read_text()) for p in sorted(refdir.glob("dvm_*.json"))]
    assert sorted(r["scenario"]["dim"] for r in records) == [1, 3]


@pytest.mark.parametrize("argv", [["run", "--cells", "0"], ["make-ref", "--cells", "0"],
                                  ["run", "--cfl", "1.5"], ["make-ref", "--cfl", "0"],
                                  ["make-ref", "--nv", "1"], ["make-ref", "--vmax", "-3"]])
def test_cli_rejects_unfit_numerics(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _cli_warnings_as_errors(argv, tmp_path):
    """``regmom`` with ``argv`` in a fresh interpreter that turns every
    RuntimeWarning into an error, writing under tmp_path / "o"."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "regmom.cli", *argv,
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "shock-structure", "--mach", "nan"],
    ["run", "--scenario", "shock-structure", "--mach", "inf"],
    ["make-ref", "--scenario", "shock-structure", "--mach", "inf"],
    ["run", "--kn", "nan"],
    ["make-ref", "--kn", "nan"],
    ["make-ref", "--kn", "-0.5"],
    ["run", "--scenario", "shock-structure", "--mach", "2", "--omega", "3.5"],
    ["make-ref", "--scenario", "shock-structure", "--mach", "2", "--omega", "nan"],
    ["run", "--scenario", "shock-tube", "--omega", "3.5", "--cells", "8"],
    ["make-ref", "--omega", "0.9", "--cells", "8"],
    ["run", "--scenario", "shock-structure", "--mach", "2", "--tau", "kn-over-rho",
     "--omega", "0.9"],
    ["run", "--kn", "inf"],
    ["make-ref", "--mach", "2"],
    ["make-ref", "--nv", "2"],
    ["make-ref", "--scenario", "shock-structure", "--mach", "9", "--vmax", "4"],
    ["make-ref", "--nv", "3", "--vmax", "100", "--cells", "8"],
    ["make-ref", "--vmax", "inf", "--cells", "8", "--nv", "10"],
    ["magnitude", "--tau-start", "-0.01", "--mmax", "4", "--report-order", "4"],
    ["magnitude", "--sweeps", "0", "--mmax", "4", "--report-order", "4"],
    ["magnitude", "--sweeps", "-1", "--mmax", "4", "--report-order", "4"],
    ["magnitude", "--tau-start", "1e300", "--mmax", "4", "--report-order", "4",
     "--tau-count", "2"],
    ["magnitude", "--report-order", "1"],
    ["magnitude", "--report-order", "12", "--mmax", "4"],
], ids=" ".join)
def test_cli_rejects_unusable_settings_before_any_step(argv, tmp_path):
    # rejected at setup: none may reach a step, warn, or leave a path behind
    proc = _cli_warnings_as_errors(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not list(tmp_path.rglob("*"))


def test_cli_omega_reaches_the_vhs_model_alone(tmp_path, capsys):
    # --omega defaults to the scenario's own exponent and is accepted only
    # where a VHS relaxation time reads it, as a flag or a config key
    args = ["run", "--scenario", "shock-tube", "--cells", "8"]
    assert main([*args, "--tau", "vhs", "--omega", "0.9", "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--tau", "vhs", "--out", str(tmp_path / "b")]) == 0
    records = [json.loads((tmp_path / d / "summary.json").read_text()) for d in "ab"]
    assert [(r["scenario"]["tau"], r["scenario"]["omega"]) for r in records] == [
        ("vhs", 0.9), ("vhs", 0.72)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 0.9\n")
    capsys.readouterr()
    assert main([*args, "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err.startswith("error: --omega 0.9 ")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--kn", "0", "--cells", "16"],
    ["make-ref", "--kn", "0", "--cells", "16", "--nv", "40"],
    ["run", "--kn", "1e-320", "--cells", "16"],
    ["make-ref", "--kn", "1e-320", "--cells", "16", "--nv", "40"],
], ids=" ".join)
def test_cli_runs_kn_zero_without_warnings(argv, tmp_path):
    # Kn = 0 is the equilibrium limit tau = 0, which both solvers accept; at a
    # subnormal Kn, dt / tau overflows to inf and the factor is exp(-inf) = 0 too
    proc = _cli_warnings_as_errors(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list((tmp_path / "o").glob("*.csv"))


def test_cli_make_ref_cache_hit_reports_run_record(monkeypatch, tmp_path, capsys):
    import regmom.cli as cli

    dvm_run = cli.dvm.dvm_run
    monkeypatch.setattr(cli.dvm, "dvm_run",
                        lambda sc, cfg: dvm_run(sc, replace(cfg, t_max=1.0)))
    refdir = tmp_path / "refs"
    args = ["make-ref", "--scenario", "shock-structure", "--mach", "2", "--cells", "32",
            "--nv", "40", "--out", str(refdir)]
    assert main(args) == 0
    first = capsys.readouterr().err
    record = json.loads(next(refdir.glob("dvm_*.json")).read_text())
    assert record["converged"] is False and record["steps"] > 0
    assert record["t"] == pytest.approx(1.0) and record["config"]["n_v"] == 40
    assert main(args) == 0          # cache hit: the stored line comes back
    assert capsys.readouterr().err == first
    next(refdir.glob("dvm_*.json")).unlink()
    assert main(args) == 0
    assert "no run record" in capsys.readouterr().err


def test_cli_make_ref_breakdown_exit_code(monkeypatch, tmp_path, capsys):
    import regmom.cli as cli

    make = cli.dvm.make_dvm_state

    def nan_cell(scenario, cfg, grid):
        state = make(scenario, cfg, grid)
        state.g[5] = np.nan
        return state

    monkeypatch.setattr(cli.dvm, "make_dvm_state", nan_cell)
    refdir = tmp_path / "refs"
    code = main(["make-ref", "--scenario", "shock-tube", "--kn", "0.3", "--cells", "16",
                 "--nv", "40", "--vmax", "10", "--out", str(refdir)])
    assert code == 1
    assert "breakdown" in capsys.readouterr().err
    assert not list(refdir.glob("*.csv"))
