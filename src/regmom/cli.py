"""Command-line front end: run scenarios, build references, compare, sweep tau.

Exit codes: 0 success, 1 breakdown of either solver, 2 usage or configuration
error; a steady search that reaches t_max exits 0 and reports it unconverged.
`run` and `make-ref` write one run record each, as strict JSON.
A flat ``key = value`` config file can preset any flag; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import dvm, iteration, output, scenarios, solver


def _scenario_from_args(args) -> scenarios.Scenario:
    """The scenario the flags name, with `run`'s --tau model when it is given.
    ValueError for an --omega that its relaxation time does not read."""
    given = {} if args.omega is None else {"omega": args.omega}
    scenario = scenarios.make_scenario(args.scenario, kn=args.kn, mach=args.mach,
                                       dim=args.dim, **given)
    if getattr(args, "tau", None) is not None:
        omega = scenario.tau_model.omega if args.omega is None else args.omega
        scenario = replace(scenario, tau_model=scenarios.TauModel(args.tau, omega=omega))
    if given and scenario.tau_model.kind == "kn-over-rho":
        raise ValueError(f"--omega {args.omega:g} is the VHS exponent, which the "
                         "kn-over-rho relaxation time does not read")
    return scenario


def _write_record(path: Path, scenario: scenarios.Scenario, mach: float | None, cfg,
                  state, wall_time_s: float, breakdown: str | None = None, **extra):
    """The run record of `run` and `make-ref`, as strict JSON: the scenario and
    config that ran, what the run did, then the command's own ``extra`` fields."""
    physics = {"name": scenario.name, "dim": scenario.dim,
               "kn": "inf" if scenario.kn == math.inf else scenario.kn, "mach": mach,
               "tau": scenario.tau_model.kind, "omega": scenario.tau_model.omega}
    record = {"scenario": physics, "config": asdict(cfg), "breakdown": breakdown,
              "t": state.t, "steps": state.steps, "residual": state.residual,
              "converged": state.converged, "wall_time_s": wall_time_s, **extra}
    path.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")


def parse_config(path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _apply_config_defaults(parser, subparsers, argv: list[str]):
    """Parse once for --config, inject file values as subcommand defaults,
    then parse again so explicit flags win over the file."""
    pre, _ = parser.parse_known_args(argv)
    sub = subparsers.get(getattr(pre, "command", None))
    if sub is not None and getattr(pre, "config", None):
        try:
            values = parse_config(pre.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        known = {a.dest for a in sub._actions}
        unknown = set(values) - known
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        sub.set_defaults(**{k: _coerce(sub, k, v) for k, v in values.items()})
    return parser.parse_args(argv)


def _coerce(parser, dest, text):
    """A config value as its flag reads it; an on/off flag takes true or false."""
    action = next(a for a in parser._actions if a.dest == dest)
    try:
        if action.nargs == 0:
            return {"true": True, "false": False}[text.lower()]
        return text if action.type is None else action.type(text)
    except (KeyError, ValueError):
        parser.error(f"config key {dest!r} cannot take the value {text!r}")


def cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    cfg = solver.SolverConfig.from_scenario(
        scenario, order=args.order, n_cells=args.cells, cfl=args.cfl,
        closure=args.closure)
    state = solver.make_state(scenario, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    def write_summary(breakdown=None):
        dt_history = None if state.steps == 0 else {
            "min": state.dt_min, "max": state.dt_max, "last": state.last_dt}
        _write_record(out / "summary.json", scenario, args.mach, cfg, state,
                      time.perf_counter() - t0, breakdown,
                      dt_history=dt_history, max_speed=state.max_speed)

    try:
        solver.run(state, cfg)
    except scenarios.SolverBreakdown as exc:
        write_summary(str(exc))
        raise
    write_summary()
    if not state.converged:
        _warn_not_converged(state.residual, cfg.steady_tol, state.t)
    output.write_snapshot(out / "final.csv", state, dump_coeffs=args.dump_coeffs)
    print(f"wrote {out / 'final.csv'} (t = {state.t:.6g}, {state.steps} steps)")
    return 0


def cmd_make_ref(args) -> int:
    scenario = _scenario_from_args(args)
    cfg = dvm.DVMConfig.from_scenario(scenario, n_cells=args.cells, n_v=args.nv,
                                      v_max=args.vmax, cfl=args.cfl)
    refdir = Path(args.out)
    mach = "" if args.mach is None else f"_m{args.mach:g}"
    tag = (f"{args.scenario}_kn{scenario.kn:g}{mach}_D{scenario.dim}_nx{cfg.n_cells}"
           f"_nv{cfg.n_v}_vmax{cfg.v_max:g}_cfl{cfg.cfl:g}_w{scenario.tau_model.omega:g}")
    path = refdir / f"dvm_{tag}.csv"
    record_path = path.with_suffix(".json")
    if path.exists() and not args.force:
        print(f"cached: {path}")
        if not record_path.exists():
            print(f"no run record: {record_path}", file=sys.stderr)
        elif not (record := json.loads(record_path.read_text()))["converged"]:
            _warn_not_converged(record["residual"], record["config"]["steady_tol"],
                                record["t"])
        return 0
    t0 = time.perf_counter()
    state, grid = dvm.dvm_run(scenario, cfg)
    wall = time.perf_counter() - t0
    if not state.converged:
        _warn_not_converged(state.residual, cfg.steady_tol, state.t)
    refdir.mkdir(parents=True, exist_ok=True)
    output.write_columns(path, dvm.dvm_moments(state, grid))
    _write_record(record_path, scenario, args.mach, cfg, state, wall, blocks=state.blocks)
    print(f"wrote {path} (t = {state.t:.6g}, {state.steps} steps)")
    return 0


def _warn_not_converged(residual: float | None, steady_tol: float, t: float) -> None:
    """The stderr line of `run` and `make-ref` for a steady search that reached
    t_max (before its first checkpoint, it measured no residual)."""
    measured = "none measured" if residual is None else f"{residual:.3g} >= {steady_tol:g}"
    print(f"not converged: residual {measured} at t = {t:.6g}", file=sys.stderr)


def cmd_compare(args) -> int:
    report = output.compare_files(args.file_a, args.file_b, args.column,
                                  normalize=args.normalize,
                                  align_center=args.align_center)
    print(report)
    return 0


def cmd_magnitude(args) -> int:
    field = iteration.field_preset(args.preset)
    taus = [args.tau_start * 0.5**k for k in range(args.tau_count)]
    rows = iteration.magnitude_table(field, taus, sweeps=args.sweeps,
                                     max_order=args.mmax,
                                     report_order=args.report_order)
    lines = ["alpha,order,predicted,measured,degenerate"]
    for r in rows:
        alpha = " ".join(str(a) for a in r.alpha)
        measured = "" if r.degenerate else format(r.measured, ".6g")
        lines.append(f"{alpha},{r.order},{r.predicted},{measured},{int(r.degenerate)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="regmom",
                                     description="Regularized moment method toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file of flag defaults")
        p.add_argument("--scenario", default="shock-tube",
                       choices=scenarios.BUILTIN_SCENARIOS)
        p.add_argument("--kn", type=float, default=None, help="Knudsen number")
        p.add_argument("--mach", type=float, default=None,
                       help="shock Mach number (shock-structure)")
        p.add_argument("--omega", type=float, default=None,
                       help="VHS exponent (default: the scenario's)")
        p.add_argument("--D", dest="dim", type=int, default=3, choices=(1, 2, 3))
        p.add_argument("--cells", type=int, default=None)
        p.add_argument("--cfl", type=float, default=0.95)

    p_run = sub.add_parser("run", help="integrate a scenario with the moment solver")
    common(p_run)
    p_run.add_argument("--M", dest="order", type=int, default=3, help="moment order")
    p_run.add_argument("--closure", default="linear", choices=("linear", "nonlinear"))
    p_run.add_argument("--tau", default=None, choices=("kn-over-rho", "vhs"),
                       help="relaxation-time model (default: the scenario's)")
    p_run.add_argument("--dump-coeffs", action="store_true",
                       help="append one column g<a>_<k> per axisymmetric coefficient")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_ref = sub.add_parser("make-ref", help="generate a discrete-velocity reference")
    common(p_ref)
    p_ref.add_argument("--nv", type=int, default=200, help="velocity nodes")
    p_ref.add_argument("--vmax", type=float, default=None)
    p_ref.add_argument("--force", action="store_true", help="overwrite cache")
    p_ref.add_argument("--out", default="refs", help="reference cache directory")
    p_ref.set_defaults(func=cmd_make_ref)

    p_cmp = sub.add_parser("compare", help="L1/Linf report between two CSV profiles")
    p_cmp.add_argument("file_a")
    p_cmp.add_argument("file_b")
    p_cmp.add_argument("--column", default="rho")
    p_cmp.add_argument("--normalize", action="store_true",
                       help="map far-field values to 0 and 1 first")
    p_cmp.add_argument("--align-center", action="store_true",
                       help="shift profiles so the half-level crossing is at x=0")
    p_cmp.set_defaults(func=cmd_compare)

    p_mag = sub.add_parser("magnitude",
                           help="tau-exponent table of the moment hierarchy")
    p_mag.add_argument("--preset", default="generic-3d",
                       choices=iteration.FIELD_PRESETS)
    p_mag.add_argument("--mmax", type=int, default=10, help="working moment order")
    p_mag.add_argument("--report-order", type=int, default=8)
    p_mag.add_argument("--sweeps", type=int, default=3)
    p_mag.add_argument("--tau-start", type=float, default=2e-2)
    p_mag.add_argument("--tau-count", type=int, default=5)
    p_mag.add_argument("--out", default=None)
    p_mag.set_defaults(func=cmd_magnitude)
    return parser, {"run": p_run, "make-ref": p_ref, "compare": p_cmp,
                    "magnitude": p_mag}


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = build_parser()
    args = _apply_config_defaults(parser, subparsers,
                                  sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except scenarios.SolverBreakdown as exc:
        print(f"breakdown: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
