"""Time-to-solution benchmark of regmom: one workload per call.

    python3 bench/run.py --workload tube-kn0.5-m9 --seed 1 --seconds 20 --trace 0

Each solve runs in a fresh child process (``workloads.py``), because glibc's
malloc thresholds, and with them the page-fault cost of the solver's
temporaries, depend on what ran before in the same process.  Even in a fresh
process they depend on Python's hash seed and on the process's arguments, so
the M = 9 tube runs 1.8 M to 3.4 M minor faults, and 9.5 s to 14.5 s, from
one process to the next.  A run therefore solves whole rounds of ROUND[workload]
children and reports the mean solve time per child of the round.

--trace 0  runs rounds while the next round, at the pace of the slowest child
           so far, would end within ``--seconds`` (at least one round), and
           prints solve_s (mean over the children), setup_s and peak_rss_mb
           (medians over the children).
--trace 1  solves it once untraced and once with spans around each layer
           call, and prints the per-layer metrics; trace.overhead_s is the
           difference of the two solve times.

Every child checks its outputs; ``correct`` is false if any check fails or
the children disagree on the step count.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The workload
inputs are fixed: ``--seed`` is recorded and changes nothing.  The
environment is passed on untouched (no MALLOC_*, *_NUM_THREADS or
PYTHONHASHSEED settings).
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("tube-kn0.5-m9", "structure-mach9-r20", "dvm-tube-kn0.02")
# Children per round.  The tube's fault count, and with it its solve time,
# spreads by about 9 % from one process to the next; the structure and the
# DVM vary by a few per cent.
ROUND = {"tube-kn0.5-m9": 5, "structure-mach9-r20": 1, "dvm-tube-kn0.02": 2}
CHILD_CAP_S = 150.0      # a run starts no further child past this, to end within 180 s
PER_LAYER_UNITS = {
    "solver.step.count": "count",
    "state.project_coeffs.calls": "count",
    "state.project_coeffs.ns_per_row_coeff": "ns",
    "solver.flux_coefficients.ns_per_row_coeff": "ns",
    "state.recovery.ns_per_cell": "ns",
    "closure.top.ns_per_face_coeff": "ns",
    "solver.tridiag.calls": "count",
    "solver.tridiag.ns_per_cell_col": "ns",
    "solver.step.self_ns_per_cell_coeff": "ns",
    "solver.run.self_s": "s",
    "solver.step.first_s": "s",
    "indices.pad_zero.calls": "count",
    "indices.pad_zero.ns_per_value": "ns",
    "hermite.hermite_roots.calls": "count",
    "scenarios.tau.ns_per_cell": "ns",
    "dvm.step.count": "count",
    "dvm.step.ns_per_cell_node": "ns",
    "dvm.discrete_maxwellian.ns_per_cell_node": "ns",
    "dvm.step.self_ns_per_cell_node": "ns",
    "output.write.ns_per_value": "ns",
    "proc.minflt": "count",
    "proc.utime_s": "s",
    "proc.stime_s": "s",
    "trace.overhead_s": "s",
}


def machine() -> dict:
    """Where the figures were taken; read without running other programs."""
    import numpy
    import scipy
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.__config__.CONFIG.get("Build Dependencies", {})
                    .get("blas", {}).get("version", "unknown"),
        "openblas_threads": _openblas_threads(numpy),
        "env": {k: v for k, v in os.environ.items()
                if k.startswith("MALLOC_") or k.endswith("_NUM_THREADS")},
        "revision": _revision(),
    }
    return info


def _openblas_threads(numpy) -> int | str:
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="ascii").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="ascii").strip() if target.is_file() else ref
    return ref


def solve_once(workload: str, traced: bool, timeout: float) -> dict | None:
    """One cold solve in a child process; None when it fails."""
    out_dir = OUT / workload
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(spawn_ns),
             "1" if traced else "0", str(out_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    records: list[dict] = []
    failed = 0
    longest = 0.0
    plan = [False, True] if trace else [False] * ROUND[workload]
    while True:
        for traced in plan:
            t0 = time.monotonic()
            rec = solve_once(workload, traced, timeout=max(10.0, 170.0 - (t0 - start)))
            longest = max(longest, time.monotonic() - t0)
            if rec is None:
                failed += 1
                break
            records.append(rec)
            print(f"{workload}: traced={int(traced)}: setup {rec['setup_s']:.3f} s, "
                  f"solve {rec['solve_s']:.3f} s, {rec['steps']} steps, "
                  f"rss {rec['peak_rss_mb']:.1f} MB, minflt {rec['proc.minflt']}, checks "
                  + ", ".join(f"{k}={c['value']:.3g}{'' if c['ok'] else ' FAIL'}"
                              for k, c in rec["checks"].items()), file=sys.stderr)
        elapsed = time.monotonic() - start
        if trace or failed or elapsed + longest * len(plan) > min(seconds, CHILD_CAP_S):
            break
    attempted = len(records) + failed
    correct = bool(records) and all(r["correct"] for r in records) \
        and len({r["steps"] for r in records}) == 1
    plain = [r for r in records if not r["traced"]]
    if trace:
        metrics = _per_layer(plain, [r for r in records if r["traced"]])
    else:
        metrics = {
            "solve_s": {"value": statistics.fmean(r["solve_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        } if plain else {}
    OUT.mkdir(exist_ok=True)
    (OUT / workload).mkdir(exist_ok=True)
    (OUT / workload / f"last_run_trace{int(trace)}.json").write_text(
        json.dumps({"machine": machine(), "seed": seed, "seconds": seconds,
                    "records": records},
                   indent=1) + "\n", encoding="ascii")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    if not plain or not traced:
        return {}
    values = dict(traced[0]["layers"])
    for key in ("proc.minflt", "proc.utime_s", "proc.stime_s"):
        values[key] = plain[0][key]
    values["trace.overhead_s"] = traced[0]["solve_s"] - plain[0]["solve_s"]
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the workload inputs are fixed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "regmom" / "__init__.py").is_file():
        print(f"no regmom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = bench(name, args.seed, args.seconds, bool(args.trace))
        if not result["metrics"]:
            print(f"{name}: no solve completed", file=sys.stderr)
            status = 1
            continue
        if args.workload == "all":
            print(f"{name}: correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, "
                  + ", ".join(f"{k} = {m['value']:.6g} {m['unit']}"
                              for k, m in result["metrics"].items()))
        else:
            print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
