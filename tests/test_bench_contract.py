"""The benchmark's tracer wraps library names by attribute lookup.

``bench/workloads.py --trace 1`` replaces names such as ``solver.pad_zero``
or ``dvm.discrete_maxwellian`` with recording wrappers.  A name that is
deleted or renamed in the library breaks that run, so this test installs
every wrapper once, then restores them, without running a workload.  The
files under ``bench/`` are only imported, never changed.
"""
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name, None) for name in ("workloads", "tracing", "riemann")}
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        for name, mod in saved.items():
            sys.modules.pop(name, None)
            if mod is not None:
                sys.modules[name] = mod


def test_trace_wrappers_install_and_restore(bench_modules):
    workloads, tracing = bench_modules
    from regmom import closure, dvm, scenarios, solver, state

    owners = [(solver, "step"), (solver, "project_coeffs"), (solver, "pad_zero"),
              (state, "pad_zero"), (solver, "hermite_roots"),
              (closure.TopOrderClosure, "linear"), (dvm, "dvm_step"),
              (dvm, "discrete_maxwellian"), (scenarios.TauModel, "tau")]
    before = {(id(o), a): getattr(o, a) for o, a in owners}
    hooks_before = list(sys.meta_path)
    tr = tracing.Tracer()
    workloads._trace_moment(tr)
    workloads._trace_dvm(tr)
    assert all(getattr(o, a) is not before[(id(o), a)] for o, a in owners)
    tr.close()
    assert all(getattr(o, a) is before[(id(o), a)] for o, a in owners)
    assert sys.meta_path == hooks_before
