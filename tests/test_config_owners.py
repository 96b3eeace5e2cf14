"""Each run setting has one owner.

The Scenario holds the physics, the domain and the far fields, whose absence
makes the mesh periodic; the solvers' configs hold only numerics.  What both
solvers' runs share, the mesh, CFL number and stop rule, is declared once, in
RunConfig, and each solver's config adds its own numerics.  The stop rule
(t_stop, steady_tol, t_max) is the one overlap with the scenario: a config
starts from the scenario's rule and a caller may tighten or relax it for one
run.
"""
import math
from dataclasses import fields, replace

import pytest

from regmom.dvm import DVMConfig, dvm_run
from regmom.scenarios import RunConfig, Scenario, shock_structure, shock_tube
from regmom.solver import SolverConfig, make_state, run

STOP_RULE = {"t_stop", "steady_tol", "t_max"}
NUMERICS = {SolverConfig: dict(order=3), DVMConfig: dict(n_v=10, v_max=5.0)}


def names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
def test_config_shares_only_the_stop_rule_with_the_scenario(config):
    assert names(config) & names(Scenario) == STOP_RULE


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
def test_config_declares_none_of_the_run_fields_itself(config):
    # the mesh, CFL number and stop rule are RunConfig's; a solver's config
    # declares only its own numerics
    own = set(vars(config).get("__annotations__", {}))
    assert issubclass(config, RunConfig)
    assert own == {SolverConfig: {"order", "closure"}, DVMConfig: {"n_v", "v_max"}}[config]
    assert not own & names(RunConfig)
    assert names(config) == names(RunConfig) | own


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
@pytest.mark.parametrize("bad", [dict(t_stop=math.nan), dict(t_stop=-1.0), dict(t_stop=0.0),
                                 dict(t_stop=math.inf), dict(steady_tol=math.nan),
                                 dict(steady_tol=0.0), dict(t_max=math.nan),
                                 dict(t_max=-1.0), dict(t_max=math.inf)],
                         ids=lambda bad: " ".join(f"{k}={v}" for k, v in bad.items()))
def test_config_rejects_a_stop_rule_that_stops_before_any_step(config, bad):
    # a run that stops at t = 0 after no step would report itself converged;
    # replace() runs the same check, and the scenarios' own rules pass it
    numerics = NUMERICS[config]
    for sc in (shock_tube(), shock_structure(2.0)):
        cfg = config.from_scenario(sc, n_cells=8, **numerics)
        with pytest.raises(ValueError, match=next(iter(bad))):
            replace(cfg, **bad)
    with pytest.raises(ValueError, match="positive and finite"):
        config(n_cells=8, **numerics, **bad)


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
@pytest.mark.parametrize("t_stop", [1e-13, 5e-13, 1e-300])
def test_a_run_to_a_tiny_stop_time_takes_its_step(config, t_stop):
    # the stop rule's check promises at least one step; the end tolerance is
    # relative to the end time, so no positive t_stop counts as reached at t = 0
    sc = shock_tube()
    cfg = config.from_scenario(sc, n_cells=8, t_stop=t_stop, **NUMERICS[config])
    if config is SolverConfig:
        state = run(make_state(sc, cfg), cfg)
    else:
        state, _ = dvm_run(sc, cfg)
    assert (state.steps, state.t, state.converged) == (1, t_stop, True)
