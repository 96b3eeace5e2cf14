"""Each run setting has one owner.

The Scenario holds the physics, the domain and the far fields, whose absence
makes the mesh periodic; the solvers' configs hold only numerics.  The stop
rule (t_stop, steady_tol, t_max) is the one overlap: a config starts from the
scenario's rule and a caller may tighten or relax it for one run.
"""
import math
from dataclasses import fields, replace

import pytest

from regmom.dvm import DVMConfig
from regmom.scenarios import Scenario, shock_structure, shock_tube
from regmom.solver import SolverConfig

STOP_RULE = {"t_stop", "steady_tol", "t_max"}


def names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
def test_config_shares_only_the_stop_rule_with_the_scenario(config):
    assert names(config) & names(Scenario) == STOP_RULE


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
@pytest.mark.parametrize("bad", [dict(t_stop=math.nan), dict(t_stop=-1.0), dict(t_stop=0.0),
                                 dict(t_stop=math.inf), dict(steady_tol=math.nan),
                                 dict(steady_tol=0.0), dict(t_max=math.nan),
                                 dict(t_max=-1.0), dict(t_max=math.inf)],
                         ids=lambda bad: " ".join(f"{k}={v}" for k, v in bad.items()))
def test_config_rejects_a_stop_rule_that_stops_before_any_step(config, bad):
    # a run that stops at t = 0 after no step would report itself converged;
    # replace() runs the same check, and the scenarios' own rules pass it
    numerics = {SolverConfig: dict(order=3), DVMConfig: dict(n_v=10, v_max=5.0)}[config]
    for sc in (shock_tube(), shock_structure(2.0)):
        cfg = config.from_scenario(sc, n_cells=8, **numerics)
        with pytest.raises(ValueError, match=next(iter(bad))):
            replace(cfg, **bad)
    with pytest.raises(ValueError, match="positive and finite"):
        config(n_cells=8, **numerics, **bad)
