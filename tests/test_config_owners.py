"""Each run setting has one owner.

The Scenario holds the physics, the domain and the far fields, whose absence
makes the mesh periodic; the solvers' configs hold only numerics.  The stop
rule (t_stop, steady_tol, t_max) is the one overlap: a config starts from the
scenario's rule and a caller may tighten or relax it for one run.
"""
from dataclasses import fields

import pytest

from regmom.dvm import DVMConfig
from regmom.scenarios import Scenario
from regmom.solver import SolverConfig

STOP_RULE = {"t_stop", "steady_tol", "t_max"}


def names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


@pytest.mark.parametrize("config", [SolverConfig, DVMConfig])
def test_config_shares_only_the_stop_rule_with_the_scenario(config):
    assert names(config) & names(Scenario) == STOP_RULE
