"""Desk-scale graphical mean curvature flow.

Two backends, each one table of operations in `state.BACKENDS` that the
runner drives: periodic flat-torus grids (the exact nonparametric graph
system, zero ambient curvature) and an equivariant sphere-pair profile
(rotationally symmetric maps between 2-spheres, one function of the polar
angle).  Both track the monotone quantity Phi, the spectra and |A|^2.
"""

from .state import (EquivariantState, MonitorRecord, ScenarioConfig,
                    TorusState, initial_state, parse_scenario)
from .runner import run
from .torus import step_torus, torus_monitors
from .equivariant import equivariant_monitors, step_equivariant
from .consistency import consistency_residuals, convergence_study

__all__ = [
    "EquivariantState", "MonitorRecord", "ScenarioConfig", "TorusState",
    "initial_state", "parse_scenario", "run", "step_torus", "torus_monitors",
    "step_equivariant", "equivariant_monitors", "consistency_residuals",
    "convergence_study",
]
