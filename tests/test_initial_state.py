"""Each backend builds its own initial data; `initial_state` dispatches.

The references are the bodies that built the initial data in `state.py`
before they moved into the backends, less their error branches, with the
shared node array spelled as the `np.linspace` it was.
"""

import math

import numpy as np
import pytest

from areaflow.errors import ConfigurationError
from areaflow.flowsim import EquivariantState, ScenarioConfig, initial_state
from areaflow.flowsim.equivariant import source_side


def reference_torus(config):
    n, m, N = config.n, config.m, config.resolution
    axes = [np.arange(N) * (2.0 * math.pi / N) for _ in range(n)]
    grid = np.meshgrid(*axes, indexing="ij")
    u = np.zeros((m,) + (N,) * n)
    winding = np.zeros((m, n))
    if config.initial == "sine":
        for a in range(m):
            u[a] = config.amplitude * np.sin(grid[a % n])
    elif config.initial == "linear":
        for a in range(min(m, n)):
            winding[a, a] = config.amplitude
    return winding, u


def reference_equivariant(config):
    J = config.resolution
    r = np.linspace(0.0, math.pi, J + 1)
    if config.initial == "sine":
        rho = config.amplitude * np.sin(r)
    elif config.initial == "identity":
        rho = r.copy()
    else:
        rho = np.zeros(J + 1)
    return rho


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (1, 3)])
@pytest.mark.parametrize("initial", ["sine", "linear", "constant"])
def test_torus_initial_data_is_bitwise_the_reference(n, m, initial):
    config = ScenarioConfig(n=n, m=m, resolution=16, initial=initial, amplitude=0.37)
    state = initial_state(config)
    winding, u = reference_torus(config)
    assert same_bits(state.winding, winding) and same_bits(state.u, u)
    assert (state.n, state.m, state.resolution, state.t, state.steps) == (n, m, 16, 0.0, 0)


@pytest.mark.parametrize("J", [16, 64])
@pytest.mark.parametrize("initial", ["sine", "identity", "zero"])
def test_equivariant_initial_data_is_bitwise_the_reference(J, initial):
    config = ScenarioConfig(backend="equivariant_sphere", resolution=J, initial=initial,
                            amplitude=0.3)
    state = initial_state(config)
    assert same_bits(state.rho, reference_equivariant(config))
    assert (state.resolution, state.t, state.steps) == (J, 0.0, 0)
    # the profile is the state's own array, not the shared grid
    assert state.rho.flags.writeable


@pytest.mark.parametrize("J", [16, 64])
def test_state_nodes_are_the_grid_nodes(J):
    state = EquivariantState(resolution=J, rho=np.zeros(J + 1))
    assert state.r is source_side(J)["r"]
    assert same_bits(state.r, np.linspace(0.0, math.pi, J + 1))


@pytest.mark.parametrize("backend", ["torus", "equivariant_sphere"])
def test_unknown_initial_data_is_a_configuration_error(backend):
    config = ScenarioConfig(backend=backend, initial="spiral")
    with pytest.raises(ConfigurationError, match="unknown .* initial data 'spiral'"):
        initial_state(config)
