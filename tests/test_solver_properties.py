"""Property tests of solver invariants over small random instances."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from svpose import so3  # noqa: E402
from svpose.energy import SymmetricModeScorer  # noqa: E402
from svpose.solver import coordinate_ascent, total_energy  # noqa: E402

GRID_SIZES = (8, 24, 72)
grids = {
    (g, n): so3.build_grid(n, generator=g, seed=5)
    for g in so3.GENERATOR_IDS
    for n in GRID_SIZES
}


@st.composite
def instances(draw):
    generator = draw(st.sampled_from(sorted(so3.GENERATOR_IDS)))
    grid = grids[(generator, draw(st.sampled_from(GRID_SIZES)))]
    n_cameras = draw(st.integers(2, 5))
    directional = draw(st.booleans())
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    pairs = [(i, j) for i in range(n_cameras) for j in range(n_cameras) if i < j]
    if directional:
        pairs += [(j, i) for i, j in pairs]
    modes = {p: so3.random_quats(rng, int(rng.integers(1, 4))) for p in pairs}
    kappa = draw(st.floats(0.1, 100.0))
    scorer = SymmetricModeScorer(modes=modes, kappa=kappa, directional=directional)
    init = [np.eye(3)] + [
        grid.rotations[int(k)] for k in rng.integers(0, grid.n, n_cameras - 1)
    ]
    return scorer, grid, init


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances())
def test_energy_trace_monotone_from_grid_init(instance):
    scorer, grid, init = instance
    start = total_energy(scorer, init)
    out = coordinate_ascent(scorer, init, grid, max_sweeps=4)
    trace = out.energy_trace
    assert trace[0] == start
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert out.total_energy >= start
    if out.sweeps_used < 4:
        # Converged: its last sweep accepted nothing, and that sweep is a
        # fixed point, so a rerun repeats it once and stops.
        again = coordinate_ascent(scorer, out, grid, max_sweeps=4)
        assert np.array_equal(again.rotations, out.rotations)
        assert again.total_energy == out.total_energy
        assert again.sweeps_used == 1
        assert again.energy_trace == [out.total_energy]
