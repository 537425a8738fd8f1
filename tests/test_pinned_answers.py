"""The answers of the four search paths, pinned across refactors.

Each case is a small seeded 6-camera solve down one path of
`solver.grid_search`: the mode scorer dense and bounded by the cell
index, and a table dense and bounded by its nearest-table bucket
lists. Each pins every camera's grid index and the sweeps used. Indices,
not bytes, so hosts whose arccos rounds differently still agree.
"""

import pytest

from svpose import energy, so3
from svpose.energy import EnergyTable, TableScorer, score_over_grid
from svpose.solver import solve
from svpose.synth import RigSpec, generate_scene, scene_to_scorer

N = 6


def mode_scorer(seed):
    scene = generate_scene(RigSpec(n_cameras=N, seed=seed, jitter=0.05))
    return scene_to_scorer(scene, kappa=50.0, noise_angle=0.02)


def table_scorer(seed, grid):
    source = mode_scorer(seed)
    rows = {
        (i, j): score_over_grid(source, i, j, grid) for i in range(N) for j in range(i + 1, N)
    }
    return TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)


@pytest.mark.parametrize(
    "grid_n, make, bounded, indices, sweeps",
    [
        (576, lambda grid: mode_scorer(1), False, [458, 115, 105, 323, 105], 3),
        (36864, lambda grid: mode_scorer(2), True, [4466, 24371, 42, 23500, 36339], 3),
        (576, lambda grid: table_scorer(3, grid), False, [36, 456, 292, 536, 355], 2),
        (4608, lambda grid: table_scorer(4, grid), True, [3266, 2286, 1624, 3411, 3039], 2),
    ],
    ids=["mode-dense", "mode-bounded", "table-dense", "table-bounded"],
)
def test_seeded_solves_keep_their_answers(grid_n, make, bounded, indices, sweeps):
    grid = so3.build_grid(grid_n)
    scorer = make(grid)
    # A block update's terms: is the search bounded, as the case says?
    update = [(1, j, grid.quats[j], "i") for j in range(N) if j != 1]
    assert bool(scorer.block(grid, update).levels) == bounded
    if isinstance(scorer, TableScorer):
        assert (grid.n >= so3._COARSE_TABLE_POINTS) == bounded
    else:
        assert (grid.n * (N - 1) > energy._BOUND_WORK) == bounded
    hyp = solve(scorer, N, grid)
    assert [so3.nearest_in_grid(grid, r)[0] for r in hyp.rotations[1:]] == indices
    assert hyp.sweeps_used == sweeps
