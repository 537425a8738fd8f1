"""Property tests of solver invariants over small random instances."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from svpose import so3  # noqa: E402
from svpose.energy import (  # noqa: E402
    ConstantScorer,
    EnergyTable,
    SymmetricModeScorer,
    TableScorer,
)
from svpose.solver import best_pairwise, coordinate_ascent, mst_init, total_energy  # noqa: E402

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
    scorer = SymmetricModeScorer(modes=modes, kappa=kappa)
    assert scorer.directional == directional
    init = [np.eye(3)] + [
        so3.quat_to_matrix(grid.quats[int(k)]) for k in rng.integers(0, grid.n, n_cameras - 1)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 2**32 - 1))
def test_energy_invariant_to_rotating_the_world(instance, seed):
    # Scores see only relative rotations R_j R_i^T, which a common world
    # rotation W (R_i -> R_i W) leaves unchanged.
    scorer, _, _ = instance
    rng = np.random.Generator(np.random.PCG64(seed))
    n = max(max(pair) for pair in scorer.modes) + 1
    rotations = [so3.random_rotation(rng) for _ in range(n)]
    world = so3.random_rotation(rng)
    energy = total_energy(scorer, rotations)
    moved = total_energy(scorer, [r @ world for r in rotations])
    assert abs(moved - energy) <= 1e-9 * (1.0 + abs(energy))


def kruskal_reference(scorer, n_cameras, grid):
    # The spanning tree by Kruskal's algorithm over union-find, then
    # composed outward from camera 0 by a depth-first pass.
    edges = []
    for i in range(n_cameras):
        for j in range(i + 1, n_cameras):
            rot, score = best_pairwise(scorer, i, j, grid)
            if scorer.directional:
                rot_ji, score_ji = best_pairwise(scorer, j, i, grid)
                if score_ji > score:
                    rot, score = rot_ji.T, score_ji
            edges.append((-score, i, j, rot))
    edges.sort(key=lambda edge: edge[:3])
    root = list(range(n_cameras))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    adjacency = {c: [] for c in range(n_cameras)}
    for _, i, j, rot in edges:
        if find(i) != find(j):
            root[find(j)] = find(i)
            adjacency[i].append((j, rot))
            adjacency[j].append((i, rot.T))
    rotations = [np.eye(3)] * n_cameras
    seen, stack = {0}, [0]
    while stack:
        p = stack.pop()
        for c, rot in adjacency[p]:
            if c not in seen:
                rotations[c] = rot @ rotations[p]
                seen.add(c)
                stack.append(c)
    assert len(seen) == n_cameras
    return np.array(rotations)


@st.composite
def tied_scorers(draw):
    # Scorers whose pair maxima often tie: tables of small integers,
    # each pair stored in one drawn order or in both (directional), and
    # the constant scorer, where every edge ties.
    grid = grids[("super_fibonacci", draw(st.sampled_from(GRID_SIZES)))]
    n_cameras = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["one order", "directional", "constant"]))
    if kind == "constant":
        return ConstantScorer(draw(st.integers(-2, 2))), n_cameras, grid
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    rows = {}
    for i in range(n_cameras):
        for j in range(i + 1, n_cameras):
            if kind == "directional":
                orders = [(i, j), (j, i)]
            else:
                orders = [(i, j) if rng.random() < 0.5 else (j, i)]
            for pair in orders:
                top = rng.integers(1, 4)  # so that pair maxima differ, and tie
                rows[pair] = rng.integers(0, top + 1, grid.n).astype(np.float32)
    scorer = TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)
    assert scorer.directional == (kind == "directional")
    return scorer, n_cameras, grid


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tied_scorers())
def test_spanning_tree_matches_kruskal_reference_under_ties(instance):
    scorer, n_cameras, grid = instance
    got = mst_init(scorer, n_cameras, grid).rotations
    want = kruskal_reference(scorer, n_cameras, grid)
    assert got.tobytes() == want.tobytes()
