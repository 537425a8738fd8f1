"""Discrete global rotation recovery over a fixed SO(3) grid.

The objective is the sum of pairwise scores of relative rotations,

    E(R_1..R_N) = sum over ordered pairs (i, j), i != j, of
                  score(i, j, R_j R_i^T),

maximized camera-wise. The first camera is pinned to the identity; the
objective only sees relative rotations, so every solution is defined up
to a world rotation and the pin selects one representative.

Initialization composes the best pairwise rotations along a maximum
spanning tree; refinement is block coordinate ascent that re-scores the
full grid for one camera at a time and accepts strict improvements, so
the running energy never decreases.

A block update asks the scorer for each partner's scores over the whole
grid with the partner's rotation fixed (`PairwiseScorer.score_grid`)
and never composes the G candidates itself. For the mode scorer that
costs one G x k comparison of the grid against the partner-composed
modes per partner, where k is the pair's number of modes.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import score_over_grid
from .so3 import SO3Grid, matrix_to_quat, nearest_in_grid, quat_conj, quat_mul


@dataclass
class SolverConfig:
    max_sweeps: int = 50
    patience: int = 1
    # None defers to the scorer's own directionality flag.
    directional: bool | None = None

    def __post_init__(self):
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass
class RotationHypothesis:
    """Solver output: rotations with the first camera at identity."""

    rotations: np.ndarray
    total_energy: float
    sweeps_used: int
    # Running ordered-pair energy after init and after each accepted
    # update; non-decreasing by construction.
    energy_trace: list = field(default_factory=list)


def total_energy(scorer, rotations):
    """Ordered-pair energy, accumulated in a fixed lexicographic order."""
    rotations = [np.asarray(r, dtype=np.float64) for r in rotations]
    quats = [matrix_to_quat(r) for r in rotations]
    total = 0.0
    n = len(rotations)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rel = quat_mul(quats[j], quat_conj(quats[i]))
            total += float(scorer.score_quats(i, j, rel[None, :])[0])
    return total


def best_pairwise(scorer, i, j, grid: SO3Grid):
    """Grid rotation maximizing score(i, j, .), ties to the lowest index."""
    scores = score_over_grid(scorer, i, j, grid)
    k = int(np.argmax(scores))
    return grid.rotations[k].copy(), float(scores[k])


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def mst_init(scorer, n_cameras, grid: SO3Grid, directional=None):
    """Spanning-tree initialization.

    Edge weight between two cameras is the best pairwise score (the
    better of the two directions for a directional scorer). Edges enter
    the tree in order of decreasing weight with lexicographic (i, j)
    tie-breaks, then rotations are composed outward from camera 0.
    """
    if n_cameras < 2:
        raise ValueError("need at least two cameras")
    if directional is None:
        directional = scorer.directional
    rotations = [np.eye(3) for _ in range(n_cameras)]

    rel = {}
    edges = []
    for i in range(n_cameras):
        for j in range(i + 1, n_cameras):
            rot_ij, s_ij = best_pairwise(scorer, i, j, grid)
            if directional:
                rot_ji, s_ji = best_pairwise(scorer, j, i, grid)
                if s_ji > s_ij:
                    rot_ij, s_ij = rot_ji.T, s_ji
            rel[(i, j)] = rot_ij
            edges.append((-s_ij, i, j))
    edges.sort()

    uf = _UnionFind(n_cameras)
    adjacency = {i: [] for i in range(n_cameras)}
    taken = 0
    for _, i, j in edges:
        if uf.union(i, j):
            adjacency[i].append(j)
            adjacency[j].append(i)
            taken += 1
            if taken == n_cameras - 1:
                break

    # Compose R_child = rel(parent -> child) @ R_parent outward from 0.
    seen = [False] * n_cameras
    seen[0] = True
    stack = [0]
    while stack:
        p = stack.pop()
        for c in adjacency[p]:
            if seen[c]:
                continue
            m = rel[(p, c)] if p < c else rel[(c, p)].T
            rotations[c] = m @ rotations[p]
            seen[c] = True
            stack.append(c)
    rotations = np.array(rotations)
    start = total_energy(scorer, rotations)
    return RotationHypothesis(
        rotations=rotations,
        total_energy=start,
        sweeps_used=0,
        energy_trace=[start],
    )


def coordinate_ascent(
    scorer,
    init,
    grid: SO3Grid,
    max_sweeps=50,
    patience=1,
    directional=None,
):
    """Block coordinate ascent over cameras 2..N on the grid.

    `init` is a RotationHypothesis or a plain sequence of rotations.
    One block update re-scores every grid candidate for camera i against
    the current rotations of all other cameras. A camera still off the
    grid (tree compositions usually are) is projected to the argmax
    candidate unconditionally, since the hypothesis space is the grid;
    once on the grid, updates are accepted only on strict improvement,
    so from that point the running energy never decreases. Stops after
    `patience` consecutive sweeps without an accepted update, or at
    max_sweeps.
    """
    if directional is None:
        directional = scorer.directional
    init_rotations = getattr(init, "rotations", init)
    rotations = [np.array(r, dtype=np.float64) for r in init_rotations]
    n = len(rotations)
    quats = [matrix_to_quat(r) for r in rotations]

    def block_scores(i):
        # Scores for every candidate S at camera i, summed over pairs.
        obj = np.zeros(grid.n)
        for j in range(n):
            if j == i:
                continue
            # rel(i -> j) = R_j S^T: the pair's first camera moves.
            obj += scorer.score_grid(i, j, grid, quats[j], moving="i")
            if directional:
                # rel(j -> i) = S R_j^T: the pair's second camera moves.
                obj += scorer.score_grid(j, i, grid, quats[j], moving="j")
        return obj

    def current_objective(i):
        cur = 0.0
        for j in range(n):
            if j == i:
                continue
            rel = quat_mul(quats[j][None, :], quat_conj(quats[i])[None, :])
            cur += float(scorer.score_quats(i, j, rel[0][None, :])[0])
            if directional:
                rev = quat_mul(quats[i][None, :], quat_conj(quats[j])[None, :])
                cur += float(scorer.score_quats(j, i, rev[0][None, :])[0])
        return cur

    total = total_energy(scorer, rotations)
    trace = [total]
    pair_factor = 1.0 if directional else 2.0
    sweeps_used = 0
    quiet = 0
    # Grid index of each camera's current rotation, -1 while off-grid.
    # Rotations bitwise equal to a grid rotation count as on-grid, so an
    # init built from grid rotations is not needlessly re-projected.
    on_grid = [-1] * n
    for i in range(n):
        k, _ = nearest_in_grid(grid, rotations[i])
        if np.array_equal(rotations[i], grid.rotations[k]):
            on_grid[i] = k
    for _ in range(max_sweeps):
        sweeps_used += 1
        changed = False
        for i in range(1, n):
            obj = block_scores(i)
            k = int(np.argmax(obj))
            if on_grid[i] >= 0:
                cur = float(obj[on_grid[i]])
                accept = float(obj[k]) > cur
            else:
                cur = current_objective(i)
                accept = True
            if accept:
                rotations[i] = grid.rotations[k].copy()
                quats[i] = grid.quats[k].copy()
                on_grid[i] = k
                total += (float(obj[k]) - cur) * pair_factor
                trace.append(total)
                changed = True
        if changed:
            quiet = 0
        else:
            quiet += 1
            if quiet >= patience:
                break

    final = total_energy(scorer, rotations)
    return RotationHypothesis(
        rotations=np.array(rotations),
        total_energy=final,
        sweeps_used=sweeps_used,
        energy_trace=trace,
    )


def solve(scorer, n_cameras, grid: SO3Grid, config: SolverConfig | None = None):
    """MST initialization followed by coordinate ascent."""
    if config is None:
        config = SolverConfig()
    init = mst_init(scorer, n_cameras, grid, directional=config.directional)
    return coordinate_ascent(
        scorer,
        init,
        grid,
        max_sweeps=config.max_sweeps,
        patience=config.patience,
        directional=config.directional,
    )
