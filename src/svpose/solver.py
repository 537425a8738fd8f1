"""Discrete global rotation recovery over a fixed SO(3) grid.

The objective is the sum of pairwise scores of relative rotations,

    E(R_1..R_N) = sum over ordered pairs (i, j), i != j, of
                  score(i, j, R_j R_i^T),

maximized camera-wise. The first camera is pinned to the identity; the
objective only sees relative rotations, so every solution is defined up
to a world rotation and the pin selects one representative.

Initialization composes the best pairwise rotations along a maximum
spanning tree; refinement is block coordinate ascent that searches the
full grid for one camera at a time and accepts strict improvements, so
the running energy never decreases.

A block update, like the search for a pair's best rotation, maximizes a
sum of `PairwiseScorer.score_grid` terms over the grid: one per partner
(two for a directional scorer), each with the partner's rotation fixed.
The solver never composes the G candidates itself; a camera still off
the grid is scored through the same terms at its own rotation,
composed by `energy.pair_quats`. When the scorer bounds every term on
the cells of the grid's cell index (`PairwiseScorer.cell_bounds`) and
the search is large enough (`_BOUND_WORK`), the search is
exact branch and bound over one level of cells, in the manner of
Hartley and Kahl's rotation search:
- the bounds of the about G/16 cells, one G/16 x k comparison per term
  for the mode scorer (k modes);
- exact scores of the best-bounded cell's points, whose maximum is a
  lower bound on the block's;
- exact scores of the points of every cell whose bound reaches it.
The last evaluation holds the camera's current grid index too, so the
argmax, its lowest-index tie-break and the strict-improvement test come
from one evaluation and match a dense search. Otherwise the whole grid
is scored as one cell: one G x k comparison per term.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import pair_quats
from .so3 import SO3Grid, matrix_to_quat, nearest_in_grid, quat_conj, quat_mul

# A grid of G points searched for a camera with p partners is scored
# whole, as one cell, when G * p is at most _BOUND_WORK; larger searches
# are pruned by per-cell score bounds over the cell index. Bounded over
# whole-grid solve time, mode scorer, four scenes, cell index built per
# solve, 2 CPUs: 1.16-1.72 at G=4608 (4 to 40 cameras); 3.15, 1.32,
# 1.16, 0.68 and 0.45 at G=36864 with 4, 6, 8, 10 and 20 cameras; 0.70
# at G=18432 with 10. Small grids gain nothing: the bound and candidate
# passes cost about what a dense pass does, and building the index
# costs more.
_BOUND_WORK = 1 << 18


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


def grid_search(scorer, grid: SO3Grid, terms, n_partners, current=-1):
    """Grid index maximizing a sum of `score_grid` terms, lowest on ties.

    `terms` lists the (i, j, fixed, moving) arguments of each term, summed
    in order. `n_partners` sizes the search against `_BOUND_WORK`.
    Returns the index, the sum there, and the sum at the grid index
    `current` (None when `current` is -1), all from one evaluation.
    """
    bounded = grid.n * n_partners > _BOUND_WORK
    bound = _summed_bounds(scorer, grid, terms) if bounded else None
    rows = None  # the whole grid, as one cell
    if bound is not None:
        cells = grid.cells
        # A cell whose bound equals the floor is still searched: one of
        # its points may tie the maximum at a lower index.
        seed = _candidate_rows(cells.points([int(np.argmax(bound))]), current)
        floor = _summed_scores(scorer, grid, terms, seed).max()
        rows = _candidate_rows(cells.points(np.flatnonzero(bound >= floor)), current)
    obj = _summed_scores(scorer, grid, terms, rows)
    a = int(np.argmax(obj))
    k = a if rows is None else int(rows[a])
    if current < 0:
        return k, float(obj[a]), None
    at = current if rows is None else int(np.searchsorted(rows, current))
    return k, float(obj[a]), float(obj[at])


def _candidate_rows(rows, current):
    """The ascending grid indices `rows`, plus `current` when it is not -1."""
    if current >= 0:
        at = int(np.searchsorted(rows, current))
        if at == rows.shape[0] or rows[at] != current:
            rows = np.insert(rows, at, current)
    return rows


def _summed_bounds(scorer, grid, terms):
    # Summed in the order of _summed_scores; rounding is monotone, so
    # the sum of bounds stays at least the sum of scores.
    total = 0.0
    for i, j, fixed, moving in terms:
        bound = scorer.cell_bounds(i, j, grid, fixed, moving=moving)
        if bound is None:
            return None
        total = total + bound
    return total


def _summed_scores(scorer, grid, terms, rows):
    # rows=None is the whole grid, asked without `rows` so scorers that
    # offer no bound need not accept it.
    extra = {} if rows is None else {"rows": rows}
    obj = np.zeros(grid.n if rows is None else rows.shape[0])
    for i, j, fixed, moving in terms:
        obj += scorer.score_grid(i, j, grid, fixed, moving=moving, **extra)
    return obj


def _summed_scores_at(scorer, terms, quats):
    # The terms of _summed_scores with the moving camera at each of the
    # off-grid rotations `quats`, through the compositions score_grid's
    # default makes.
    obj = np.zeros(quats.shape[0])
    for i, j, fixed, moving in terms:
        obj += scorer.score_quats(i, j, pair_quats(quats, fixed, moving))
    return obj


def best_pairwise(scorer, i, j, grid: SO3Grid, n_partners=1):
    """Grid rotation maximizing score(i, j, .), ties to the lowest index.

    `n_partners`, the partners each camera has in the problem, sizes the
    search (see `grid_search`).
    """
    if i == j:
        raise ValueError("pair indices must differ")
    k, best, _ = grid_search(scorer, grid, [(i, j, None, "j")], n_partners)
    return grid.rotations[k].copy(), best


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


def mst_init(scorer, n_cameras, grid: SO3Grid):
    """Spanning-tree initialization.

    Edge weight between two cameras is the best pairwise score (the
    better of the two directions for a directional scorer). Edges enter
    the tree in order of decreasing weight with lexicographic (i, j)
    tie-breaks, then rotations are composed outward from camera 0.
    """
    if n_cameras < 2:
        raise ValueError("need at least two cameras")
    rotations = [np.eye(3) for _ in range(n_cameras)]

    rel = {}
    edges = []
    for i in range(n_cameras):
        for j in range(i + 1, n_cameras):
            rot_ij, s_ij = best_pairwise(scorer, i, j, grid, n_cameras - 1)
            if scorer.directional:
                rot_ji, s_ji = best_pairwise(scorer, j, i, grid, n_cameras - 1)
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


def coordinate_ascent(scorer, init, grid: SO3Grid, max_sweeps=50):
    """Block coordinate ascent over cameras 2..N on the grid.

    `init` is a RotationHypothesis or a plain sequence of rotations; a
    hypothesis's `total_energy` is taken as the energy of its rotations.
    One block update finds the grid candidate for camera i that scores
    best against the current rotations of all other cameras
    (`grid_search`). A camera still off the
    grid (tree compositions usually are) is projected to the argmax
    candidate unconditionally, since the hypothesis space is the grid;
    once on the grid, updates are accepted only on strict improvement,
    so from that point the running energy never decreases. Stops after
    the first sweep with no accepted update, a fixed point every later
    sweep would repeat, or at max_sweeps.
    """
    if max_sweeps < 0:
        raise ValueError("max_sweeps must be non-negative")
    directional = scorer.directional
    init_rotations = getattr(init, "rotations", init)
    rotations = [np.array(r, dtype=np.float64) for r in init_rotations]
    n = len(rotations)
    quats = [matrix_to_quat(r) for r in rotations]

    def block_terms(i):
        # Camera i's block objective as score_grid terms of its candidate
        # S: one per partner, two when directional.
        terms = []
        for j in range(n):
            if j == i:
                continue
            # rel(i -> j) = R_j S^T: the pair's first camera moves.
            terms.append((i, j, quats[j], "i"))
            if directional:
                # rel(j -> i) = S R_j^T: the pair's second camera moves.
                terms.append((j, i, quats[j], "j"))
        return terms

    total = getattr(init, "total_energy", None)
    if total is None:
        total = total_energy(scorer, rotations)
    trace = [total]
    pair_factor = 1.0 if directional else 2.0
    sweeps_used = 0
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
            terms = block_terms(i)
            k, best, cur = grid_search(scorer, grid, terms, n - 1, on_grid[i])
            if cur is not None:
                accept = best > cur
            else:
                cur = float(_summed_scores_at(scorer, terms, quats[i][None, :])[0])
                accept = True
            if accept:
                rotations[i] = grid.rotations[k].copy()
                quats[i] = grid.quats[k].copy()
                on_grid[i] = k
                total += (best - cur) * pair_factor
                trace.append(total)
                changed = True
        if not changed:
            break

    final = total_energy(scorer, rotations)
    return RotationHypothesis(
        rotations=np.array(rotations),
        total_energy=final,
        sweeps_used=sweeps_used,
        energy_trace=trace,
    )


def solve(scorer, n_cameras, grid: SO3Grid, max_sweeps=50):
    """MST initialization followed by coordinate ascent."""
    init = mst_init(scorer, n_cameras, grid)
    return coordinate_ascent(scorer, init, grid, max_sweeps)
