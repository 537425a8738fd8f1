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
A search asks the scorer once for the block (`PairwiseScorer.block`),
then for the block's summed cell bounds and the summed scores of the
rows it picks. The mode scorer answers each of these with one stacked
comparison of the rows against the k modes of all T terms; the default
asks `cell_bounds` and `score_grid` once per term. The solver never
composes the G candidates itself; a camera still off the grid is scored
through the same terms at its own rotation, and an energy sums every
ordered pair, each in one `PairwiseScorer.score_pairs` call. When the
block bounds every term on the cells of the grid's cell index
(`PairwiseScorer.cell_bounds`) and the search is large enough
(`_BOUND_WORK`), the search is exact branch and bound over one level of
cells, in the manner of Hartley and Kahl's rotation search:
- the bounds of the cells, one T x C x k comparison for the mode scorer
  (C is 32, 256 and 2048 at G = 576, 4608 and 36864);
- exact scores of the best-bounded cell's points, whose maximum is a
  lower bound on the block's;
- exact scores of the points of every cell whose bound reaches it.
The last evaluation holds the camera's current grid index too, so the
argmax, its lowest-index tie-break and the strict-improvement test come
from one evaluation and match a dense search. Otherwise the whole grid
is scored as one cell: one T x G x k comparison.
"""

from dataclasses import dataclass, field

import numpy as np

from .so3 import SO3Grid, matrix_to_quat, nearest_in_grid, quat_conj, quat_mul

# A grid of G points searched for a camera with p partners is scored
# whole, as one cell, when G * p is at most _BOUND_WORK; larger searches
# are pruned by per-cell score bounds over the cell index. Bounded over
# whole-grid solve time with stacked blocks, mode scorer, four scenes,
# cell index built per solve, 2 CPUs (ranges over repeated runs):
# - G=4608: 2.21, 0.93, 0.57-0.60, 0.46, 0.39 with 4, 10, 20, 30, 40 cameras;
# - G=9216: 0.34 with 17;
# - G=18432: 0.72, 0.61, 0.48-0.70 with 8, 9, 10;
# - G=36864: 1.71-1.77, 1.24-1.32, 0.76-0.88, 0.70, 0.54-0.57, 0.40,
#   0.20 with 4, 5, 6, 7, 8, 10, 20.
# The limit is G=36864 with 5 cameras, the largest search that lost.
# There the cell index build (about 20 ms) outweighs the few searches
# it speeds up; smaller grids build it faster and win at smaller G * p,
# which one limit on G * p leaves dense.
_BOUND_WORK = 36864 * 4


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
    quats = np.array([matrix_to_quat(np.asarray(r, dtype=np.float64)) for r in rotations])
    n = len(quats)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if not pairs:
        return 0.0
    first, second = np.array(pairs).T
    rel = quat_mul(quats[second], quat_conj(quats[first]))
    total = 0.0
    for score in scorer.score_pairs(pairs, rel):
        total += float(score)
    return total


def grid_search(scorer, grid: SO3Grid, terms, n_partners, current=-1):
    """Grid index maximizing a sum of `score_grid` terms, lowest on ties.

    `terms` lists the (i, j, fixed, moving) arguments of each term, summed
    in order by the scorer's `block`. `n_partners` sizes the search
    against `_BOUND_WORK`. Returns the index, the sum there, and the sum
    at the grid index `current` (None when `current` is -1), all from one
    evaluation.
    """
    block = scorer.block(grid, terms)
    bound = block.bounds() if grid.n * n_partners > _BOUND_WORK else None
    rows = None  # the whole grid, as one cell
    if bound is not None:
        cells = grid.cells
        # A cell whose bound equals the floor is still searched: one of
        # its points may tie the maximum at a lower index.
        seed = _candidate_rows(cells.points([int(np.argmax(bound))]), current)
        floor = block.scores(seed).max()
        rows = _candidate_rows(cells.points(np.flatnonzero(bound >= floor)), current)
    obj = block.scores(rows)
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


def _summed_scores_at(scorer, terms, quat):
    # The block's terms with the moving camera at the off-grid rotation
    # `quat`, composed as `pair_quats` composes them (every block term
    # fixes its partner), in one product and one `score_pairs` call.
    left = [fixed if moving == "i" else quat for _, _, fixed, moving in terms]
    right = [quat if moving == "i" else fixed for _, _, fixed, moving in terms]
    rel = quat_mul(np.array(left), quat_conj(np.array(right)))
    total = 0.0
    for score in scorer.score_pairs([(i, j) for i, j, _, _ in terms], rel):
        total += score
    return float(total)


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
                cur = _summed_scores_at(scorer, terms, quats[i])
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
