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

Both use one search, `grid_search`, over groups of
`PairwiseScorer.score_grid` terms: it maximizes each group's sum of
terms over the grid. A block update is one group, a term per partner
(two for a directional scorer), each with the partner's rotation
fixed; the spanning tree is one group per pair and order, searched
together. The search asks the scorer once for its block
(`PairwiseScorer.block`), then for each term's bounds and its scores
at the rows it picks. The mode scorer answers each question with one
stacked comparison against the k modes of all T terms; the default
block offers no bound and answers each term's whole-grid `score_grid`
row. Every sum of the objective, a group's bounds and scores, an
energy and a camera's value off the grid, goes through `_summed`, in
term order from 0.0. The solver never composes the G candidates
itself; an energy, or a camera still off the grid, is scored at its
own relative rotations in one `PairwiseScorer.score_pairs` call.

When the block offers bounds and the search is large enough
(`_BOUND_WORK`), the search is exact branch and bound over two levels
of the nested cube map, in the manner of Hartley and Kahl's rotation
search. The C cells of the grid's cell index are the children of its P
parents, the buckets one level up (C is 32, 256 and 2048 and P is 4,
32 and 256 at G = 576, 4608 and 36864). For every group at once, each
against its own floor:
- the bounds of the P parents, one T x P x k comparison for the mode
  scorer;
- a floor, a lower bound on the maximum: the exact score at the
  camera's current grid index, or else the best exact score among the
  points of the best-bounded child of the best-bounded parent;
- the bounds of the children of every parent whose bound reaches the
  floor;
- exact scores of the points of every child whose bound reaches it.
A search thus bounds P parents plus the children of the parents that
survive. At G=36864, in 20-camera scenes, that is 256 parents and
about 33 of the 2048 cells per block update, and 256 parents and 42
cells per spanning-tree pair. The last evaluation holds the camera's
current grid index too, so the argmax, its lowest-index tie-break and
the strict-improvement test come from one evaluation and match a dense
search. Groups are taken in chunks of `_STACK_PAIRS` (group, parent)
pairs. Otherwise each group's whole grid is scored as one cell: one
T x G x k comparison for a block update.
"""

from dataclasses import dataclass, field

import numpy as np

from .so3 import SO3Grid, matrix_to_quat, nearest_in_grid, quat_conj, quat_mul

# A search over a grid of G points whose terms name p + 1 cameras is
# scored whole, as one cell, when G * p is at most _BOUND_WORK; larger
# searches are pruned by two-level bounds over the cell index. Bounded
# over whole-grid solve time with two-level bounds and the stacked
# spanning-tree search, mode scorer, four scenes, cell index built per
# solve, 2 CPUs (ranges over two runs, single values from one):
# - G=4608: 2.14-3.53, 1.39-1.58, 0.55-0.71, 0.31-0.36, 0.38, 0.28 with
#   4, 6, 10, 20, 30, 40 cameras;
# - G=9216: 0.91-0.96, 0.24-0.35 with 8, 17;
# - G=18432: 1.37-1.38, 0.49-0.54, 0.23-0.32 with 5, 8, 10;
# - G=36864: 2.84-3.37, 1.68-1.77, 1.27-1.32, 0.82-0.89, 0.56, 0.43-0.47,
#   0.22, 0.14 with 3, 4, 5, 6, 7, 8, 10, 20.
# The limit is G=36864 with 5 cameras, still the largest search that
# lost. There the cell index build (about 17 ms) outweighs the few
# searches it speeds up; smaller grids build it faster and win at
# smaller G * p (G=4608 from 10 cameras, G=18432 from 8), which one
# limit on G * p leaves dense.
_BOUND_WORK = 36864 * 4
# (group, parent) pairs per chunk of a bounded search, which keeps each
# temporary a few hundred kB however many cameras there are: 64 pairs
# at G=36864, where the spanning tree's 190 would otherwise take 2.5 MB.
_STACK_PAIRS = 1 << 14


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
    pairs = [(i, j) for i in range(len(quats)) for j in range(len(quats)) if i != j]
    if not pairs:
        return 0.0
    first, second = np.array(pairs).T
    return _pair_sum(scorer, pairs, quats[second], quats[first])


def _pair_sum(scorer, pairs, left, right):
    # The summed scores of pairs[m] at relative rotation left[m] right[m]^-1:
    # one product and one `score_pairs` call for all of them.
    rel = quat_mul(left, quat_conj(right))
    return float(_summed(np.asarray(scorer.score_pairs(pairs, rel))))


def _summed(terms):
    """The rows of an array, along its first axis, summed in order from 0.0.

    None, a block's answer when it offers no bound, stays None.
    """
    if terms is None:
        return None
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def grid_search(scorer, grid: SO3Grid, groups, current=-1):
    """Each group's grid index maximizing its sum of terms, lowest on ties.

    `groups` lists equally long lists of the (i, j, fixed, moving)
    arguments of `score_grid` terms; a group's terms are summed in
    order from 0.0 (`_summed`). Returns each group's (index, value,
    value at `current`): its first maximum, the sum there and the sum
    at grid index `current`, all from one evaluation. `current` is -1,
    giving None, or needs a single group. The search is sized against
    `_BOUND_WORK` by the cameras its terms name, less one.
    """
    size = len(groups[0]) if groups else 0
    if any(len(group) != size for group in groups):
        raise ValueError("groups must hold equally many terms")
    if current >= 0 and len(groups) != 1:
        raise ValueError("a current index needs exactly one group")
    terms = [term for group in groups for term in group]
    block = scorer.block(grid, terms)
    # Column g holds group g's term indices into the block.
    ids = np.arange(len(terms)).reshape(len(groups), size).T
    partners = len({c for i, j, _, _ in terms for c in (i, j)}) - 1
    found = []
    if grid.n * partners > _BOUND_WORK:
        step = max(1, _STACK_PAIRS // grid.cells.parent_radius.shape[0])
        for s in range(0, len(groups), step):
            part = _bounded(grid.cells, block, ids[:, s : s + step], current)
            if part is None:
                found = []
                break
            at, rows, obj = part
            cur = None if current < 0 else float(obj[np.searchsorted(rows, current)])
            found += [(int(rows[m]), float(obj[m]), cur) for m in _first_max(obj, at)]
        else:
            return found
    for g in range(len(groups)):
        obj = _summed(block.scores(ids[:, g, None]))
        k = int(np.argmax(obj))
        found.append((k, float(obj[k]), None if current < 0 else float(obj[current])))
    return found


def _bounded(cells, block, ids, current=-1):
    """Exact two-level branch and bound for each column of `ids`, or None.

    Column m of `ids` lists search m's terms in `block`, whose bounds
    and scores it sums; None when the block offers no bound. Returns the
    (at, rows, obj) of the last evaluation, grouped by search, each
    search's rows ascending: the points of every cell that can hold a
    search's maximum, and `current` (for one search, unless -1).
    """

    n = ids.shape[1]

    def terms(at):
        # Search at[m]'s terms; a lone search's broadcast, not gathered.
        return ids if n == 1 else ids[:, at]

    def bound(at, centers, radius):
        # At least search at[m]'s objective at every grid point within
        # half-angle radius[m] of centers[m], the three broadcast together.
        return _summed(block.bounds(terms(at), centers, radius))

    def score(at, rows):
        return _summed(block.scores(terms(at), rows))

    searches = np.arange(n)
    top = bound(searches[:, None], cells.parent_centers, cells.parent_radius)
    if top is None:
        return None
    top = np.reshape(top, (n, -1))
    # The floor is a lower bound on each search's maximum: the score at
    # `current`, or else the best score among the points of the best
    # child of the search's best parent.
    if current >= 0:
        floor = score(searches, np.array([current]))
    else:
        at, kids = _children(cells, searches, top.argmax(axis=1))
        seed = kids[_first_max(bound(at, cells.centers[kids], cells.radius[kids]), at)]
        at, rows = _owned(cells, searches, seed, -1)
        floor = np.maximum.reduceat(score(at, rows), _starts(at))
    # A parent or cell whose bound equals the floor is still searched:
    # one of its points may tie the maximum at a lower index.
    search, parent = np.nonzero(top >= floor[:, None])
    at, kids = _children(cells, search, parent)
    keep = bound(at, cells.centers[kids], cells.radius[kids]) >= floor[at]
    at, rows = _owned(cells, at[keep], kids[keep], current)
    return at, rows, score(at, rows)


def _children(cells, searches, parents):
    # The cells of parents[m], each tagged with its search searches[m].
    kids, counts = cells.children(parents)
    return np.repeat(searches, counts), kids


def _owned(cells, searches, kids, current):
    # The grid points of cells kids[m] for search searches[m], ascending
    # within each search, and `current` for search 0 unless it is -1.
    rows, counts = cells.owned(kids)
    g = cells.owner.shape[0]
    key = np.sort(np.repeat(searches, counts) * g + rows)
    if current >= 0:
        at = int(np.searchsorted(key, current))
        if at == key.shape[0] or key[at] != current:
            key = np.insert(key, at, current)
    return key // g, key % g


def _starts(at):
    # Where each search's run begins in the grouped array `at`.
    return np.flatnonzero(np.diff(at, prepend=-1))


def _first_max(values, at):
    # The position of each search's first maximum among `values`.
    starts = _starts(at)
    best = np.maximum.reduceat(values, starts)
    pos = np.where(values == best[at], np.arange(values.shape[0]), values.shape[0])
    return np.minimum.reduceat(pos, starts)


def best_pairwise(scorer, i, j, grid: SO3Grid):
    """Grid rotation maximizing score(i, j, .), ties to the lowest index."""
    if i == j:
        raise ValueError("pair indices must differ")
    [(k, best, _)] = grid_search(scorer, grid, [[(i, j, None, "j")]])
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

    # Every pair's best rotation in one search, a group per pair and
    # order (both orders for a directional scorer).
    pairs = [(i, j) for i in range(n_cameras) for j in range(i + 1, n_cameras)]
    groups = [[(i, j, None, "j")] for i, j in pairs]
    if scorer.directional:
        groups += [[(j, i, None, "j")] for i, j in pairs]
    found = grid_search(scorer, grid, groups)
    rel = {}
    edges = []
    for t, (i, j) in enumerate(pairs):
        k, s_ij, _ = found[t]
        rot_ij = grid.rotations[k]
        if scorer.directional:
            k_ji, s_ji, _ = found[len(pairs) + t]
            if s_ji > s_ij:
                rot_ij, s_ij = grid.rotations[k_ji].T, s_ji
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
            [(k, best, cur)] = grid_search(scorer, grid, [terms], on_grid[i])
            if cur is not None:
                accept = best > cur
            else:
                # The same terms at the camera's own rotation, composed
                # as `pair_quats` composes them.
                ends = [
                    (fixed, quats[i]) if moving == "i" else (quats[i], fixed)
                    for _, _, fixed, moving in terms
                ]
                left, right = np.array(ends).transpose(1, 0, 2)
                cur = _pair_sum(scorer, [term[:2] for term in terms], left, right)
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
