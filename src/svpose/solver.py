"""Discrete global rotation recovery over a fixed SO(3) grid.

The objective is the sum of pairwise scores of relative rotations,

    E(R_1..R_N) = sum over ordered pairs (i, j), i != j, of
                  score(i, j, R_j R_i^T),

maximized camera-wise. The first camera is pinned to the identity; the
objective only sees relative rotations, so every solution is defined up
to a world rotation and the pin selects one representative.

Initialization composes the best pairwise rotations along a maximum
spanning tree, grown from camera 0 by Prim's algorithm over the edges
sorted once by decreasing weight, ties to the lower (i, j). The strict
order makes the first edge leaving the tree Prim's choice, so the tree
is the one Kruskal's algorithm builds, and each camera, composed as it
joins, is the product of the edge rotations along its path.
Refinement is block coordinate ascent that searches the full grid for
one camera at a time and accepts strict improvements, so the running
energy never decreases.

Both use one search, `grid_search`, over groups of terms, each one
pair scored while one of its cameras runs over the grid and the other
stays fixed (`GridBlock`): it maximizes each group's sum of terms over
the grid. A block update is one group, a term per partner (two for a
directional scorer), each with the partner's rotation fixed; the
spanning tree is one group per pair and order, searched together. The
search asks the scorer once for its block (`PairwiseScorer.block`),
then for each term's bounds and its scores at the rows it picks. The
mode scorer answers each question with one stacked comparison against
the k modes of all T terms; the default block offers no bound and
answers each term's whole-grid row, `score_quats` of its composed
candidates. Every sum of the objective, a group's bounds and scores,
an energy and a camera's value off the grid, goes through `_summed`,
in term order from 0.0. The solver never composes the G candidates
itself; an energy, or a camera still off the grid, is scored at its
own relative rotations in one `PairwiseScorer.score_pairs` call. A
NaN in any of these sums is refused with a ValueError (`_refuse_nan`):
an argmax takes a NaN for the maximum, so it would steer the search.

When the block has levels to bound over (`GridBlock`), the search is
exact branch and bound down them, in the manner of Hartley and Kahl's
rotation search. For every group at once, each against its own floor:
- the bounds of every node of the first level;
- a floor, a lower bound on the maximum: the exact score at the
  camera's current grid index, or else the best exact score among the
  points of the node reached from the best-bounded first-level node by
  taking the best-bounded member at each level below;
- level by level, the bounds of the members of every node whose bound
  reaches the floor;
- exact scores of the points of every last-level node whose bound
  reaches it.
The last evaluation holds the camera's current grid index too, so the
argmax, its lowest-index tie-break and the strict-improvement test
come from one evaluation and match a dense search. Groups are taken
in chunks of about `_STACK_PAIRS` (term, first-level node) pairs, and
the last level's rows are scored `_STACK_PAIRS` (term, row) pairs at
a time; a row's score does not depend on the rows scored beside it.
Otherwise each group's whole grid is scored as one cell: one
T x G x k comparison for a block update.

The mode scorer's levels, in large enough searches, are the P parents
and C cells of the grid's cell index (C is 32, 256 and 2048 and P is
4, 32 and 256 at G = 576, 4608 and 36864): at G=36864, in 20-camera
scenes, a block update bounds 256 parents and about 33 of the 2048
cells, and a spanning-tree pair 256 parents and 42 cells. The table
scorer's one level, on grids of 4608 points or more, is the grid
points: each bound is a gather, and only the few points whose summed
bound reaches the floor are snapped to the grid.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .so3 import SO3Grid, matrix_to_quat, quat_conj, quat_mul, quat_to_matrix
from .so3 import nearest_in_grid  # noqa: F401  (perfbench/spans.py patches it here)

# (term, node) pairs per evaluation of a bounded search, which keeps
# each temporary near 100 kB however many cameras and candidates there
# are: groups are taken as many at a time as put that many (term,
# first-level node) pairs in one chunk, 16 of the spanning tree's 190
# groups over the 256 parents at G=36864, and the last level's rows
# are scored that many (term, row) pairs at a time. At 2^14, with the
# last level scored whole, the spanning tree's row gathers would set
# the G=36864 solve's peak. A table block update at G=4608 (5 terms, at
# most about 230 rows to score in the benchmark's scenes) is one call.
_STACK_PAIRS = 1 << 12


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
    return float(_refuse_nan(_summed(np.asarray(scorer.score_pairs(pairs, rel)))))


def _summed(terms):
    """The rows of an array, along its first axis, summed in order from 0.0."""
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def _refuse_nan(values):
    """`values`, unless one is NaN: a NaN score raises ValueError."""
    if np.isnan(values).any():
        raise ValueError("the scorer returned a NaN score")
    return values


def grid_search(scorer, grid: SO3Grid, groups, current=-1):
    """Each group's grid index maximizing its sum of terms, lowest on ties.

    `groups` lists equally long lists of (i, j, fixed, moving) terms
    (see `GridBlock`); a group's terms are summed in order from 0.0
    (`_summed`). Returns each group's (index, value, value at
    `current`): its first maximum, the sum there and the sum at grid
    index `current`, all from one evaluation. `current` is -1,
    giving None, or needs a single group. The search is bounded over
    the block's levels, if it has any. A NaN in the objective it
    evaluates raises ValueError.

    A bounded search takes as many groups at a time as put
    `_STACK_PAIRS` (term, first-level node) pairs in one chunk (at least
    one group), and scores each chunk's last-level rows in calls of at
    most `_STACK_PAIRS` (term, row) pairs (at least one row), so its
    temporaries stay near 100 kB whatever the number of cameras or the
    share of the grid that reaches the floor. A row is scored once per
    evaluation, and the answers do not depend on the chunks.
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
    found = []
    if block.levels:
        step = max(1, _STACK_PAIRS // (_size(grid, block.levels[0]) * max(1, size)))
        for s in range(0, len(groups), step):
            at, rows, obj = _bounded(grid, block, ids[:, s : s + step], current)
            cur = None if current < 0 else float(obj[np.searchsorted(rows, current)])
            found += [(int(rows[m]), float(obj[m]), cur) for m in _first_max(obj, at)]
        return found
    for g in range(len(groups)):
        obj = _summed(block.scores(ids[:, g, None]))
        k = int(np.argmax(obj))
        # argmax stops at the first NaN, so a NaN anywhere is at k.
        _refuse_nan(obj[k])
        found.append((k, float(obj[k]), None if current < 0 else float(obj[current])))
    return found


def _bounded(grid, block, ids, current=-1):
    """Exact branch and bound down the block's levels for each column of `ids`.

    Column m of `ids` lists search m's terms in `block`, whose bounds
    and scores it sums. Returns the (at, rows, obj) of the last
    evaluation, grouped by search, each search's rows ascending: the
    points of every node of the last level that can hold a search's
    maximum, and `current` (for one search, unless -1).
    """

    n = ids.shape[1]
    first, *rest = levels = block.levels

    def terms(at):
        # Search at[m]'s terms; a lone search's broadcast, not gathered.
        return ids if n == 1 else ids[:, at]

    def bound(at, level, nodes):
        # At least search at[m]'s objective at every grid point that
        # node nodes[m] of `level` owns, the two broadcast together.
        return _summed(block.bounds(terms(at), level, nodes))

    def exact(at, rows):
        # In runs of _STACK_PAIRS (term, row) pairs, or one row. A row's
        # score does not depend on the rows beside it, so the runs give
        # the bits of one call.
        step = max(1, _STACK_PAIRS // ids.shape[0])
        obj = np.empty(rows.shape[0])
        for s in range(0, rows.shape[0], step):
            obj[s : s + step] = _summed(block.scores(terms(at[s : s + step]), rows[s : s + step]))
        return _refuse_nan(obj)

    searches = np.arange(n)
    top = np.reshape(bound(searches[:, None], first, np.arange(_size(grid, first))), (n, -1))
    # The floor is a lower bound on each search's maximum: the score at
    # `current`, or else the best score among the points of the node
    # reached from the search's best first-level node by taking the
    # best-bounded member at each level.
    if current >= 0:
        floor = exact(searches, np.array([current]))
    else:
        nodes = top.argmax(axis=1)
        for up, level in zip(levels, rest):
            at, kids = _members(grid, up, searches, nodes)
            nodes = kids[_first_max(bound(at, level, kids), at)]
        at, rows = _owned(grid, levels[-1], searches, nodes, -1)
        floor = np.maximum.reduceat(exact(at, rows), _starts(at))
    # A node whose bound equals the floor is still searched: one of its
    # points may tie the maximum at a lower index.
    at, nodes = np.nonzero(top >= floor[:, None])
    for up, level in zip(levels, rest):
        at, nodes = _members(grid, up, at, nodes)
        keep = bound(at, level, nodes) >= floor[at]
        at, nodes = at[keep], nodes[keep]
    at, rows = _owned(grid, levels[-1], at, nodes, current)
    return at, rows, exact(at, rows)


def _size(grid, level):
    # The number of nodes of a level of the grid.
    if level == "points":
        return grid.n
    cells = grid.cells
    return (cells.parent_radius if level == "parents" else cells.radius).shape[0]


def _members(grid, level, searches, nodes):
    # The members of node nodes[m] of `level`, each tagged with its
    # search searches[m]: a parent's cells, a cell's grid points, or a
    # grid point itself.
    if level == "points":
        return searches, nodes
    cells = grid.cells
    kids, counts = (cells.children if level == "parents" else cells.owned)(nodes)
    return np.repeat(searches, counts), kids


def _owned(grid, level, searches, nodes, current):
    # The grid points of nodes[m] of the last level for search
    # searches[m], ascending within each search, and `current` for
    # search 0 unless it is -1.
    at, rows = _members(grid, level, searches, nodes)
    key = np.sort(at * grid.n + rows)
    if current >= 0:
        at = int(np.searchsorted(key, current))
        if at == key.shape[0] or key[at] != current:
            key = np.insert(key, at, current)
    return key // grid.n, key % grid.n


def _starts(at):
    # Where each search's run begins in the grouped array `at`.
    return np.flatnonzero(np.diff(at, prepend=-1))


def _first_max(values, at):
    # The position of each search's first maximum among `values`.
    starts = _starts(at)
    best = np.maximum.reduceat(values, starts)
    pos = np.where(values == best[at], np.arange(values.shape[0]), values.shape[0])
    return np.minimum.reduceat(pos, starts)


def mst_init(scorer, n_cameras, grid: SO3Grid):
    """Spanning-tree initialization (Prim's algorithm, from camera 0).

    Edge weight between two cameras is the best pairwise score (the
    better of the two directions for a directional scorer). Edges are
    sorted by decreasing weight with lexicographic (i, j) tie-breaks;
    n - 1 times, the first edge with exactly one placed camera places
    the other, composed across the edge's best rotation. Under this
    strict order the first crossing edge is Prim's choice, Prim's and
    Kruskal's algorithms build the same tree, and each camera's matrix
    is the same product along the same path from camera 0.
    """
    if n_cameras < 2:
        raise ValueError("need at least two cameras")

    # Every pair's best rotation in one search, a group per pair and
    # order (both orders for a directional scorer).
    pairs = [(i, j) for i in range(n_cameras) for j in range(i + 1, n_cameras)]
    groups = [[(i, j, None, "j")] for i, j in pairs]
    if scorer.directional:
        groups += [[(j, i, None, "j")] for i, j in pairs]
    found = grid_search(scorer, grid, groups)
    best = quat_to_matrix(grid.quats[[k for k, _, _ in found]])
    edges = []
    for t, (i, j) in enumerate(pairs):
        rot_ij, s_ij = best[t], found[t][1]
        if scorer.directional:
            s_ji = found[len(pairs) + t][1]
            if s_ji > s_ij:
                rot_ij, s_ij = best[len(pairs) + t].T, s_ji
        edges.append((-s_ij, i, j, rot_ij))
    edges.sort(key=lambda edge: edge[:3])

    # R_j = rel(i -> j) @ R_i, for whichever camera of the edge is new.
    rotations = [np.eye(3)] * n_cameras
    placed = [True] + [False] * (n_cameras - 1)
    for _ in range(n_cameras - 1):
        _, i, j, rot_ij = next(e for e in edges if placed[e[1]] != placed[e[2]])
        if placed[i]:
            rotations[j] = rot_ij @ rotations[i]
        else:
            rotations[i] = rot_ij.T @ rotations[j]
        placed[i] = placed[j] = True
    rotations = np.array(rotations)
    start = total_energy(scorer, rotations)
    return RotationHypothesis(rotations, start, sweeps_used=0, energy_trace=[start])


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
        # Camera i's block objective as terms of its candidate S: one
        # per partner, two when directional.
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
    # Every camera's nearest grid point, as `nearest_in_grid` finds it,
    # comes from one whole-grid scan, which makes its row buffers once:
    # a scan per camera made two fresh 288 kB rows each at G=36864, and
    # a process that had handed its memory back faulted them in anew.
    nearest, _ = _kernels.nearest_abs_dots(np.array(quats), grid.quats)
    on_grid = [
        int(k) if np.array_equal(r, quat_to_matrix(grid.quats[k])) else -1
        for r, k in zip(rotations, nearest)
    ]
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
                rotations[i] = quat_to_matrix(grid.quats[k])
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
