"""Pairwise relative-rotation scorers and serialized energy tables.

A scorer assigns a real score to "the relative rotation from camera i to
camera j is R". Higher is better. Scorers may be directional: when
`directional` is False, the score of R for (i, j) is the score of R^T
for (j, i), and callers may skip the reverse term in sums over ordered
pairs.

`PairwiseScorer` has one required method, `score_quats`, which scores a
batch of candidate relative rotations of one pair, given as unit
quaternions. Two optional overrides each answer one question faster
than their defaults, which are written in terms of `score_quats`:
- `block` prepares one search over a list of terms, each one pair
  scored while one camera of the pair runs over the grid and the other
  stays fixed (`pair_quats`), and answers two questions about each
  term alone: an upper bound on its score over the grid points a node
  of one of its `levels` owns, `bounds(at, level, nodes)`, and its
  score at any grid rows, `scores(at, rows)`. It is the only place a
  bound or a row subset exists; the solver sums the terms. The default
  `GridBlock` offers no bound, so the solver scores the whole grid,
  and it composes and scores each term's G candidates. The mode
  scorer's block stacks its terms and moves their few modes instead:
  one quaternion product moves every term's modes, one kernel call
  scores every term, and the points of a cell within half-angle r of
  its center are bounded from that center, since the geodesic angle is
  1-Lipschitz. The table scorer's block reads grid indices: a stored
  row as it is, or the snapped composed rotations. It bounds each grid
  point by the row's largest entry over the nearest-table bucket list
  its composed rotation falls in, where its snap must land.
- `score_pairs` scores one relative rotation for each of a list of
  pairs: the solver's energies ask only this.
Table rows are stored float32; every accumulation happens in float64.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._fileio import write_bytes_atomic
from ._gridspec import _ID_TO_GENERATOR, GENERATOR_IDS, GridSpec
from .errors import ConsistencyError, CorruptTableError, FormatError
from .so3 import (
    _CELL_SLACK,
    _COARSE_TABLE_POINTS,
    SO3Grid,
    grid_from_spec,
    nearest_in_grid,
    nearest_indices,
    quat_conj,
    quat_mul,
    quat_normalize,
)

TABLE_MAGIC = b"RPET"
TABLE_VERSION = 1

# A mode-scorer search over a grid of G points whose terms name p + 1
# cameras is scored whole, as one cell, when G * p is at most
# _BOUND_WORK; larger searches are pruned by two-level bounds over the
# cell index. Bounded over whole-grid solve time with two-level bounds
# and the stacked spanning-tree search, mode scorer, four scenes, cell
# index built per solve, 2 CPUs (ranges over two runs, single values
# from one):
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


def pair_quats(quats, fixed=None, moving="j"):
    """Relative rotations i -> j with one camera of the pair at each of `quats`.

    `moving` names the pair's camera that takes each rotation S of the
    (m, 4) batch `quats`; the other is fixed at the unit quaternion
    `fixed` (None is the identity). With i moving the rotation is
    fixed * S^-1, with j moving it is S * fixed^-1, one row per S.
    """
    _check_moving(moving)
    if moving == "i":
        conj = quat_conj(quats)
        return conj if fixed is None else quat_mul(np.asarray(fixed)[None, :], conj)
    if fixed is None:
        return quats
    return quat_mul(quats, quat_conj(fixed)[None, :])


def _check_moving(moving):
    if moving not in ("i", "j"):
        raise ValueError(f"moving must be 'i' or 'j', got {moving!r}")


def _pair_map(stored):
    """Each ordered pair's (slot, served transposed), and whether directional.

    Slot s is the s-th pair of `stored`. A pair stored in one order is
    served transposed for the other; the scorer is directional exactly
    when some pair is stored in both orders.
    """
    slots = {}
    for slot, (i, j) in enumerate(stored):
        slots[(i, j)] = (slot, False)
        slots.setdefault((j, i), (slot, True))
    return slots, any((j, i) in stored for i, j in stored)


class PairwiseScorer:
    """Base scorer: a subclass overrides `score_quats` and may override more.

    `score_quats` is the one required method. `block` and `score_pairs`
    are optional overrides for a scorer that can answer them faster than
    the defaults. An override must return what its default returns, up
    to rounding; the mode scorer's `score_pairs` returns the same bits
    as the default. A block may also bound each term's score over parts
    of the grid; see `GridBlock`.
    """

    directional = True

    def score_quats(self, i, j, quats):
        """Scores for a (m, 4) batch of candidate relative rotations."""
        raise NotImplementedError(f"{type(self).__name__} must override score_quats")

    def block(self, grid: SO3Grid, terms):
        """The terms `terms` over `grid`, for one search; see `GridBlock`."""
        return GridBlock(self, grid, terms)

    def score_pairs(self, pairs, quats):
        """Score row m of the (m, 4) batch `quats` as pair pairs[m]'s relative rotation."""
        return np.array(
            [self.score_quats(i, j, q[None, :])[0] for (i, j), q in zip(pairs, quats)],
            dtype=np.float64,
        )


class GridBlock:
    """Terms over a grid, prepared once for one search.

    `terms` lists each term's (i, j, fixed, moving): pair (i, j), scored
    with the camera named by `moving` ("i" or "j") at each grid rotation
    and the other at the unit quaternion `fixed` (None is the identity);
    see `pair_quats`. (i, j, None, "j") is the pair's score row over the
    grid. `levels` names, coarse to fine, the levels of the grid the
    block bounds over, or is empty for a block without bounds. A level
    is "parents" or "cells" of the grid's cell index (`SO3Grid.cells`),
    or "points", where each grid point is a node of its own; a parent's
    members are its cells, a cell's are the grid points it owns. The
    levels are a run of parents, cells, points that ends at cells or
    points. A block answers two questions about each term alone; `at`
    and `nodes`, or `at` and `rows`, broadcast together:
    - `bounds(at, level, nodes)`, for each of its levels: a float that
      is at least term `at[m]`'s score, as computed in floating point,
      at every grid point that node `nodes[m]` of `level` owns;
    - `scores(at, rows=None)`: term `at[m]`'s score at grid row
      `rows[m]`, bit for bit as in the term's whole-grid row,
      `scores(t)`; None is every row.
    The solver sums the terms itself, in term order from 0.0; rounding
    is monotone, so its sum of bounds stays at least its sum of scores.
    This default offers no bound, so the solver scores the whole grid as
    one cell, and it scores a term's whole grid as `score_quats` of the
    composed candidates (`_row`).
    """

    levels = ()

    def __init__(self, scorer, grid: SO3Grid, terms):
        self.scorer = scorer
        self.grid = grid
        self.terms = terms

    def scores(self, at, rows=None):
        ids, back = np.unique(at, return_inverse=True)
        table = np.array([self._row(*self.terms[t]) for t in ids])
        rows = np.arange(self.grid.n) if rows is None else rows
        return table[back.reshape(np.shape(at)), rows]

    def _row(self, i, j, fixed, moving):
        # One term's scores over the whole grid.
        return self.scorer.score_quats(i, j, pair_quats(self.grid.quats, fixed, moving))


class ConstantScorer(PairwiseScorer):
    """Same score everywhere; an uninformative pair."""

    directional = False

    def __init__(self, value=0.0):
        self.value = float(value)

    def score_quats(self, i, j, quats):
        if i == j:
            raise ValueError("pair indices must differ")
        return np.full(np.asarray(quats).shape[0], self.value)


class SymmetricModeScorer(PairwiseScorer):
    """Squared-distance well around one or more mode rotations.

    score(i, j, R) = -kappa * min over modes m of geodesic(R, m)^2, so a
    mode scores exactly 0 and everything else is negative. Modes are
    stored per ordered pair; when only (i, j) is present, (j, i) is
    served with the transposed modes. The scorer is directional exactly
    when some pair is stored in both orders, as for `TableScorer`.
    A pair with no modes, or a zero-row mode array, scores 0 everywhere.
    """

    def __init__(self, modes, kappa):
        if not (math.isfinite(kappa) and kappa > 0.0):
            raise ValueError("kappa must be finite and positive")
        self.kappa = float(kappa)
        self.modes = {}
        for (i, j), quats in modes.items():
            if i == j:
                raise ValueError("pair indices must differ")
            q = np.asarray(quats, dtype=np.float64).reshape(-1, 4)
            if q.shape[0]:
                self.modes[(int(i), int(j))] = quat_normalize(q)
        # One stack of every stored pair's modes, each padded to the most
        # modes of any pair by repeating its own, and the identity last.
        # A pair maps to its row, conjugated when served from its reverse.
        stored = [*self.modes.values(), _IDENTITY]
        self._counts = np.array([m.shape[0] for m in stored])
        self._stack = np.array([np.resize(m, (self._counts.max(), 4)) for m in stored])
        self._no_modes = (len(stored) - 1, False)
        self._slots, self.directional = _pair_map(self.modes)

    def score_quats(self, i, j, quats):
        targets, weight = self._stacked_modes([(i, j)], ["j"])
        quats = np.asarray(quats, dtype=np.float64)
        return weight[0] * _kernels.min_angle_sq_stacked(quats, targets[0])

    def score_pairs(self, pairs, quats):
        """All rows in one kernel call, against each pair's own modes."""
        quats = np.asarray(quats, dtype=np.float64)
        targets, weight = self._stacked_modes(pairs, ["j"] * len(pairs))
        return weight * _kernels.min_angle_sq_stacked(quats, targets)

    def _stacked_modes(self, pairs, moving):
        """Each pair's modes as one (T, k, 4) stack, and each pair's weight.

        A pair's modes are conjugated where `moving` is "i", and its
        weight is -kappa. A pair without modes takes the identity as its
        mode and weight 0.0, so it scores 0.0 everywhere. Ragged mode
        counts are padded by repeating a pair's modes, which leaves
        every minimum over them as it is; k is the most modes of any
        pair asked for.
        """
        rows, flips = [], []
        for (i, j), side in zip(pairs, moving):
            if i == j:
                raise ValueError("pair indices must differ")
            _check_moving(side)
            row, flip = self._slots.get((i, j), self._no_modes)
            rows.append(row)
            # A moving first camera conjugates the modes once more.
            flips.append(flip != (side == "i"))
        rows = np.array(rows, dtype=np.int64)
        stack = self._stack[rows, : self._counts[rows].max(initial=1)]
        stack[flips, :, 1:] = -stack[flips, :, 1:]
        return stack, np.where(rows == self._no_modes[0], 0.0, -self.kappa)

    def block(self, grid: SO3Grid, terms):
        """Every term's modes moved at once; see `_ModeBlock`."""
        return _ModeBlock(self, grid, terms)


_IDENTITY = np.array([[1.0, 0.0, 0.0, 0.0]])


class _ModeBlock:
    """Mode-scorer terms, each scored against its modes in one kernel call.

    Left and right multiplication by a unit quaternion preserve the
    inner product, so |<q S^-1, m>| = |<S, m^-1 q>| and
    |<S q^-1, m>| = |<S, m q>|: the grid itself is compared against the
    modes composed with the fixed camera's rotation q, one quaternion
    product for all terms. Each term's squared angles are multiplied by
    its weight, -kappa, or 0.0 for a term without modes.

    Its levels are the cell index's parents and cells, when the search
    is large enough (_BOUND_WORK). Bounds come from a node's center and
    radius r, the largest half-angle from it to a point the node owns:
    the geodesic angle is 1-Lipschitz and a point within half-angle r of
    a center lies within angle 2 r of it, so the point is at least
    angle(center, mode) - 2 r from every mode. The slack covers the
    rounding of arccos near 1.
    """

    def __init__(self, scorer, grid: SO3Grid, terms):
        self.grid = grid
        partners = len({c for i, j, _, _ in terms for c in (i, j)}) - 1
        self.levels = ("parents", "cells") if grid.n * partners > _BOUND_WORK else ()
        pairs = [(i, j) for i, j, _, _ in terms]
        moving = [moving for *_, moving in terms]
        self.targets, self.weight = scorer._stacked_modes(pairs, moving)
        moved = [t for t, term in enumerate(terms) if term[2] is not None]
        if moved:
            q = np.array([terms[t][2] for t in moved], dtype=np.float64)
            self.targets[moved] = quat_mul(self.targets[moved], q[:, None, :])

    def bounds(self, at, level, nodes):
        cells = self.grid.cells
        if level == "parents":
            centers, radius = cells.parent_centers[nodes], cells.parent_radius[nodes]
        else:
            centers, radius = cells.centers[nodes], cells.radius[nodes]
        sq = _kernels.min_angle_sq_stacked(centers, self.targets[at])
        gap = np.maximum(np.sqrt(sq) - 2.0 * radius - _CELL_SLACK, 0.0)
        return self.weight[at] * (gap * gap)

    def scores(self, at, rows=None):
        # Gathered through quats.T, so the rows keep the grid's layout.
        quats = self.grid.quats if rows is None else self.grid.quats.T[:, rows].T
        return self.weight[at] * _kernels.min_angle_sq_stacked(quats, self.targets[at])


@dataclass
class EnergyTable:
    """Per-pair score rows over a shared rotation grid."""

    grid_spec: GridSpec
    rows: dict

    def __post_init__(self):
        clean = {}
        for (i, j), row in self.rows.items():
            i, j = int(i), int(j)
            if i == j:
                raise ValueError("pair indices must differ")
            if not (0 <= i < 65536 and 0 <= j < 65536):
                raise ValueError("pair indices must fit in 16 bits")
            row = np.ascontiguousarray(row, dtype=np.float32)
            if row.shape != (self.grid_spec.n,):
                raise ConsistencyError(
                    f"row ({i}, {j}) has {row.shape[0]} scores, "
                    f"grid has {self.grid_spec.n}"
                )
            if not np.isfinite(row).all():
                raise CorruptTableError(f"row ({i}, {j}) has non-finite scores")
            clean[(i, j)] = row
        self.rows = clean

    @property
    def n_cameras(self):
        if not self.rows:
            return 0
        return 1 + max(max(i, j) for i, j in self.rows)

    def save(self, path):
        """Write the table as an .rpet file: the header, then each pair and its row.

        Pairs go in ascending (i, j) order, each row as little-endian
        float32. The file is written a row at a time from the rows
        themselves, so saving holds no copy of the table.
        """
        head = TABLE_MAGIC + struct.pack(
            "<IBIQI",
            TABLE_VERSION,
            GENERATOR_IDS[self.grid_spec.generator],
            self.grid_spec.n,
            self.grid_spec.seed,
            len(self.rows),
        )

        def chunks():
            yield head
            for i, j in sorted(self.rows):
                yield struct.pack("<HH", i, j)
                yield np.ascontiguousarray(self.rows[(i, j)], dtype="<f4")

        write_bytes_atomic(path, chunks())


def load_table(path) -> EnergyTable:
    """The EnergyTable in an .rpet file; its rows are views of the one copy read.

    Each row's scores start 1 byte past a multiple of 4 in the file (a
    25-byte header, then 4 bytes of pair before each row of 4-byte
    scores), so the file is read 3 bytes into an aligned buffer, where
    every row is an aligned float32 array.
    """
    with open(path, "rb") as f:
        buf = np.empty(os.fstat(f.fileno()).st_size + 3, dtype=np.uint8)
        read = f.readinto(memoryview(buf)[3:])
    blob = memoryview(buf)[3 : 3 + read]
    if blob[:4] != TABLE_MAGIC:
        raise FormatError(f"{path}: not an energy table file")
    if len(blob) < 4 + 21:
        raise CorruptTableError(f"{path}: truncated table header")
    version, gen_id, n, seed, n_pairs = struct.unpack_from("<IBIQI", blob, 4)
    if version != TABLE_VERSION:
        raise FormatError(f"{path}: unsupported table version {version}")
    if gen_id not in _ID_TO_GENERATOR:
        raise FormatError(f"{path}: unknown generator id {gen_id}")
    if n == 0:
        raise CorruptTableError(f"{path}: table declares a zero-point grid")
    spec = GridSpec(generator=_ID_TO_GENERATOR[gen_id], n=n, seed=seed)
    off = 25
    row_bytes = n * 4
    rows = {}
    for _ in range(n_pairs):
        if off + 4 + row_bytes > len(blob):
            raise CorruptTableError(f"{path}: truncated score row")
        i, j = struct.unpack_from("<HH", blob, off)
        off += 4
        if i == j:
            raise CorruptTableError(f"{path}: pair ({i}, {j}) is degenerate")
        if (i, j) in rows:
            raise CorruptTableError(f"{path}: duplicate pair ({i}, {j})")
        rows[(i, j)] = np.frombuffer(blob, dtype="<f4", count=n, offset=off)
        off += row_bytes
    if off != len(blob):
        raise CorruptTableError(f"{path}: {len(blob) - off} trailing bytes")
    try:
        return EnergyTable(grid_spec=spec, rows=rows)
    except CorruptTableError as e:
        raise CorruptTableError(f"{path}: {e}") from None


class TableScorer(PairwiseScorer):
    """Scorer backed by an EnergyTable.

    Arbitrary rotations snap to the nearest grid rotation of the table's
    grid. A pair stored in only one order is served transposed for the
    other order (symmetric semantics); the scorer is directional exactly
    when some pair is stored in both orders.

    Every read goes through one map, built once, from each ordered pair
    to the slot of its stored row and whether it is served transposed
    (`_slots`, from `_pair_map`), and one gather of entry k[m] of the
    row in slot slots[m] (`_gather`). `score_quats`, `score_pairs` and
    the block's `scores` snap their rotations in one `nearest_indices`
    call, each conjugated where its pair is served transposed (`_snap`),
    then gather. A term reads its row as stored, without a snap, when no
    camera moves off the grid (`_term`): every grid rotation snaps to
    itself.

    A term over the scorer's own grid composes every grid point with the
    fixed camera's rotation, and the scorer keeps what it derives from
    them in a memo: one entry per fixed camera, moving side and stored
    order, holding the fixed camera's quaternion and replaced when that
    camera's rotation changes. The solver scores the same partner rotation again
    for every block update in which that partner has not moved, so each
    memo holds at most four entries per camera. A term's whole-grid row
    keeps the snapped grid indices (`_snapped`); bounds keep each
    composed rotation's nearest-table bucket (`_buckets`), int16 up to
    level 4.

    Over a grid of at least _COARSE_TABLE_POINTS points the scorer's
    block bounds each grid point: a snap scans only its bucket's list,
    so the row's largest entry over that list, kept per slot
    (`_maxima`), is at least the snapped score, exactly. The search then
    composes and snaps only the few points whose summed bound reaches
    its floor (`_TableBlock`).
    """

    def __init__(self, table: EnergyTable, grid: SO3Grid | None = None):
        if grid is None:
            grid = grid_from_spec(table.grid_spec)
        elif grid.spec != table.grid_spec:
            raise ConsistencyError(
                f"table grid {table.grid_spec} does not match grid {grid.spec}"
            )
        self.table = table
        self.grid = grid
        self._rows = list(table.rows.values())
        self._slots, self.directional = _pair_map(table.rows)
        self._snapped = {}
        self._buckets = {}
        self._maxima = {}

    def _slot(self, i, j):
        if i == j:
            raise ValueError("pair indices must differ")
        if (i, j) not in self._slots:
            raise ConsistencyError(f"table has no scores for pair ({i}, {j})")
        return self._slots[(i, j)]

    def _term(self, i, j, fixed, moving):
        # A term's slot, whether it is served transposed, and whether it
        # reads that row as stored: no camera moves off the grid.
        _check_moving(moving)
        slot, flip = self._slot(i, j)
        return slot, flip, fixed is None and moving == "j" and not flip

    def _snap(self, flips, quats):
        # Each rotation's nearest grid index, conjugated first where its
        # pair is served transposed; one lookup for the batch.
        quats = np.array(quats, dtype=np.float64)
        quats[flips, 1:] = -quats[flips, 1:]
        return nearest_indices(self.grid, quats)

    def _gather(self, slots, k):
        """Entry k[m] of the stored row in slot slots[m], as float64."""
        out = np.empty(k.shape[0])
        # Not np.unique, whose plain form imports numpy.ma on first use.
        for slot in np.flatnonzero(np.bincount(slots)):
            picked = slots == slot
            out[picked] = self._rows[slot][k[picked]]
        return out

    def score_quats(self, i, j, quats):
        slot, flip = self._slot(i, j)
        m = np.shape(quats)[0]
        return self._gather(np.full(m, slot), self._snap(np.full(m, flip), quats))

    def score_pairs(self, pairs, quats):
        """Every rotation snapped in one lookup, then read from its pair's row.

        A lookup's answer does not depend on its batch, so each entry is
        the pair's own `score_quats` entry, bit for bit.
        """
        reads = np.array([self._slot(i, j) for i, j in pairs], dtype=np.int64).reshape(-1, 2)
        return self._gather(reads[:, 0], self._snap(reads[:, 1] == 1, quats))

    def _memo(self, memo, i, j, fixed, moving, transposed, derive):
        # derive(quats) of the term's composed grid rotations, kept per
        # fixed camera, moving side and stored order.
        q = None if fixed is None else np.asarray(fixed, dtype=np.float64).tobytes()
        key = (j if moving == "i" else i, moving, transposed)
        entry = memo.get(key)
        if entry is None or entry[0] != q:
            quats = _composed(self.grid.quats, fixed, moving, transposed)
            entry = memo[key] = (q, derive(quats))
        return entry[1]

    def _point_bounds(self, i, j, fixed, moving):
        # At least the term's score at each grid point: the stored row
        # itself where it is read as stored, else the row's largest entry
        # over the bucket list each composed point snaps in.
        slot, flip, as_stored = self._term(i, j, fixed, moving)
        if as_stored:
            return self._rows[slot]
        table = self.grid.nearest_table
        if slot not in self._maxima:
            self._maxima[slot] = table.list_maxima(self._rows[slot])
        buckets = self._memo(self._buckets, i, j, fixed, moving, flip, table.buckets)
        return self._maxima[slot][buckets]

    def block(self, grid: SO3Grid, terms):
        """Over its own grid, grid indices and bucket-list bounds; see `_TableBlock`."""
        if grid is self.grid or np.array_equal(grid.quats, self.grid.quats):
            return _TableBlock(self, self.grid, terms)
        return super().block(grid, terms)


def _composed(quats, fixed, moving, transposed):
    # A term's relative rotations at grid rotations `quats`, as the
    # table is read: conjugated when the pair is served transposed.
    quats = pair_quats(quats, fixed, moving)
    return quat_conj(quats) if transposed else quats


class _TableBlock(GridBlock):
    """Table-scorer terms over the scorer's own grid.

    Its one level is the grid points, from _COARSE_TABLE_POINTS points
    on (see `TableScorer`); below that the search scores the whole grid.
    So does a block whose terms all read their stored rows as they are,
    as the spanning tree's do: it snaps nothing. Each term's slot, flags
    and fixed quaternion are taken from the scorer's map once, when the
    block is built. Rows asked for by a bounded search are composed
    again, snapped in one lookup and read through the scorer's gather.
    A lookup's answer does not depend on its batch, and each composed
    rotation is the product `pair_quats` forms for that grid rotation,
    so each score is the entry of the term's whole-grid row (`_row`),
    bit for bit.
    """

    def __init__(self, scorer, grid: SO3Grid, terms):
        super().__init__(scorer, grid, terms)
        # Per term: its slot, served transposed, snapped (not read as
        # stored), camera i moves, a camera is fixed; and the fixed
        # camera's quaternion, zero for none.
        reads = np.array([scorer._term(*term) for term in terms], dtype=np.int64).reshape(-1, 3)
        self._slots, self._flips, self._snaps = reads[:, 0], reads[:, 1] == 1, reads[:, 2] == 0
        self._side_i = np.array([m == "i" for *_, m in terms], dtype=bool)
        self._has_fixed = np.array([q is not None for _, _, q, _ in terms], dtype=bool)
        self._fixed = np.array(
            [np.zeros(4) if q is None else q for _, _, q, _ in terms], dtype=np.float64
        ).reshape(-1, 4)
        self.levels = ("points",) if self._snaps.any() and grid.n >= _COARSE_TABLE_POINTS else ()

    def bounds(self, at, level, nodes):
        ids, back = np.unique(at, return_inverse=True)
        table = np.array([self.scorer._point_bounds(*self.terms[t]) for t in ids])
        return table[back.reshape(np.shape(at)), nodes]

    def _row(self, i, j, fixed, moving):
        # The stored row as it is, or read at the snapped composed grid.
        scorer = self.scorer
        slot, flip, as_stored = scorer._term(i, j, fixed, moving)
        if as_stored:
            return scorer._rows[slot].astype(np.float64)
        snapped = scorer._memo(
            scorer._snapped, i, j, fixed, moving, flip, lambda q: nearest_indices(self.grid, q)
        )
        return scorer._rows[slot][snapped].astype(np.float64)

    def scores(self, at, rows=None):
        if rows is None:
            return super().scores(at)
        at, rows = np.broadcast_arrays(at, rows)
        shape = at.shape
        at, k = at.ravel(), rows.ravel().copy()
        # Rows read as stored (no camera moves off the grid) are not snapped.
        snap = self._snaps[at]
        if snap.any():
            t = at[snap]
            # The grid rotation S at each row, composed as `pair_quats`
            # does: fixed S^-1 when camera i moves, S fixed^-1 when camera
            # j does.
            quats = self.grid.quats.T[:, k[snap]].T
            side_i, has_fixed = self._side_i[t], self._has_fixed[t]
            q = np.where(side_i[:, None], quat_conj(quats), quats)
            left, right = has_fixed & side_i, has_fixed & ~side_i
            if left.any():
                q[left] = quat_mul(self._fixed[t[left]], q[left])
            if right.any():
                q[right] = quat_mul(quats[right], quat_conj(self._fixed[t[right]]))
            k[snap] = self.scorer._snap(self._flips[t], q)
        return self.scorer._gather(self._slots[at], k).reshape(shape)


def score_over_grid(scorer, i, j, grid: SO3Grid):
    """Score every grid rotation as the i->j relative rotation.

    Output is index-ordered float64. A table scorer over its own grid
    returns its stored row exactly (up to the float32->float64 widening).
    """
    if i == j:
        raise ValueError("pair indices must differ")
    return np.asarray(scorer.block(grid, [(i, j, None, "j")]).scores(0), dtype=np.float64)


def nll_of(scores, gt_rotation, grid: SO3Grid):
    """Negative log likelihood of the ground-truth rotation under a row.

    The row is treated as unnormalized log probabilities over the grid;
    gt snaps to its nearest grid rotation. Uses the max-shift logsumexp,
    so any additive shift of the row cancels exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] != grid.n:
        raise ValueError(
            f"need one score per grid rotation ({grid.n}), got shape {scores.shape}"
        )
    idx, _ = nearest_in_grid(grid, gt_rotation)
    m = float(scores.max())
    lse = m + math.log(float(np.exp(scores - m).sum()))
    return -(float(scores[idx]) - lse)


def l1_translation_loss(pred, target):
    """Sum of absolute coordinate differences."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.abs(pred - target).sum())
