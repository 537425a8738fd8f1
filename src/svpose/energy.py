"""Pairwise relative-rotation scorers and serialized energy tables.

A scorer assigns a real score to "the relative rotation from camera i to
camera j is R". Higher is better. Scorers may be directional: when
`directional` is False, score(i, j, R) == score(j, i, R^T) is guaranteed
and callers may skip the reverse term in sums over ordered pairs.

Every scorer answers two questions. `score_quats` scores a batch of
candidate relative rotations given as unit quaternions. `score_grid`
scores a pair over a whole grid, or over some of its rows, while one
camera of the pair runs over the grid and the other stays fixed: the
solver's block update and the per-pair grid rows ask only this. Its
default composes the candidates and calls `score_quats`; a scorer that
can score a whole grid faster than by composing it (the mode scorer
moves its few modes instead of the G candidates, the table scorer looks
up grid indices) overrides it.

A scorer may also bound `score_grid` from above on each cell of the
grid's cell index (`cell_bounds`): every grid point a cell owns scores
at most the cell's bound. The solver then scores exactly only the
points of cells whose summed bound reaches the best score it has found.
The default offers no bound, and the solver scores the whole grid as
one cell. The mode scorer bounds each cell from its center, since the
geodesic angle is 1-Lipschitz.
Table rows are stored float32; every accumulation happens in float64.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._fileio import write_bytes_atomic
from .errors import ConsistencyError, CorruptTableError, FormatError
from .so3 import (
    _CELL_SLACK,
    _ID_TO_GENERATOR,
    GENERATOR_IDS,
    GridSpec,
    SO3Grid,
    grid_from_spec,
    matrix_to_quat,
    nearest_in_grid,
    nearest_indices,
    quat_conj,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
)

TABLE_MAGIC = b"RPET"
TABLE_VERSION = 1


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


class PairwiseScorer:
    """Base scorer; subclasses override score, score_quats or both.

    Each default is written in terms of the other, so a subclass must
    override at least one of them. A subclass may also override
    `score_grid` when it can score a whole grid faster than by composing
    every candidate; it must return what the default returns, up to
    rounding.

    `cell_bounds` is the optional bound hook. It returns None (the
    default: no bound), or one float per cell of `grid.cells` that is at
    least `score_grid` at every grid point the cell owns, as computed in
    floating point. A scorer that returns a bound must accept `rows` in
    `score_grid`; the solver passes `rows` to no other scorer.
    """

    directional = True

    def _require_override(self):
        cls = type(self)
        if (
            cls.score is PairwiseScorer.score
            and cls.score_quats is PairwiseScorer.score_quats
        ):
            raise NotImplementedError(
                f"{cls.__name__} must override score or score_quats"
            )

    def score_quats(self, i, j, quats):
        """Scores for a (m, 4) batch of candidate relative rotations."""
        self._require_override()
        quats = np.asarray(quats, dtype=np.float64)
        mats = quat_to_matrix(quats)
        return np.array([self.score(i, j, m) for m in mats], dtype=np.float64)

    def score(self, i, j, rotation):
        self._require_override()
        out = self.score_quats(i, j, matrix_to_quat(rotation)[None, :])
        return float(out[0])

    def score_grid(self, i, j, grid: SO3Grid, fixed=None, moving="j", rows=None):
        """Scores of pair (i, j) for every grid rotation of one camera.

        The camera named by `moving` ("i" or "j") takes each grid
        rotation in turn while the other stays at the unit quaternion
        `fixed` (None is the identity); see `pair_quats`. With
        fixed=None and moving="j" this is the pair's score row over the
        grid. `rows`, an ascending index array, restricts the row to
        those grid rotations. The default composes the candidates and
        scores them.
        """
        quats = grid.quats if rows is None else grid.quats[rows]
        return self.score_quats(i, j, pair_quats(quats, fixed, moving))

    def cell_bounds(self, i, j, grid: SO3Grid, fixed=None, moving="j"):
        """Upper bound of `score_grid` on each cell of `grid.cells`, or None."""
        return None


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
        self.directional = any((j, i) in self.modes for (i, j) in self.modes)
        self._targets = {}

    def mode_quats(self, i, j):
        if (i, j) in self.modes:
            return self.modes[(i, j)]
        if (j, i) in self.modes:
            return quat_conj(self.modes[(j, i)])
        return None

    def score_quats(self, i, j, quats):
        if i == j:
            raise ValueError("pair indices must differ")
        return self._scores(quats, self.mode_quats(i, j))

    def _scores(self, quats, targets):
        quats = np.asarray(quats, dtype=np.float64)
        if targets is None:
            return np.zeros(quats.shape[0])
        return -self.kappa * _kernels.min_angle_sq_to_targets(quats, targets)

    def _grid_targets(self, i, j, fixed, moving):
        """The pair's modes moved so the grid itself is compared with them.

        Left and right multiplication by a unit quaternion preserve the
        inner product, so |<q S^-1, m>| = |<S, m^-1 q>| and
        |<S q^-1, m>| = |<S, m q>|: the grid is compared against the
        modes composed with the fixed camera's rotation q. None for a
        pair without modes.

        Memoized on the fixed quaternion's bytes: a search asks each
        term for its bound and then its scores, and the solver fixes the
        same partner rotation again in every block update until that
        partner moves.
        """
        if i == j:
            raise ValueError("pair indices must differ")
        _check_moving(moving)
        q = None if fixed is None else np.asarray(fixed, dtype=np.float64).tobytes()
        key = (i, j, q, moving)
        if key in self._targets:
            return self._targets[key]
        targets = self.mode_quats(i, j)
        if targets is not None:
            if moving == "i":
                targets = quat_conj(targets)
            if fixed is not None:
                targets = quat_mul(targets, np.asarray(fixed)[None, :])
        self._targets[key] = targets
        return targets

    def score_grid(self, i, j, grid: SO3Grid, fixed=None, moving="j", rows=None):
        """Moves the k modes instead of composing the G candidates."""
        targets = self._grid_targets(i, j, fixed, moving)
        # Gathered through quats.T, so the rows keep the grid's layout.
        quats = grid.quats if rows is None else grid.quats.T[:, rows].T
        return self._scores(quats, targets)

    def cell_bounds(self, i, j, grid: SO3Grid, fixed=None, moving="j"):
        """Bounds each cell from its center.

        The geodesic angle is 1-Lipschitz and a cell's points lie within
        2 r of its center (r is the cell's half-angle radius), so each
        point is at least angle(center, mode) - 2 r from every mode. The
        slack covers the rounding of arccos near 1.
        """
        cells = grid.cells
        targets = self._grid_targets(i, j, fixed, moving)
        if targets is None:
            return np.zeros(cells.radius.shape[0])
        angle = np.sqrt(_kernels.min_angle_sq_to_targets(cells.centers, targets))
        gap = np.maximum(angle - 2.0 * cells.radius - _CELL_SLACK, 0.0)
        return -self.kappa * (gap * gap)


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
        head = TABLE_MAGIC + struct.pack(
            "<IBIQI",
            TABLE_VERSION,
            GENERATOR_IDS[self.grid_spec.generator],
            self.grid_spec.n,
            self.grid_spec.seed,
            len(self.rows),
        )
        parts = [head]
        for (i, j) in sorted(self.rows):
            parts.append(struct.pack("<HH", i, j))
            parts.append(
                np.ascontiguousarray(self.rows[(i, j)], dtype="<f4").tobytes()
            )
        write_bytes_atomic(path, b"".join(parts))


def load_table(path) -> EnergyTable:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != TABLE_MAGIC:
        raise FormatError(f"{path}: not an energy table file")
    if len(blob) < 4 + 21:
        raise CorruptTableError(f"{path}: truncated table header")
    version, gen_id, n, seed, n_pairs = struct.unpack_from("<IBIQI", blob, 4)
    if version != TABLE_VERSION:
        raise FormatError(f"{path}: unsupported table version {version}")
    if gen_id not in _ID_TO_GENERATOR:
        raise FormatError(f"{path}: unknown generator id {gen_id}")
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
        rows[(i, j)] = np.frombuffer(blob, dtype="<f4", count=n, offset=off).astype(
            np.float32
        )
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

    Over its own grid, `score_grid` memoizes the snapped grid indices,
    keyed on the fixed camera's quaternion, the moving camera and the
    row's stored order: the solver scores the same partner rotation
    again for every block update in which that partner has not moved.
    The pair's stored row over its own grid is returned as it is, since
    every grid rotation snaps to itself.
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
        self.directional = any((j, i) in table.rows for (i, j) in table.rows)
        self._snapped = {}

    def _row(self, i, j):
        if (i, j) in self.table.rows:
            return self.table.rows[(i, j)], False
        if (j, i) in self.table.rows:
            return self.table.rows[(j, i)], True
        raise ConsistencyError(f"table has no scores for pair ({i}, {j})")

    def score_quats(self, i, j, quats):
        if i == j:
            raise ValueError("pair indices must differ")
        quats = np.asarray(quats, dtype=np.float64)
        row, transposed = self._row(i, j)
        if transposed:
            quats = quat_conj(quats)
        return row[nearest_indices(self.grid, quats)].astype(np.float64)

    def score_grid(self, i, j, grid: SO3Grid, fixed=None, moving="j"):
        if i == j:
            raise ValueError("pair indices must differ")
        if not (grid is self.grid or np.array_equal(grid.quats, self.grid.quats)):
            return super().score_grid(i, j, grid, fixed, moving)
        row, transposed = self._row(i, j)
        if fixed is None and moving == "j" and not transposed:
            return row.astype(np.float64)
        q = None if fixed is None else np.asarray(fixed, dtype=np.float64).tobytes()
        key = (q, moving, transposed)
        idx = self._snapped.get(key)
        if idx is None:
            quats = pair_quats(grid.quats, fixed, moving)
            if transposed:
                quats = quat_conj(quats)
            idx = self._snapped[key] = nearest_indices(self.grid, quats)
        return row[idx].astype(np.float64)


def score_over_grid(scorer, i, j, grid: SO3Grid):
    """Score every grid rotation as the i->j relative rotation.

    Output is index-ordered float64. A table scorer over its own grid
    returns its stored row exactly (up to the float32->float64 widening).
    """
    if i == j:
        raise ValueError("pair indices must differ")
    return np.asarray(scorer.score_grid(i, j, grid), dtype=np.float64)


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
