"""Rotation utilities, deterministic SO(3) grids, and grid serialization.

Conventions
-----------
* Extrinsics are world-to-camera: x_cam = R @ x_world + t.
* Rotations are 3x3 float64 matrices everywhere in the public API;
  quaternions appear only at boundaries (grid files, scene files) and
  inside kernels.
* Quaternions are unit, (w, x, y, z) order, Hamilton product; q and -q
  denote the same rotation.
* Distance on SO(3) is the rotation angle of a^T b in radians, in
  [0, pi]. On quaternions this equals 2*arccos(|<qa, qb>|).
* The relative rotation from camera i to camera j maps camera-i
  coordinates to camera-j coordinates: R_ij = R_j @ R_i^T. It is
  unchanged when the world frame is re-rotated, which is the gauge the
  solver fixes by pinning the first camera.
"""

import math
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._fileio import write_bytes_atomic
from .errors import FormatError

GRID_MAGIC = b"SO3G"
GRID_VERSION = 1

GENERATOR_IDS = {"super_fibonacci": 1, "random_uniform": 2}
_ID_TO_GENERATOR = {v: k for k, v in GENERATOR_IDS.items()}

# Covering radius is estimated against a fixed probe set so the value is
# a deterministic function of the grid alone.
_COVERING_SAMPLES = 10_000
_COVERING_SEED = 402653189

# Nearest-grid lookups: a batch whose size times the grid size is at
# most _DENSE_WORK is compared against the whole grid at once; larger
# batches go through the grid's cell index. Below about this much work
# the index's per-cell overhead costs more than the pairs it prunes.
# Each cell holds about _POINTS_PER_CELL grid points.
_DENSE_WORK = 1 << 21
_POINTS_PER_CELL = 16
# Slack on the cell separation test, in radians; far above the rounding
# error of arccos near 1 (about 1.5e-8).
_CELL_SLACK = 1e-6
# Solver searches (block updates, best pairwise rotations): a grid of G
# points searched for a camera with p partners is scored whole, as one
# cell, when G * p is at most _BOUND_WORK; larger searches are pruned by
# per-cell score bounds over the cell index. Bounded over whole-grid
# solve time, mode scorer, four scenes, cell index built per solve, 2
# CPUs: 1.16-1.72 at G=4608 (4 to 40 cameras); 3.15, 1.32, 1.16, 0.68
# and 0.45 at G=36864 with 4, 6, 8, 10 and 20 cameras; 0.70 at G=18432
# with 10. Small grids gain nothing: the bound and candidate passes cost
# about what a dense pass does, and building the index costs more.
_BOUND_WORK = 1 << 18


def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("zero-norm quaternion")
    return q / n


def quat_conj(q):
    q = np.asarray(q, dtype=np.float64)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_mul(a, b):
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_to_matrix(q):
    """Rotation matrix of a unit quaternion; broadcasts to (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    m = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    m[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    m[..., 0, 1] = 2.0 * (xy - wz)
    m[..., 0, 2] = 2.0 * (xz + wy)
    m[..., 1, 0] = 2.0 * (xy + wz)
    m[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    m[..., 1, 2] = 2.0 * (yz - wx)
    m[..., 2, 0] = 2.0 * (xz - wy)
    m[..., 2, 1] = 2.0 * (yz + wx)
    m[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return m


def matrix_to_quat(rotation):
    """Unit quaternion (w, x, y, z) of a rotation matrix, with w >= 0."""
    m = np.asarray(rotation, dtype=np.float64)
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[2, 1] - m[1, 2]) / s,
                0.25 * s,
                (m[0, 1] + m[1, 0]) / s,
                (m[0, 2] + m[2, 0]) / s,
            ]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[0, 2] - m[2, 0]) / s,
                (m[0, 1] + m[1, 0]) / s,
                0.25 * s,
                (m[1, 2] + m[2, 1]) / s,
            ]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [
                (m[1, 0] - m[0, 1]) / s,
                (m[0, 2] + m[2, 0]) / s,
                (m[1, 2] + m[2, 1]) / s,
                0.25 * s,
            ]
        )
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def axis_angle_rotation(axis, angle):
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    x, y, z = axis / n
    c, s = math.cos(angle), math.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def check_rotation(rotation, tol=1e-9):
    """Raise ValueError unless `rotation` is orthonormal with det +1."""
    m = np.asarray(rotation, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    err = np.abs(m.T @ m - np.eye(3)).max()
    if err > tol:
        raise ValueError(f"matrix is not orthonormal (|R^T R - I| = {err:.3e})")
    d = np.linalg.det(m)
    if abs(d - 1.0) > tol:
        raise ValueError(f"matrix determinant is {d:.12f}, not +1")
    return m


def random_quats(rng, n):
    """n quaternions uniform on SO(3) (normalized 4d Gaussians)."""
    q = rng.standard_normal((n, 4))
    return quat_normalize(q)


def random_rotation(rng):
    return quat_to_matrix(random_quats(rng, 1)[0])


def geodesic_distance(a, b):
    """Angle of a^T b in radians; the bi-invariant metric on SO(3)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t = float(np.trace(a.T @ b))
    c = (t - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def relative_rotation(r_i, r_j):
    """Map from camera-i coordinates to camera-j coordinates: R_j R_i^T.

    Invariant under a rotation of the world frame (extrinsics R_i -> R_i W),
    which is why both the solver objective and the evaluation metrics are
    phrased in terms of it.
    """
    return np.asarray(r_j, dtype=np.float64) @ np.asarray(r_i, dtype=np.float64).T


def super_fibonacci_quats(n):
    """Deterministic low-discrepancy sample of n unit quaternions.

    Double spiral on S^3 driven by sqrt(2) and the positive real root of
    x^4 = x + 4; seed-independent by construction.
    """
    phi = math.sqrt(2.0)
    psi = 1.533751168755204288118041
    s = np.arange(n, dtype=np.float64) + 0.5
    t = s / n
    r = np.sqrt(t)
    rr = np.sqrt(1.0 - t)
    alpha = 2.0 * math.pi * s / phi
    beta = 2.0 * math.pi * s / psi
    q = np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), rr * np.sin(beta), rr * np.cos(beta)],
        axis=1,
    )
    return quat_normalize(q)


@dataclass(frozen=True)
class GridSpec:
    """Recipe that reproduces a grid bit for bit."""

    generator: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.generator not in GENERATOR_IDS:
            raise ValueError(f"unknown grid generator {self.generator!r}")
        if self.n < 1:
            raise ValueError("grid size must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("grid seed must fit in an unsigned 64-bit integer")


def _half_angle(abs_dot):
    """theta(a, b) = arccos|a.b|, a metric on unit quaternions up to sign."""
    return np.arccos(np.minimum(abs_dot, 1.0))


class CellIndex:
    """Coarse partition of a grid that prunes nearest-grid candidates exactly.

    Centers are a super-Fibonacci sample about 1/16 the size of the grid.
    Each grid point belongs to its nearest center; centers that own no
    point are dropped, and each cell keeps its radius r, the largest
    theta from its center to a point it owns.

    For queries whose nearest center is c, at most rho away, each
    query's nearest grid point lies within rho + r_c of it (c owns a
    point that close), so it sits in a cell c' with
    theta(c, c') <= 2 rho + r_c + r_c'. Only those cells are searched.

    Points and queries are assigned to centers by the dense kernel,
    which works through them in row chunks, so no full points x centers
    product is ever held.
    """

    def __init__(self, quats):
        centers = super_fibonacci_quats(max(1, quats.shape[0] // _POINTS_PER_CELL))
        owner, dot = _kernels.nearest_abs_dots(quats, centers)
        used, owner = np.unique(owner, return_inverse=True)
        radius = np.zeros(used.shape[0])
        np.maximum.at(radius, owner, _half_angle(dot))
        self.centers = np.ascontiguousarray(centers[used])
        self.radius = radius
        self.owner = owner

    def groups(self, queries):
        """(query rows, candidate grid indices) per nonempty cell of queries.

        Candidates are in ascending grid order, so a first-maximum argmax
        over them keeps the lowest-index tie-break of the whole grid.
        """
        cell, dot = _kernels.nearest_abs_dots(queries, self.centers)
        theta = _half_angle(dot)
        order = np.argsort(cell, kind="stable")
        cells, starts = np.unique(cell[order], return_index=True)
        for c, rows in zip(cells, np.split(order, starts[1:])):
            rho = theta[rows].max()
            sep = _half_angle(np.abs(self.centers @ self.centers[c]))
            near = sep <= 2.0 * rho + self.radius[c] + self.radius + _CELL_SLACK
            yield rows, np.flatnonzero(near[self.owner])


@dataclass
class SO3Grid:
    """A finite candidate set of rotations with cached derived data."""

    quats: np.ndarray
    spec: GridSpec
    _rotations: np.ndarray | None = field(default=None, repr=False)
    _covering: float | None = field(default=None, repr=False)
    _cells: CellIndex | None = field(default=None, repr=False)
    _cells_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def n(self):
        return self.quats.shape[0]

    @property
    def rotations(self):
        if self._rotations is None:
            self._rotations = quat_to_matrix(self.quats)
        return self._rotations

    @property
    def cells(self):
        # Threaded solves share one grid; the lock keeps them from
        # building the index twice.
        if self._cells is None:
            with self._cells_lock:
                if self._cells is None:
                    self._cells = CellIndex(self.quats)
        return self._cells

    def query_groups(self, queries):
        """(query rows, candidate grid indices) pairs that cover `queries`.

        Each query's nearest grid point is among its group's candidates.
        A small batch is one group holding the whole grid, so it never
        builds the cell index.
        """
        if queries.shape[0] * self.n <= _DENSE_WORK:
            return [(slice(None), slice(None))]
        return self.cells.groups(queries)

    def search_cells(self, n_partners):
        """The cell index that bounds a solver search, or None.

        None means the search scores the whole grid as one cell, which
        is cheaper for a small grid or few partners and never builds the
        index.
        """
        if self.n * n_partners <= _BOUND_WORK:
            return None
        return self.cells

    @property
    def covering_radius(self):
        """Estimated max distance from any rotation to the grid.

        Monte-Carlo estimate over a fixed probe set, so the value is
        deterministic for a given grid and stable across runs.
        """
        if self._covering is None:
            rng = np.random.Generator(np.random.PCG64(_COVERING_SEED))
            probes = random_quats(rng, _COVERING_SAMPLES)
            worst = min(
                _kernels.min_max_abs_dot(probes[rows], self.quats[cand])
                for rows, cand in self.query_groups(probes)
            )
            self._covering = 2.0 * math.acos(min(1.0, max(0.0, worst)))
        return self._covering


def build_grid(n, generator="super_fibonacci", seed=0):
    spec = GridSpec(generator=generator, n=int(n), seed=int(seed))
    return grid_from_spec(spec)


def grid_from_spec(spec: GridSpec) -> SO3Grid:
    if spec.generator == "super_fibonacci":
        quats = super_fibonacci_quats(spec.n)
    else:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        quats = random_quats(rng, spec.n)
    return SO3Grid(quats=np.ascontiguousarray(quats), spec=spec)


def _nearest(grid: SO3Grid, quats):
    """Nearest grid index and its |dot| per query, lowest index on ties."""
    idx = np.empty(quats.shape[0], dtype=np.int64)
    dot = np.empty(quats.shape[0])
    for rows, cand in grid.query_groups(quats):
        k, d = _kernels.nearest_abs_dots(quats[rows], grid.quats[cand])
        idx[rows] = k if isinstance(cand, slice) else cand[k]
        dot[rows] = d
    return idx, dot


def nearest_in_grid(grid: SO3Grid, rotation):
    """Index and distance of the grid rotation closest to `rotation`.

    Ties are broken toward the lowest index.
    """
    q = matrix_to_quat(rotation)
    idx, dot = _nearest(grid, q[None, :])
    d = 2.0 * math.acos(min(1.0, float(dot[0])))
    return int(idx[0]), d


def nearest_indices(grid: SO3Grid, quats):
    """Vector version of nearest_in_grid over an (m, 4) quaternion batch."""
    quats = np.ascontiguousarray(quats, dtype=np.float64)
    idx, _ = _nearest(grid, quats)
    return idx


def save_grid(grid: SO3Grid, path):
    head = GRID_MAGIC + struct.pack(
        "<IIBQ",
        GRID_VERSION,
        grid.n,
        GENERATOR_IDS[grid.spec.generator],
        grid.spec.seed,
    )
    body = np.ascontiguousarray(grid.quats, dtype="<f8").tobytes()
    write_bytes_atomic(path, head + body)


def load_grid(path) -> SO3Grid:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != GRID_MAGIC:
        raise FormatError(f"{path}: not a rotation grid file")
    if len(blob) < 4 + 17:
        raise FormatError(f"{path}: truncated grid header")
    version, n, gen_id, seed = struct.unpack_from("<IIBQ", blob, 4)
    if version != GRID_VERSION:
        raise FormatError(f"{path}: unsupported grid version {version}")
    if gen_id not in _ID_TO_GENERATOR:
        raise FormatError(f"{path}: unknown generator id {gen_id}")
    body = blob[21:]
    if len(body) != n * 4 * 8:
        raise FormatError(
            f"{path}: expected {n * 32} quaternion bytes, found {len(body)}"
        )
    quats = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(n, 4)
    norms = np.linalg.norm(quats, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise FormatError(f"{path}: stored quaternions are not unit norm")
    spec = GridSpec(generator=_ID_TO_GENERATOR[gen_id], n=n, seed=seed)
    return SO3Grid(quats=np.ascontiguousarray(quats), spec=spec)
