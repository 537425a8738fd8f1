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
# most _DENSE_WORK scans the whole grid (`_kernels.nearest_fixed`);
# larger batches go through the grid's nearest table, built once per
# grid. With the table built, a lookup beats the scan from about 2^14
# (batch x grid) pairs at G=576, 4608 and 36864 (0.26 ms against
# 0.08 ms for 14 rows at G=4608, 2 CPUs), but the build costs 29 ms,
# 0.29 s and 3.0 s at those sizes. At 2^16 a single row stays on the scan up
# to G=65536, so a solve that snaps single rotations never builds one.
_DENSE_WORK = 1 << 16
# Slack on the cell separation test, in radians; far above the rounding
# error of arccos near 1 (about 1.5e-8).
_CELL_SLACK = 1e-6
# Pairs per chunk of the nearest table's build and lookups and of the
# cell index's separation test; each temporary stays a few hundred kB.
_TABLE_PAIRS = 1 << 14
# Slack on the table's keep test, in face coordinates; far above the
# rounding of a |dot| (about 1e-15) and of a bucket's edges.
_TABLE_SLACK = 1e-12
# Component order on each cube-map face: the face's component first.
_FACE_ORDER = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2]])
# Child j of a bucket takes the upper half of its axis a when bit 2 - a
# of j is set.
_CHILD_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1


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


def _gather(ptr, entries, lists):
    """The CSR lists numbered `lists`, concatenated in order, and their lengths.

    List l is entries[ptr[l]:ptr[l + 1]].
    """
    lens = ptr[lists + 1] - ptr[lists]
    ends = np.cumsum(lens)
    src = np.arange(int(ends[-1]) if ends.shape[0] else 0)
    src += np.repeat(ptr[lists] - (ends - lens), lens)
    return entries[src], lens


def _child_boxes(bins, n):
    """The box lo <= u <= hi of each child, from its bins' dyadic edges in arctan.

    `bins` is (parents, 8, 3); returns (3, 8, parents) arrays of u per
    axis: the center, mid and half of each box.
    """
    a = bins.transpose(2, 1, 0) * (2.0 / n) - 1.0
    lo = np.tan(math.pi / 4.0 * a)
    hi = np.tan(math.pi / 4.0 * (a + 2.0 / n))
    return np.tan(math.pi / 4.0 * (a + 1.0 / n)), 0.5 * (lo + hi), 0.5 * (hi - lo)


def _refine(faced, ptr, entries, face, bins, n):
    """The children's CSR lists from their parents' (see `NearestTable`).

    `faced` holds the grid in each face's coordinates, component-major
    (4, 4 G); parent b lies on face `face[b]`, as do its 8 children,
    whose bins on the n x n x n face are `bins[8 b:8 b + 8]`. Parents
    are taken in blocks of about _TABLE_PAIRS / 8 list entries, or one
    parent with a longer list, whose entries are then taken in chunks
    of that size.
    """
    g = faced.shape[1] // 4
    step = _TABLE_PAIRS // 8
    counts, lists = [], []
    b0 = 0
    while b0 < face.shape[0]:
        b1 = max(b0 + 1, int(np.searchsorted(ptr, ptr[b0] + step, side="right")) - 1)
        center, mid, half = _child_boxes(bins[8 * b0 : 8 * b1].reshape(-1, 8, 3), n)
        chunks = []
        for s in range(ptr[b0], ptr[b1], step):
            pos = np.arange(s, min(s + step, ptr[b1]))
            par, cand = np.searchsorted(ptr, pos, side="right") - 1 - b0, entries[pos]
            chunks.append((par, cand, faced[:, face[b0 + par] * g + cand]))
        # p*: per child, the parent-list point nearest its center.
        best = np.full((8, b1 - b0), -1.0)
        star = np.zeros((8, b1 - b0), dtype=np.int64)
        for par, cand, p in chunks:
            c = center[:, :, par]
            d = p[0] + c[0] * p[1] + c[1] * p[2] + c[2] * p[3]
            np.abs(d, out=d)
            fresh = np.diff(par, prepend=-1) != 0
            new = np.flatnonzero(fresh)
            top = np.maximum.reduceat(d, new, axis=1)
            at = np.where(d == top[:, np.cumsum(fresh) - 1], np.arange(d.shape[1]), d.shape[1])
            first = cand[np.minimum.reduceat(at, new, axis=1)]
            b = par[new]
            better = top > best[:, b]
            best[:, b] = np.where(better, top, best[:, b])
            star[:, b] = np.where(better, first, star[:, b])
        # p* with the sign that faces the center, in face coordinates.
        f = faced[:, face[b0:b1] * g + star]
        f *= np.where(f[0] + np.sum(center * f[1:], axis=0) < 0.0, -1.0, 1.0)
        # Keep p when the box's largest <v, w>, for w = p - p* or -p - p*,
        # is <(1, mid), w> + sum_i half_i |w_i| >= 0.
        rows = np.concatenate([f[1:], half, mid, [f[0] + np.sum(mid * f[1:], axis=0)]])
        child, point = [], []
        for par, cand, p in chunks:
            lin = p[0] + rows[6][:, par] * p[1] + rows[7][:, par] * p[2] + rows[8][:, par] * p[3]
            plus = lin - rows[9][:, par]
            minus = plus - 2.0 * lin
            for i in range(3):
                f_i, h_i = rows[i][:, par], rows[3 + i][:, par]
                plus += h_i * np.abs(p[1 + i] - f_i)
                minus += h_i * np.abs(p[1 + i] + f_i)
            j, e = np.nonzero((plus >= -_TABLE_SLACK) | (minus >= -_TABLE_SLACK))
            child.append(8 * par[e] + j)
            point.append(cand[e])
        child = np.concatenate(child)
        lists.append(np.concatenate(point)[np.argsort(child, kind="stable")])
        counts.append(np.bincount(child, minlength=8 * (b1 - b0)))
        b0 = b1
    return np.concatenate([[0], np.cumsum(np.concatenate(counts))]), np.concatenate(lists)


def _table_levels(g):
    """Levels of a G-point grid's nearest table: about 3.5 buckets per point."""
    return max(0, round(math.log(0.875 * g, 8)))


def _cube_buckets(queries, levels):
    """The bucket, `levels` levels down, of each (m, 4) query, with its face and bins."""
    n = 1 << levels
    face = np.abs(queries).argmax(axis=1)
    q = np.take_along_axis(queries, _FACE_ORDER[face], axis=1)
    a = np.arctan(q[:, 1:] / q[:, :1]) * (4.0 / math.pi)
    b = np.floor((a + 1.0) * (n / 2.0)).astype(np.int64)
    np.clip(b, 0, n - 1, out=b)
    code = face
    for bit in range(levels - 1, -1, -1):
        code = 8 * code + ((b >> bit) & 1) @ np.array([4, 2, 1])
    return code, face, b


def _box_centers(face, bins, levels):
    """The unit quaternion at the center of each bucket, from its face and bins."""
    v = np.ones((face.shape[0], 4))
    v[:, 1:] = _child_boxes(bins[None], 1 << levels)[0][:, :, 0].T
    q = np.empty_like(v)
    np.put_along_axis(q, _FACE_ORDER[face], v, axis=1)
    return quat_normalize(q)


class NearestTable:
    """Exact nearest-grid lookup by arithmetic: a cube map of point lists.

    A quaternion q lies on face k, its largest |component| (the first
    on ties), where it reads v = q / q_k = (1, u) in face coordinates
    (`_FACE_ORDER`), each |u_i| <= 1. Each arctan(u_i) / (pi/4) is binned
    n = 2**levels ways, so the faces hold 4 n^3 buckets, numbered in
    nested order: bucket 8 b + j is child j of bucket b one level up.
    levels = round(log8(0.875 G)), so n is 8, 16 and 32 at G = 576, 4608
    and 36864, about 3.5 buckets per grid point.

    Each bucket lists, ascending, every grid point that can be nearest
    to some quaternion in it, and a lookup scans only its bucket's list
    with `_kernels.fixed_abs_dots`, taking the first maximum: the answer
    of a whole-grid scan with the same sums, whatever the batch.

    Lists are built a level at a time, each child from its parent's
    list, starting from every point on each face; no pass scans the
    whole grid per bucket. A child takes p*, the parent-list point
    nearest its center, and keeps a point p when |<v, p>| >= <v, p*> for
    some v in its box, which the nearest point of every v does. For
    each sign of p the test is linear in v, so over the box it is
    exactly w_0 + sum_i max(lo_i w_i, hi_i w_i) >= 0 for w = +-p - p*
    (less _TABLE_SLACK for rounding). Where p* is not in front of the
    whole box, some v has <v, p*> < 0 and every point passes.
    """

    def __init__(self, quats):
        self.quats = quats
        self.levels = _table_levels(quats.shape[0])
        g = quats.shape[0]
        faced = np.ascontiguousarray(quats[:, _FACE_ORDER].transpose(2, 1, 0).reshape(4, 4 * g))
        face = np.arange(4)
        bins = np.zeros((4, 3), dtype=np.int64)
        ptr = np.arange(5) * g
        entries = np.tile(np.arange(g, dtype=np.int32), 4)
        for level in range(1, self.levels + 1):
            bins = (2 * bins[:, None, :] + _CHILD_BITS).reshape(-1, 3)
            ptr, entries = _refine(faced, ptr, entries, face, bins, 2**level)
            face = np.repeat(face, 8)
        self.ptr = ptr
        self.entries = entries

    def lookup(self, queries):
        """Nearest grid index and its |dot| per (m, 4) query, lowest index on ties.

        Queries are taken in chunks of about _TABLE_PAIRS (query, point)
        pairs.
        """
        n = queries.shape[0]
        idx = np.empty(n, dtype=np.int64)
        dot = np.empty(n)
        buckets = _cube_buckets(queries, self.levels)[0]
        ends = np.cumsum(self.ptr[buckets + 1] - self.ptr[buckets])
        s = 0
        while s < n:
            done = int(ends[s - 1]) if s else 0
            e = max(s + 1, int(np.searchsorted(ends, done + _TABLE_PAIRS, side="right")))
            cand, lens = _gather(self.ptr, self.entries, buckets[s:e])
            row = np.repeat(np.arange(e - s), lens)
            starts = np.cumsum(lens) - lens
            d = _kernels.fixed_abs_dots(queries[s:e][row], self.quats[cand])
            best = np.maximum.reduceat(d, starts)
            at = np.where(d == best[row], np.arange(d.shape[0]), d.shape[0])
            idx[s:e] = cand[np.minimum.reduceat(at, starts)]
            dot[s:e] = best
            s = e
        return idx, dot


class CellIndex:
    """Coarse partition of a grid into cells, for bounds over many points.

    Cells are the cube-map buckets two levels above the grid's nearest
    table (`_cube_buckets`): 32, 256 and 2048 at G = 576, 4608 and 36864.
    A grid point belongs to its bucket; buckets that own no point are
    dropped, and each cell keeps its box center and its radius r, the
    largest theta from that center to a point it owns.
    `order[start[c]:start[c + 1]]` lists, ascending, the grid indices
    cell c owns.

    `groups` bounds where the nearest grid points of many queries lie:
    for queries in bucket c, at most rho from its center, some cell c'
    owns a point within reach(c) = min over c' of sep(c, c') + r_c' of
    that center, so each query's nearest grid point lies within
    rho + reach(c) of it, in a cell c' with sep(c, c') <= 2 rho +
    reach(c) + r_c'. Only those cells are searched, also for a bucket
    that owns no point.
    """

    def __init__(self, quats):
        self.level = max(0, _table_levels(quats.shape[0]) - 2)
        bucket, face, bins = _cube_buckets(quats, self.level)
        _, first, owner = np.unique(bucket, return_index=True, return_inverse=True)
        self.centers = np.ascontiguousarray(_box_centers(face[first], bins[first], self.level).T).T
        # int32 halves the two G-sized arrays; grids stay far below 2^31.
        self.owner = owner.astype(np.int32)
        self.order = np.argsort(self.owner, kind="stable").astype(np.int32)
        self.start = np.concatenate([[0], np.cumsum(np.bincount(owner))])
        dot = _kernels.fixed_abs_dots(quats[self.order], self.centers[owner[self.order]])
        self.radius = np.maximum.reduceat(_half_angle(dot), self.start[:-1])

    def points(self, cells):
        """Ascending grid indices of the points the given cells own."""
        return np.sort(_gather(self.start, self.order, np.asarray(cells))[0])

    def groups(self, queries):
        """(query rows, candidate grid indices) per nonempty bucket of queries.

        Candidates are in ascending grid order, so a first-maximum argmax
        over them keeps the lowest-index tie-break of the whole grid. The
        separation test takes chunks of about _TABLE_PAIRS (bucket, cell)
        pairs.
        """
        bucket, face, bins = _cube_buckets(queries, self.level)
        order = np.argsort(bucket, kind="stable")
        starts = np.unique(bucket[order], return_index=True)[1]
        centers = _box_centers(face[order], bins[order], self.level)
        theta = _half_angle(_kernels.fixed_abs_dots(queries[order], centers))
        rho = np.maximum.reduceat(theta, starts)
        rows = np.split(order, starts[1:])
        step = max(1, _TABLE_PAIRS // self.radius.shape[0])
        for s in range(0, starts.shape[0], step):
            sep = _half_angle(np.abs(centers[starts[s : s + step]] @ self.centers.T))
            reach = np.min(sep + self.radius, axis=1)
            near = sep <= (2.0 * rho[s : s + step] + reach + _CELL_SLACK)[:, None] + self.radius
            for k, hit in enumerate(near, start=s):
                yield rows[k], self.points(np.flatnonzero(hit))


@dataclass
class SO3Grid:
    """A finite candidate set of rotations with cached derived data.

    `quats` is (G, 4), the transpose of a contiguous (4, G) array, so
    `_kernels.fixed_abs_dots` reads each component as a contiguous row.
    """

    quats: np.ndarray
    spec: GridSpec
    _rotations: np.ndarray | None = field(default=None, repr=False)
    _covering: float | None = field(default=None, repr=False)
    _cells: CellIndex | None = field(default=None, repr=False)
    _table: NearestTable | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        self.quats = np.ascontiguousarray(np.asarray(self.quats, dtype=np.float64).T).T

    @property
    def n(self):
        return self.quats.shape[0]

    @property
    def rotations(self):
        if self._rotations is None:
            self._rotations = quat_to_matrix(self.quats)
        return self._rotations

    def _cached(self, name, build):
        # Threaded solves share one grid; the lock keeps them from
        # building an index twice.
        if getattr(self, name) is None:
            with self._lock:
                if getattr(self, name) is None:
                    setattr(self, name, build(self.quats))
        return getattr(self, name)

    @property
    def cells(self):
        return self._cached("_cells", CellIndex)

    @property
    def nearest_table(self):
        return self._cached("_table", NearestTable)

    @property
    def covering_radius(self):
        """Estimated max distance from any rotation to the grid.

        Monte-Carlo estimate over a fixed probe set, so the value is
        deterministic for a given grid and stable across runs. Each
        group of probes is compared, by matrix products, with the points
        of the cells that can hold its nearest grid points.
        """
        if self._covering is None:
            rng = np.random.Generator(np.random.PCG64(_COVERING_SEED))
            probes = random_quats(rng, _COVERING_SAMPLES)
            worst = min(
                _kernels.min_max_abs_dot(probes[rows], self.quats[cand])
                for rows, cand in self.cells.groups(probes)
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
    return SO3Grid(quats=quats, spec=spec)


def _nearest(grid: SO3Grid, quats):
    """Nearest grid index and its |dot| per query, lowest index on ties.

    Every |dot| is `_kernels.fixed_abs_dots`, so a query's answer does
    not depend on the batch it comes in.
    """
    if quats.shape[0] * grid.n <= _DENSE_WORK:
        return _kernels.nearest_fixed(quats, grid.quats)
    return grid.nearest_table.lookup(quats)


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
    idx, _ = _nearest(grid, np.asarray(quats, dtype=np.float64))
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
    if n == 0:
        raise FormatError(f"{path}: grid declares no quaternions")
    body = blob[21:]
    if len(body) != n * 4 * 8:
        raise FormatError(
            f"{path}: expected {n * 32} quaternion bytes, found {len(body)}"
        )
    quats = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(n, 4)
    if not np.all(np.abs(np.linalg.norm(quats, axis=1) - 1.0) <= 1e-9):  # NaN fails
        raise FormatError(f"{path}: stored quaternions are not finite and unit norm")
    spec = GridSpec(generator=_ID_TO_GENERATOR[gen_id], n=n, seed=seed)
    return SO3Grid(quats=quats, spec=spec)
