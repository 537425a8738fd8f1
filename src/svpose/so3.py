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

import functools
import math
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._fileio import write_bytes_atomic
from ._gridspec import _ID_TO_GENERATOR, GENERATOR_IDS, GridSpec  # noqa: F401  (re-exported)
from .errors import FormatError

GRID_MAGIC = b"SO3G"
GRID_VERSION = 1

# Covering radius is estimated against a fixed probe set so the value is
# a deterministic function of the grid alone. The probes that can be the
# worst are scanned against the whole grid, _COVERING_BATCH per call.
_COVERING_SAMPLES = 10_000
_COVERING_SEED = 402653189
_COVERING_BATCH = 64

# Nearest-grid lookups: a batch whose size times the grid size is at
# most _DENSE_WORK scans the whole grid (`_kernels.nearest_abs_dots`);
# larger batches go through the grid's nearest table, built once per
# grid. Timed against a built table at the levels `NearestTable` picks
# (3 at G=576 and 4608, 4 at G=36864; two runs, 2 CPUs), for 1, 5, 14
# and 32 random rotations, in microseconds:
# - G=576: scan 23-29, 42-45, 71-78, 145-172; lookup 100-127;
# - G=4608: scan 35-42, 84-90, 200-245, 498-515; lookup 103-140;
# - G=36864: scan 110-134, 686, 2004-2074, 4041-4267; lookup 67-142.
# A lookup costs about 0.1 ms of call overhead at any size, so it wins
# from about 2^14 (batch x grid) pairs at G=576, from between 2^14.5
# and 2^16 at G=4608, and for a single rotation at G=36864. The build
# costs about 9, 44 and 425 ms at those sizes. At 2^16 a single
# rotation stays on the scan up to G=65536, so a solve that snaps
# single rotations never builds one.
_DENSE_WORK = 1 << 16
# Grids of at least _COARSE_TABLE_POINTS points build their nearest
# table one level coarser (see `NearestTable`), and table scorers search
# them with exact bounds from its bucket lists (`energy.TableScorer`).
# That search snaps only the few candidates that can win, so the build,
# once per process, outweighs the lookups. One level coarser, the build
# went 49 -> 27 ms at G=4608 (level 4 -> 3) and 531 -> 302 ms at
# G=36864 (5 -> 4), while a 4608-query lookup went from about 2.5 to
# 5 ms (2 CPUs, `benchmarks/bench_kernels.py`). At G=576 table solves
# stay dense with their level-3 table: bounds made the round trip's 16
# six-camera table solves 1.6-1.8x slower in-process (medians of 6).
_COARSE_TABLE_POINTS = 4608
# Slack on bounds over a cell, in radians; far above the rounding error
# of arccos near 1 (about 1.5e-8).
_CELL_SLACK = 1e-6
# Pairs per chunk of the nearest table's build and lookups and of the
# covering's bounds; each temporary stays a few hundred kB.
_TABLE_PAIRS = 1 << 14
# Slack on the table's keep test, in face coordinates. The test runs in
# float32 (u = 2^-24) on terms whose magnitudes sum to at most
# |p|_1 + |p*|_1 <= 4 (every |mid_i| + half_i <= 1), and no term passes
# through more than 10 roundings (two casts, a product, three sums in
# <(1, mid), p>, the difference and three more sums), so the computed
# test is within 10 u * 4 < 2.4e-6 of the exact one. The slack is over
# 10 times that; the rounding of a float64 |dot| (about 1e-15) and of a
# bucket's edges is far below it. More slack only makes lists longer:
# lists may change with it, lookups may not.
_TABLE_SLACK = 3e-5
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
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
    # One pass, in the input's own layout; multiplying by -1.0 negates exactly.
    return np.asarray(q, dtype=np.float64) * _CONJ


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

    Returns the (n, 4) transpose of a contiguous (4, n) array, the
    grid's layout (see `SO3Grid`). Each component is computed in its
    own row, with two n-vectors of scratch, and each quaternion is
    divided by the root of ((a^2 + b^2) + c^2) + d^2, the sum
    `quat_normalize` takes: the values are those of normalizing the
    stacked (n, 4) components.
    """
    phi = math.sqrt(2.0)
    psi = 1.533751168755204288118041
    q = np.empty((4, n))
    s = np.arange(n, dtype=np.float64)
    s += 0.5
    # Rows 0 and 1 are the sin and cos of 2 pi s / phi times sqrt(t),
    # rows 2 and 3 those of 2 pi s / psi times sqrt(1 - t), t = s / n.
    for k, turn in ((0, phi), (2, psi)):
        np.multiply(2.0 * math.pi, s, out=q[k])
        q[k] /= turn
        np.cos(q[k], out=q[k + 1])
        np.sin(q[k], out=q[k])
    s /= n
    rr = np.subtract(1.0, s)
    for k, scale in ((0, s), (2, rr)):
        np.sqrt(scale, out=scale)
        q[k] *= scale
        q[k + 1] *= scale
    # s and rr are free again: the squared norm and each term of it.
    norm = np.multiply(q[0], q[0], out=s)
    for k in range(1, 4):
        norm += np.multiply(q[k], q[k], out=rr)
    np.sqrt(norm, out=norm)
    q /= norm
    return q.T


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


def _chunks(lens):
    """Runs s:e of rows whose `lens` sum to about _TABLE_PAIRS, or one longer row."""
    ends = np.cumsum(lens)
    s = 0
    while s < ends.shape[0]:
        done = int(ends[s - 1]) if s else 0
        e = max(s + 1, int(np.searchsorted(ends, done + _TABLE_PAIRS, side="right")))
        yield s, e
        s = e


def _first_best(quats, queries, cand, lens):
    """Each query's first nearest among its candidates, and its fixed-order |dot|.

    Query m's candidates are the next `lens[m]` (at least 1) grid
    indices of `cand`. Queries and candidates are gathered
    component-major, (4, pairs), so every gather reads whole rows of the
    grid's (4, G) layout (see `SO3Grid`).
    """
    starts = np.cumsum(lens) - lens
    q = np.repeat(queries.T, lens, axis=1)
    d = _kernels.fixed_abs_dots(q.T, np.take(quats.T, cand, axis=1).T)
    best = np.maximum.reduceat(d, starts)
    at = np.where(d == np.repeat(best, lens), np.arange(d.shape[0]), d.shape[0])
    return cand[np.minimum.reduceat(at, starts)], best


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
    (4, 4 G), in float32; parent b lies on face `face[b]`, as do its 8
    children, whose bins on the n x n x n face are `bins[8 b:8 b + 8]`.
    Parents are taken P at a time as a (P, L) matrix of list entries,
    L the block's longest list and P L at most _TABLE_PAIRS / 8 (or
    one longer list); a shorter list is padded by repeating its last
    entry, and the padding is masked off.
    """
    g = faced.shape[1] // 4
    lens = np.diff(ptr)
    per = max(1, _TABLE_PAIRS // 8 // int(lens.max()))
    # Each child's box per axis as (parents, 8, 1), and the (parents,
    # 8, 4) vectors (1, center) and (1, mid).
    center, mid, half = (
        x.transpose(0, 2, 1)[..., None].astype(np.float32)
        for x in _child_boxes(bins.reshape(-1, 8, 3), n)
    )
    at_center, at_mid = _with_one(center), _with_one(mid)
    counts, lists = [], []
    for b0 in range(0, face.shape[0], per):
        b1 = min(b0 + per, face.shape[0])
        width = int(lens[b0:b1].max())
        cols = np.arange(width)
        cand = entries[np.minimum(ptr[b0:b1, None] + cols, ptr[b0 + 1 : b1 + 1, None] - 1)]
        p = np.take(faced, face[b0:b1, None] * g + cand, axis=1)
        # p*: per child, a parent-list point nearest its center, with
        # the sign that faces the center.
        d = np.matmul(at_center[b0:b1], p.transpose(1, 0, 2))
        k = np.abs(d).argmax(axis=2)[..., None]
        star = np.take_along_axis(cand, k[..., 0], axis=1)
        f = np.take(faced, face[b0:b1, None] * g + star, axis=1)[..., None]
        f *= np.copysign(np.float32(1.0), np.take_along_axis(d, k, axis=2))
        # Keep p when the box's largest <v, w>, for w = p - p* or
        # -p - p*, is <(1, mid), w> + sum_i half_i |w_i| >= 0.
        lin = np.matmul(at_mid[b0:b1], p.transpose(1, 0, 2))
        lin_star = f[0] + np.sum(mid[:, b0:b1] * f[1:], axis=0)
        plus = lin - lin_star
        minus = np.negative(lin, out=lin)
        minus -= lin_star
        p = p[:, :, None, :]
        for i in range(3):
            h, w = half[i, b0:b1], p[1 + i] - f[1 + i]
            plus += np.multiply(h, np.abs(w, out=w), out=w)
            np.add(p[1 + i], f[1 + i], out=w)
            minus += np.multiply(h, np.abs(w, out=w), out=w)
        keep = plus >= -_TABLE_SLACK
        keep |= minus >= -_TABLE_SLACK
        keep &= (cols < lens[b0:b1, None])[:, None, :]
        # Read in C order: each child's points ascending, children in
        # bucket order. Entry (b, j, l) of `keep` is list entry (b, l).
        kept = np.flatnonzero(keep)
        lists.append(cand.ravel()[kept // (8 * width) * width + kept % width])
        counts.append(np.count_nonzero(keep, axis=2).ravel())
    return np.concatenate([[0], np.cumsum(np.concatenate(counts))]), np.concatenate(lists)


def _with_one(u):
    """The (..., 4) vectors (1, u) of (3, ..., 1) face coordinates u."""
    return np.concatenate([np.ones_like(u[0]), *u], axis=-1)


def _cube_level(g, per_point):
    """The cube-map level with about `per_point` buckets per point of a G-point grid."""
    return max(0, round(math.log(g * per_point / 4.0, 8)))


def _table_levels(g):
    """Levels of a G-point grid's nearest table; see `NearestTable`."""
    return _cube_level(g, 3.5 if g < _COARSE_TABLE_POINTS else 3.5 / 8.0)


def _cube_buckets(queries, levels):
    """The bucket, `levels` levels down, of each (m, 4) query, with its face and bins."""
    n = 1 << levels
    face = np.abs(queries).argmax(axis=1)
    # Face coordinate c divides the other components, in ascending order
    # (`_FACE_ORDER`), by the face's: component c below the face, c + 1
    # from it on. Each step works in place, so the bits are those of
    # floor((arctan(u) * (4 / pi) + 1) * (n / 2)).
    u = np.array(queries[:, :3])
    for c in range(3):
        np.copyto(u[:, c], queries[:, c + 1], where=face <= c)
    u /= queries[np.arange(queries.shape[0]), face][:, None]
    np.arctan(u, out=u)
    u *= 4.0 / math.pi
    u += 1.0
    u *= n / 2.0
    b = np.floor(u, out=u).astype(np.int64)
    np.clip(b, 0, n - 1, out=b)
    # Nested order: bit k of each bin goes to bits 3k + 2, 3k + 1 and 3k.
    spread = _spread(levels)
    code = face << 3 * levels | spread[b[:, 0]] << 2 | spread[b[:, 1]] << 1 | spread[b[:, 2]]
    return code, face, b


def _grid_keys(quats, levels, key):
    """key(code, face, bins) of each grid point's `_cube_buckets`, as int64.

    Points are taken _TABLE_PAIRS at a time, so only the keys are kept
    at the grid's size; the faces, bins and float temporaries stay
    chunk-sized.
    """
    out = np.empty(quats.shape[0], dtype=np.int64)
    for s in range(0, quats.shape[0], _TABLE_PAIRS):
        out[s : s + _TABLE_PAIRS] = key(*_cube_buckets(quats[s : s + _TABLE_PAIRS], levels))
    return out


@functools.cache
def _spread(levels):
    """Each bin below 2**levels with bit k of it moved to bit 3k."""
    v = np.arange(1 << levels)
    spread = np.zeros_like(v)
    for k in range(levels):
        spread |= (v >> k & 1) << 3 * k
    spread.flags.writeable = False
    return spread


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
    Below _COARSE_TABLE_POINTS points a table has about 3.5 buckets per
    grid point, levels = round(log8(0.875 G)), so n is 8 at G = 576.
    From there on it is one level coarser, about 0.44 buckets per point,
    so n is 8 and 16 at G = 4608 and 36864: a coarser table halves the
    build and makes each list longer, and grids that large are searched
    with bounds, which snap few rotations (see _COARSE_TABLE_POINTS).

    Each bucket lists, ascending, every grid point that can be nearest
    to some quaternion in it, and a lookup scans only its bucket's list
    with `_kernels.fixed_abs_dots`, taking the first maximum: the answer
    of a whole-grid scan with the same sums, whatever the batch.

    Lists are built a level at a time, each child from its parent's
    list, starting from every point on each face; no pass scans the
    whole grid per bucket. A child takes p*, a parent-list point nearest
    its center, and keeps a point p when |<v, p>| >= <v, p*> for some v
    in its box, which the nearest point of every v does. For each sign
    of p the test is linear in v, so over the box it is exactly
    <(1, mid), w> + sum_i half_i |w_i| >= 0 for w = +-p - p* (less
    _TABLE_SLACK for rounding). Where p* is not in front of the whole
    box, some v has <v, p*> < 0 and every point passes.

    The build works on a block of parents at once, their lists padded
    to a (P, L) matrix, against each child's box and p* broadcast as
    (P, 8, 1). Any grid point is a valid p*, so it is picked in float32,
    and the keep test runs in float32 too, with a slack above its
    rounding (see _TABLE_SLACK), so no point the exact test keeps is
    dropped. Lists may therefore change with the arithmetic of the
    build, but no lookup does.
    """

    def __init__(self, quats):
        self.quats = np.ascontiguousarray(quats.T).T
        self.levels = _table_levels(quats.shape[0])
        g = quats.shape[0]
        faced = quats[:, _FACE_ORDER].transpose(2, 1, 0).reshape(4, 4 * g).astype(np.float32)
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
        for s, e in _chunks(self.ptr[buckets + 1] - self.ptr[buckets]):
            cand, lens = _gather(self.ptr, self.entries, buckets[s:e])
            idx[s:e], dot[s:e] = _first_best(self.quats, queries[s:e], cand, lens)
        return idx, dot

    def buckets(self, queries):
        """The bucket of each (m, 4) query, whose list holds the query's nearest point.

        Codes are int16 while they fit (at most level 4), else int32.
        """
        code = _cube_buckets(queries, self.levels)[0]
        return code.astype(np.int16 if self.ptr.shape[0] <= 1 << 15 else np.int32)

    def list_maxima(self, values):
        """Per bucket, the largest of `values`, one per grid point, over the bucket's list.

        A lookup's answer lies in its bucket's list, so this bounds
        `values` at the nearest point of every query in the bucket.
        """
        # Gathered through intp indices, which numpy indexes fastest.
        return np.maximum.reduceat(values[self.entries.astype(np.intp)], self.ptr[:-1])


def _run_radii(quats, order, ptr, centers):
    """Per run k of grid points order[ptr[k]:ptr[k + 1]], the largest theta to centers[k].

    Whole runs are taken in chunks of about _TABLE_PAIRS points. Each
    |dot| is summed a component at a time, in the order of
    `_kernels.fixed_abs_dots`, so no (points, 4) gather is made.
    """
    lens = np.diff(ptr)
    radius = np.empty(lens.shape[0])
    for s, e in _chunks(lens):
        points = order[ptr[s] : ptr[e]]
        dot = np.zeros(points.shape[0])
        for k in range(4):
            term = np.take(quats[:, k], points)
            term *= np.repeat(centers[s:e, k], lens[s:e])
            dot += term
        np.abs(dot, out=dot)
        radius[s:e] = np.maximum.reduceat(_half_angle(dot), ptr[s:e] - ptr[s])
    return radius


class CellIndex:
    """Coarse partition of a grid into cells, for bounds over many points.

    Cells are the cube-map buckets (`_cube_buckets`) at the level with
    about 18 grid points per bucket: 32, 256 and 2048 at G = 576, 4608
    and 36864. A grid point belongs to its bucket; buckets that own no
    point are dropped, and each cell keeps its box center and its
    radius r, the largest theta from that center to a point it owns.
    `order[start[c]:start[c + 1]]` lists, ascending, the grid indices
    cell c owns.

    The parents are the buckets one level up (a cell's bucket code
    shifted right by 3 bits; a cell already at level 0 is its own
    parent): 4, 32 and 256 at G = 576, 4608 and 36864. Cells are
    numbered in bucket order, so parent p's cells are the run
    `parent_start[p]:parent_start[p + 1]`, and each parent keeps its box
    center and the largest theta from it to a point it owns.

    Of the grid's size it keeps only `owner` and `order`, int32 each.
    The build holds no other array of that size but the bucket codes
    (`_grid_keys`): a cell's box center comes from the face and bins of
    its first point, and a parent's from its first cell's. The radii
    are read along `order`, whole cells a chunk at a time (`_run_radii`).
    """

    def __init__(self, quats):
        self.level = _cube_level(quats.shape[0], 3.5 / 64.0)
        bucket = _grid_keys(quats, self.level, lambda code, face, bins: code)
        counts = np.bincount(bucket)
        codes = np.flatnonzero(counts)
        # int32 halves the two G-sized arrays; grids stay far below 2^31.
        cell_of = np.zeros(counts.shape[0], dtype=np.int32)
        cell_of[codes] = np.arange(codes.shape[0])
        self.owner = cell_of[bucket]
        del bucket
        self.order = np.argsort(self.owner, kind="stable").astype(np.int32)
        self.start = np.concatenate([[0], np.cumsum(counts[codes])])
        _, face, bins = _cube_buckets(quats[self.order[self.start[:-1]]], self.level)
        self.centers = np.ascontiguousarray(_box_centers(face, bins, self.level).T).T
        self.radius = _run_radii(quats, self.order, self.start, self.centers)
        up = min(1, self.level)
        _, runs = np.unique(codes >> 3 * up, return_index=True)
        self.parent_start = np.append(runs, codes.shape[0])
        self.parent_centers = _box_centers(face[runs], bins[runs] >> up, self.level - up)
        self.parent_radius = _run_radii(
            quats, self.order, self.start[self.parent_start], self.parent_centers
        )

    def owned(self, cells):
        """The grid indices each of the given cells owns, concatenated, and their counts."""
        return _gather(self.start, self.order, np.asarray(cells))

    def children(self, parents):
        """The cells of each of the given parents, concatenated, and their counts."""
        return _gather(self.parent_start, np.arange(self.radius.shape[0]), np.asarray(parents))


@dataclass
class SO3Grid:
    """A finite candidate set of rotations with cached derived data.

    `quats` is (G, 4), the transpose of a contiguous (4, G) array, so
    `_kernels.fixed_abs_dots` reads each component as a contiguous row.
    `super_fibonacci_quats` builds that layout, which is kept without a
    copy; any other (G, 4) array is copied into it once. The cell
    index, the nearest table and the covering radius are built on first
    use and kept with the grid.
    """

    quats: np.ndarray
    spec: GridSpec
    _covering: float | None = field(default=None, repr=False)
    _cells: CellIndex | None = field(default=None, repr=False)
    _table: NearestTable | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        self.quats = np.ascontiguousarray(np.asarray(self.quats, dtype=np.float64).T).T

    @property
    def n(self):
        return self.quats.shape[0]

    def _cached(self, name, build):
        # For library callers that share one grid across threads: the
        # lock keeps them from building an index twice. (The CLI's
        # parallel solves are forked processes, each with its own copy.)
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
        deterministic for a given grid and stable across runs: the
        smallest over the probes of each probe's largest |dot| with the
        grid (`_kernels.min_max_abs_dot`), as an angle.

        Only the probes that can be the worst are scanned against the
        whole grid. `_covering_bounds` gives each probe a lower bound on
        its largest |dot|, from the same fixed-order sums as the scan.
        Probes are scanned _COVERING_BATCH at a time in ascending order
        of bound, until the next bound reaches the smallest value
        found: no probe left can fall below it, so the result is the
        whole-grid scan's, bit for bit.
        """
        if self._covering is None:
            rng = np.random.Generator(np.random.PCG64(_COVERING_SEED))
            probes = random_quats(rng, _COVERING_SAMPLES)
            bound = _covering_bounds(self.quats, probes)
            order = np.argsort(bound, kind="stable")
            worst = np.inf
            for s in range(0, order.shape[0], _COVERING_BATCH):
                if bound[order[s]] >= worst:
                    break
                batch = probes[order[s : s + _COVERING_BATCH]]
                worst = min(worst, _kernels.min_max_abs_dot(batch, self.quats))
            self._covering = 2.0 * math.acos(min(1.0, max(0.0, worst)))
        return self._covering


def _covering_bounds(quats, probes):
    """Each probe's largest |dot| with the grid points near it, a lower bound on its best.

    The points near a probe are those in the 2 x 2 x 2 block of
    cube-map buckets, at the level with about 0.44 buckets per grid
    point, nearest to it on its own face (the face's one bucket at
    level 0). A probe whose block holds no point takes grid point 0
    alone, so every bound is one of its probe's own |dot| values.
    Probes are taken in chunks of about _TABLE_PAIRS (probe, point)
    pairs, and the grid's bucket keys are built in chunks of its points
    (`_grid_keys`).
    """
    levels = _cube_level(quats.shape[0], 3.5 / 8.0)
    n = 1 << levels
    w = min(2, n)

    def row_major(face, bins):
        return ((face * n + bins[:, 0]) * n + bins[:, 1]) * n + bins[:, 2]

    # Buckets numbered face by face, bins in row-major order.
    key = _grid_keys(quats, levels, lambda code, face, bins: row_major(face, bins))
    size = np.bincount(key, minlength=4 * n**3)
    ptr = np.concatenate([[0], np.cumsum(size)])
    entries = np.argsort(key, kind="stable")
    del key
    # A probe's bin one level down is the half of its bucket it lies
    # in, which names the nearer neighbour on each axis.
    _, face, fine = _cube_buckets(probes, levels + 1)
    lo = np.clip((fine - 1) >> 1, 0, n - w)
    step = np.arange(w)
    offsets = ((step[:, None, None] * n + step[:, None]) * n + step).ravel()
    keys = row_major(face, lo)[:, None] + offsets
    counts = size[keys].sum(axis=1)
    lens = np.maximum(counts, 1)
    bound = np.empty(probes.shape[0])
    for s, e in _chunks(lens):
        cand = _gather(ptr, entries, keys[s:e].ravel())[0]
        # A probe whose block is empty takes grid point 0 alone.
        cand = np.insert(cand, np.cumsum(counts[s:e])[counts[s:e] == 0], 0)
        bound[s:e] = _first_best(quats, probes[s:e], cand, lens[s:e])[1]
    return bound


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
        return _kernels.nearest_abs_dots(quats, grid.quats)
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
