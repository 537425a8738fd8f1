"""Hot numeric kernels, compiled with numba when available.

Every kernel has a pure-numpy twin. Selection happens once at import:
numba is used when importable unless SVPOSE_NUMBA=0 in the environment
forces the numpy path. Both paths use the same tie-break rule (first
maximum wins), so grid argmax results are identical across paths.

All quaternion arguments are float64 arrays of unit quaternions in
(w, x, y, z) order; the sign of a quaternion is irrelevant because
every kernel works with |dot| only.
"""

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap


_flag = os.environ.get("SVPOSE_NUMBA", "").strip().lower()
if _flag in ("0", "false", "off", "no"):
    USE_NUMBA = False
else:
    USE_NUMBA = _HAVE_NUMBA

# Entries per block of the numpy paths' (rows, n_grid) temporaries: about
# 2 MB of float64, which stays in cache. A block of 2048 rows over a
# 4608-point grid was 75 MB.
_BLOCK_ENTRIES = 1 << 18


def _block_rows(n_cols):
    return max(1, _BLOCK_ENTRIES // max(1, n_cols))


def _min_angle_sq_np(quats, targets):
    dots = np.abs(quats @ targets.T)
    best = dots.max(axis=1)
    np.minimum(best, 1.0, out=best)
    ang = 2.0 * np.arccos(best)
    return ang * ang


@njit(cache=True)
def _min_angle_sq_nb(quats, targets):
    n = quats.shape[0]
    m = targets.shape[0]
    out = np.empty(n)
    for i in range(n):
        best = -1.0
        for j in range(m):
            d = (
                quats[i, 0] * targets[j, 0]
                + quats[i, 1] * targets[j, 1]
                + quats[i, 2] * targets[j, 2]
                + quats[i, 3] * targets[j, 3]
            )
            if d < 0.0:
                d = -d
            if d > best:
                best = d
        if best > 1.0:
            best = 1.0
        a = 2.0 * np.arccos(best)
        out[i] = a * a
    return out


def _nearest_abs_dots_np(queries, grid):
    n = queries.shape[0]
    step = _block_rows(grid.shape[0])
    idx = np.empty(n, dtype=np.int64)
    dot = np.empty(n)
    for s in range(0, n, step):
        # In place: a second block-sized temporary per call costs page
        # faults whenever the allocator has handed the memory back.
        block = queries[s : s + step] @ grid.T
        np.abs(block, out=block)
        k = block.argmax(axis=1)
        idx[s : s + step] = k
        dot[s : s + step] = block[np.arange(block.shape[0]), k]
    return idx, dot


@njit(cache=True)
def _nearest_abs_dots_nb(queries, grid):
    n = queries.shape[0]
    g = grid.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dot = np.empty(n)
    for i in range(n):
        best = -1.0
        bk = 0
        for k in range(g):
            d = (
                queries[i, 0] * grid[k, 0]
                + queries[i, 1] * grid[k, 1]
                + queries[i, 2] * grid[k, 2]
                + queries[i, 3] * grid[k, 3]
            )
            if d < 0.0:
                d = -d
            if d > best:
                best = d
                bk = k
        idx[i] = bk
        dot[i] = best
    return idx, dot


def _min_max_abs_dot_np(samples, grid):
    step = _block_rows(grid.shape[0])
    worst = np.inf
    for s in range(0, samples.shape[0], step):
        block = samples[s : s + step] @ grid.T
        np.abs(block, out=block)
        m = block.max(axis=1).min()
        if m < worst:
            worst = m
    return worst


@njit(cache=True)
def _min_max_abs_dot_nb(samples, grid):
    worst = np.inf
    for i in range(samples.shape[0]):
        best = -1.0
        for k in range(grid.shape[0]):
            d = (
                samples[i, 0] * grid[k, 0]
                + samples[i, 1] * grid[k, 1]
                + samples[i, 2] * grid[k, 2]
                + samples[i, 3] * grid[k, 3]
            )
            if d < 0.0:
                d = -d
            if d > best:
                best = d
        if best < worst:
            worst = best
    return worst


if USE_NUMBA:
    min_angle_sq_to_targets = _min_angle_sq_nb
    nearest_abs_dots = _nearest_abs_dots_nb
    min_max_abs_dot = _min_max_abs_dot_nb
else:
    min_angle_sq_to_targets = _min_angle_sq_np
    nearest_abs_dots = _nearest_abs_dots_np
    min_max_abs_dot = _min_max_abs_dot_np
