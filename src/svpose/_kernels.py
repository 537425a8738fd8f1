"""Hot numeric kernels over batches of unit quaternions, in numpy.

All quaternion arguments are float64 arrays of unit quaternions in
(w, x, y, z) order; the sign of a quaternion is irrelevant because
every kernel works with |dot| only. Where a kernel picks an index, the
first maximum wins, so a grid argmax breaks ties toward the lowest
index.

The grid-sized kernels work through their rows in blocks of about
`_BLOCK_ENTRIES` entries and reuse each block's buffer in place, so no
full rows x grid product is ever held.

One rounding rule: every kernel takes its |dot| values from
`fixed_abs_dots`, which sums the four terms in one fixed order, so a
row's |dot| is the same alone as in any batch or subset of the grid.
"""

import numpy as np

# Entries per block of the (rows, n_grid) temporaries: 256 kB of float64,
# so a block and the product beside it stay in a 2 MB L2 cache; a larger
# grid goes one row per block. A block of 2048 rows over a 4608-point
# grid was 75 MB, and at 2^18 entries (2 MB) a 64-row scan of a
# 36864-point grid took 25 ms against 7 ms (2 CPUs).
_BLOCK_ENTRIES = 1 << 15


def _block_rows(n_cols):
    return max(1, _BLOCK_ENTRIES // max(1, n_cols))


def min_angle_sq_stacked(quats, targets):
    """Squared geodesic angle from each quaternion to its nearest target.

    Broadcasts (..., 4) quaternions against (..., k, 4) stacks of k
    targets: a (1, R, 4) batch against a (T, 1, k, 4) stack gives a
    (T, R) array, one row per stack. Every entry is the entry the same
    quaternion and stack give alone.
    """
    best = fixed_abs_dots(quats, targets[..., 0, :])
    for m in range(1, targets.shape[-2]):
        np.maximum(best, fixed_abs_dots(quats, targets[..., m, :]), out=best)
    np.minimum(best, 1.0, out=best)
    np.arccos(best, out=best)
    best *= 2.0
    np.multiply(best, best, out=best)
    return best


def min_angle_sq_to_targets(quats, targets):
    """Squared geodesic angle from each of (R, 4) quaternions to the nearest of (k, 4) targets."""
    return min_angle_sq_stacked(quats, targets)


def fixed_abs_dots(a, b):
    """|((a0 b0 + a1 b1) + a2 b2) + a3 b3| over broadcast (..., 4) arrays."""
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    out += a[..., 3] * b[..., 3]
    np.abs(out, out=out)
    return out


def nearest_abs_dots(queries, grid):
    """Index of each query's nearest grid quaternion, and its |dot| from `fixed_abs_dots`."""
    n = queries.shape[0]
    step = _block_rows(grid.shape[0])
    idx = np.empty(n, dtype=np.int64)
    dot = np.empty(n)
    for s in range(0, n, step):
        block = fixed_abs_dots(queries[s : s + step, None, :], grid)
        k = block.argmax(axis=1)
        idx[s : s + step] = k
        dot[s : s + step] = block[np.arange(block.shape[0]), k]
    return idx, dot


def min_max_abs_dot(samples, grid):
    """Smallest over the samples of each sample's largest |dot| with the grid."""
    step = _block_rows(grid.shape[0])
    worst = np.inf
    for s in range(0, samples.shape[0], step):
        m = fixed_abs_dots(samples[s : s + step, None, :], grid).max(axis=1).min()
        if m < worst:
            worst = m
    return worst
