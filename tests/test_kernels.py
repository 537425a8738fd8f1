"""The kernels against a brute-force oracle, one quaternion at a time."""

import numpy as np

from svpose import _kernels, so3


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def abs_dots(q, others):
    """|<q, g>| for every row g, summed term by term in a fixed order.

    The order of `_kernels.fixed_abs_dots`, so the kernels built on it
    match exactly.
    """
    return np.abs(
        ((others[:, 0] * q[0] + others[:, 1] * q[1]) + others[:, 2] * q[2])
        + others[:, 3] * q[3]
    )


def check_nearest(queries, grid, idx, dot):
    for r, q in enumerate(queries):
        d = abs_dots(q, grid)
        assert abs(dot[r] - d[idx[r]]) <= 1e-12
        assert d[idx[r]] >= d.max() - 1e-12


def test_min_angle_sq_matches_oracle():
    # Exact: the oracle sums each |dot| in the kernel's order, so the
    # result is the same one row at a time and in any layout.
    rng = rng_for(0)
    quats = so3.random_quats(rng, 500)
    for n_targets in (1, 2, 4):
        targets = so3.random_quats(rng, n_targets)
        # One query on a target, where the clamp at |dot| = 1 matters.
        batch = np.vstack([quats, targets[-1:]])
        got = _kernels.min_angle_sq_to_targets(batch, targets)
        want = []
        for q in batch:
            angle = 2.0 * np.arccos(np.minimum(abs_dots(q, targets).max(), 1.0))
            want.append(angle * angle)
        assert np.array_equal(got, want)
        assert np.array_equal(_kernels.min_angle_sq_to_targets(batch.T.copy().T, targets), got)
        assert got[-1] <= 1e-9


def test_nearest_abs_dots_matches_oracle():
    rng = rng_for(1)
    quats = so3.random_quats(rng, 500)
    grid = so3.build_grid(72).quats
    idx, dot = _kernels.nearest_abs_dots(quats, grid)
    check_nearest(quats, grid, idx, dot)


def test_nearest_abs_dots_chunking_boundary(monkeypatch):
    # A 16-point grid in 2048-row blocks: 2055 rows cross a block seam.
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 2048 * 16)
    rng = rng_for(2)
    quats = so3.random_quats(rng, _kernels._block_rows(16) + 7)
    grid = so3.build_grid(16).quats
    idx, dot = _kernels.nearest_abs_dots(quats, grid)
    check_nearest(quats, grid, idx, dot)
    # The sample furthest from the grid goes last, past the seam.
    best = np.array([abs_dots(q, grid).max() for q in quats])
    last = int(best.argmin())
    quats[[last, -1]] = quats[[-1, last]]
    assert _kernels.min_max_abs_dot(quats, grid) == best.min()


def test_min_max_abs_dot_matches_oracle():
    rng = rng_for(3)
    samples = so3.random_quats(rng, 400)
    grid = so3.build_grid(72).quats
    want = min(abs_dots(q, grid).max() for q in samples)
    assert _kernels.min_max_abs_dot(samples, grid) == want
    # The same sums as `fixed_abs_dots` over the whole batch at once.
    whole = _kernels.fixed_abs_dots(samples[:, None, :], grid).max(axis=1).min()
    assert _kernels.min_max_abs_dot(samples, grid) == whole


def test_tie_break_first_maximum():
    # Duplicate grid entries give exactly equal dots; the lower index wins.
    rng = rng_for(4)
    q = so3.random_quats(rng, 1)
    grid = np.vstack([q, q, q])
    idx, _ = _kernels.nearest_abs_dots(q, grid)
    assert idx[0] == 0


def test_quaternion_sign_irrelevant():
    rng = rng_for(5)
    quats = so3.random_quats(rng, 64)
    grid = so3.build_grid(72).quats
    idx_a, dot_a = _kernels.nearest_abs_dots(quats, grid)
    idx_b, dot_b = _kernels.nearest_abs_dots(-quats, grid)
    assert np.array_equal(idx_a, idx_b)
    assert np.array_equal(dot_a, dot_b)
    targets = grid[:3]
    assert np.array_equal(
        _kernels.min_angle_sq_to_targets(quats, targets),
        _kernels.min_angle_sq_to_targets(-quats, targets),
    )


def test_nearest_abs_dots_is_the_oracle_bit_for_bit(monkeypatch):
    # The oracle's sums are the kernel's, so indices and |dot| match
    # exactly, across a block seam and one row at a time alike.
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 64 * 72)
    rng = rng_for(6)
    grid = so3.build_grid(72).quats
    quats = np.vstack([so3.random_quats(rng, 90), grid[:5], -grid[5:10], grid[:3]])
    idx, dot = _kernels.nearest_abs_dots(quats, grid)
    for r, q in enumerate(quats):
        d = abs_dots(q, grid)
        assert idx[r] == int(np.argmax(d)) and dot[r] == d.max()
        one = _kernels.nearest_abs_dots(q[None, :], grid)
        assert one[0][0] == idx[r] and one[1][0] == dot[r]
    pairs = _kernels.fixed_abs_dots(quats, grid[idx])
    assert np.array_equal(pairs, dot)
    assert np.array_equal(_kernels.nearest_abs_dots(q[None, :], np.vstack([q, q]))[0], [0])
