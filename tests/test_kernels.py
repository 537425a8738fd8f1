"""The numba kernels and their numpy twins must be interchangeable."""

import json
import os
import subprocess
import sys

import numpy as np

from svpose import _kernels, so3


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_min_angle_sq_paths_agree():
    rng = rng_for(0)
    quats = so3.random_quats(rng, 500)
    targets = so3.random_quats(rng, 3)
    a = _kernels._min_angle_sq_np(quats, targets)
    b = _kernels._min_angle_sq_nb(quats, targets)
    assert np.allclose(a, b, atol=1e-12)


def test_nearest_abs_dots_paths_agree():
    rng = rng_for(1)
    quats = so3.random_quats(rng, 500)
    grid = so3.build_grid(72).quats
    idx_a, dot_a = _kernels._nearest_abs_dots_np(quats, grid)
    idx_b, dot_b = _kernels._nearest_abs_dots_nb(quats, grid)
    assert np.array_equal(idx_a, idx_b)
    assert np.allclose(dot_a, dot_b, atol=1e-12)


def test_nearest_abs_dots_chunking_boundary(monkeypatch):
    # More queries than one numpy block, so the block seams are exercised.
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 2048 * 16)
    rng = rng_for(2)
    quats = so3.random_quats(rng, _kernels._block_rows(16) + 7)
    grid = so3.build_grid(16).quats
    idx_a, _ = _kernels._nearest_abs_dots_np(quats, grid)
    idx_b, _ = _kernels._nearest_abs_dots_nb(quats, grid)
    assert np.array_equal(idx_a, idx_b)


def test_min_max_abs_dot_paths_agree():
    rng = rng_for(3)
    samples = so3.random_quats(rng, 400)
    grid = so3.build_grid(72).quats
    a = _kernels._min_max_abs_dot_np(samples, grid)
    b = _kernels._min_max_abs_dot_nb(samples, grid)
    assert abs(a - b) < 1e-14


def test_tie_break_first_maximum():
    # Duplicate grid entries give exactly equal dots; both paths must
    # pick the lower index.
    rng = rng_for(4)
    q = so3.random_quats(rng, 1)
    grid = np.vstack([q, q, q])
    idx_a, _ = _kernels._nearest_abs_dots_np(q, grid)
    idx_b, _ = _kernels._nearest_abs_dots_nb(q, grid)
    assert idx_a[0] == 0
    assert idx_b[0] == 0


def test_quaternion_sign_irrelevant():
    rng = rng_for(5)
    quats = so3.random_quats(rng, 64)
    grid = so3.build_grid(72).quats
    idx_a, _ = _kernels.nearest_abs_dots(quats, grid)
    idx_b, _ = _kernels.nearest_abs_dots(-quats, grid)
    assert np.array_equal(idx_a, idx_b)


def test_env_flag_forces_numpy_path():
    """SVPOSE_NUMBA=0 must select the numpy twins in a fresh process."""
    code = (
        "import json\n"
        "import numpy as np\n"
        "from svpose import _kernels, so3\n"
        "rng = np.random.Generator(np.random.PCG64(6))\n"
        "quats = so3.random_quats(rng, 100)\n"
        "grid = so3.build_grid(72).quats\n"
        "idx, dot = _kernels.nearest_abs_dots(quats, grid)\n"
        "print(json.dumps({'use_numba': _kernels.USE_NUMBA,"
        " 'idx': idx.tolist(), 'dot_sum': float(dot.sum())}))\n"
    )
    env = dict(os.environ, SVPOSE_NUMBA="0")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["use_numba"] is False

    rng = rng_for(6)
    quats = so3.random_quats(rng, 100)
    grid = so3.build_grid(72).quats
    idx, dot = _kernels.nearest_abs_dots(quats, grid)
    assert doc["idx"] == idx.tolist()
    assert abs(doc["dot_sum"] - float(dot.sum())) < 1e-12
