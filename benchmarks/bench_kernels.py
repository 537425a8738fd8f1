"""Time block updates, grid scoring, the nearest-grid lookup and the kernels.

Run from the repository root:

    python benchmarks/bench_kernels.py

First, one block update of a 20-camera scene at G=36864 (the mode
scorer, partners at their spanning-tree rotations) is timed both ways:
the bounded search over the grid's cells, against the same search with
the block's bound hidden, which scores the whole grid as one cell. The
two must return the same argmax, value and current-index value. The
bounded search's candidate fraction, the grid rows it scores over G, is
printed beside its timing. Building the cell index is timed on its own;
a solve builds it once per grid. The mode scorer's stacked bounded
search, which scores all the block's terms in one kernel call per
evaluation, is then timed against the default `GridBlock`, which
offers no bound and sums one whole-grid `score_grid` row per term, so
its search is dense; again the two must return the same three numbers.

Then one partner's term of a block update at G=36864 is timed both
ways: composing every grid candidate with the partner's rotation and
scoring the batch (`score_quats`), against the mode scorer's
`score_grid`, which composes the few modes with the partner instead.
Both sides of the pair are timed, and the two must agree to within
1e-9 with the same argmax.

Then the grid's nearest table is built at G=576, 4608 and 36864 (the
build is timed once), and lookups of 4608 queries through it
(`so3.nearest_indices`) are timed against the dense kernel
`_kernels.nearest_abs_dots`, on a solver-shaped batch (one camera
composed with grid rotations) and on random rotations. The table must
return the indices of a whole-grid scan with the same sums
(`_kernels.nearest_fixed`). The mean and largest bucket list lengths
are printed beside each size.

Then the mode kernel `_kernels.min_angle_sq_to_targets` is timed on
the shapes the solver gives a single term: the G=4608 and G=36864 grids
(a term's scores) and their 256 and 2048 cell centers (a term's cell
bounds), each against 1, 2 and 4 targets, a pair's modes.
The stacked kernel `_kernels.min_angle_sq_stacked` is timed on a
20-camera block's 19 terms against the same cell centers.

Last, the other kernels are timed on sizes close to the real workloads
(nearest-neighbour projection, covering-radius probes).
"""

import time

import numpy as np

from svpose import _kernels, so3, solver
from svpose.energy import GridBlock, SymmetricModeScorer, pair_quats
from svpose.synth import RigSpec, generate_scene, scene_to_scorer


def _timeit(fn, *args, repeat=5):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class Proxy:
    """Forwards every attribute to a scorer or a block it wraps."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class WholeGrid(Proxy):
    """The scorer with its block bound hidden: every search scores the whole grid."""

    def block(self, grid, terms):
        return Unbounded(self._inner.block(grid, terms))


class Unbounded(Proxy):
    def bounds(self):
        return None


class PerTerm(Proxy):
    """The scorer through the default block: dense, one `score_grid` call per term."""

    def block(self, grid, terms):
        return GridBlock(self._inner, grid, terms)


class RowCounter(Proxy):
    """The scorer, counting the grid rows its blocks score."""

    rows = 0

    def block(self, grid, terms):
        return Counted(self._inner.block(grid, terms), self, grid.n)


class Counted(Proxy):
    def __init__(self, block, counter, n):
        super().__init__(block)
        self._counter = counter
        self._n = n

    def scores(self, rows=None):
        self._counter.rows += self._n if rows is None else rows.shape[0]
        return self._inner.scores(rows)


def bench_block_update():
    n = 20
    grid = so3.build_grid(36864)
    t0 = time.perf_counter()
    grid.cells
    t_cells = time.perf_counter() - t0
    scene = generate_scene(RigSpec(n_cameras=n, seed=1000, jitter=0.05))
    scorer = scene_to_scorer(scene, kappa=50.0, noise_angle=0.02)
    rotations = solver.mst_init(scorer, n, grid).rotations
    quats = [so3.matrix_to_quat(r) for r in rotations]
    camera = 7
    current, _ = so3.nearest_in_grid(grid, rotations[camera])
    terms = [(camera, j, quats[j], "i") for j in range(n) if j != camera]

    def bounded():
        return solver.grid_search(scorer, grid, terms, n - 1, current)

    def whole():
        return solver.grid_search(WholeGrid(scorer), grid, terms, n - 1, current)

    def per_term():
        return solver.grid_search(PerTerm(scorer), grid, terms, n - 1, current)

    got, want, looped = bounded(), whole(), per_term()
    assert got == want, f"bounded search {got} differs from whole grid {want}"
    assert got == looped, f"stacked bounded search {got} differs from dense per-term {looped}"
    counter = RowCounter(scorer)
    solver.grid_search(counter, grid, terms, n - 1, current)
    t_whole = _timeit(whole)
    t_bounded = _timeit(bounded)
    t_per_term = _timeit(per_term, repeat=20)
    t_stacked = _timeit(bounded, repeat=20)
    print(f"{'block update, 20 cameras, G=36864':<44} {'whole':>10} {'bounded':>10} {'speedup':>8}")
    print(
        f"{f'argmax {got[0]}, value {got[1]:.6f}':<44} {t_whole * 1e3:>8.2f}ms "
        f"{t_bounded * 1e3:>8.2f}ms {t_whole / t_bounded:>7.2f}x"
    )
    print(f"{f'bounded search scored {counter.rows} of {grid.n} rows':<44} {counter.rows / grid.n:>9.1%}")
    print(f"{'cell index build (once per grid)':<44} {t_cells * 1e3:>8.2f}ms")
    name = f"{len(terms)} terms, default dense vs stacked bounded"
    print(f"{name:<44} {'per-term':>10} {'stacked':>10} {'speedup':>8}")
    print(
        f"{'same argmax, value and current value':<44} {t_per_term * 1e3:>8.2f}ms "
        f"{t_stacked * 1e3:>8.2f}ms {t_per_term / t_stacked:>7.2f}x"
    )


def bench_score_grid():
    rng = np.random.default_rng(13)
    grid = so3.build_grid(36864)
    scorer = SymmetricModeScorer(modes={(0, 1): so3.random_quats(rng, 2)}, kappa=50.0)
    partner = so3.random_quats(rng, 1)[0]
    print(f"{'one partner, G=36864, 2 modes':<44} {'composed':>10} {'hook':>10} {'speedup':>8}")
    for moving in ("i", "j"):

        def composed():
            return scorer.score_quats(0, 1, pair_quats(grid.quats, partner, moving))

        def hook():
            return scorer.score_grid(0, 1, grid, partner, moving=moving)

        want, got = composed(), hook()
        err = float(np.abs(got - want).max())
        assert err <= 1e-9, f"moving {moving}: hook differs by {err!r}"
        assert got.argmax() == want.argmax(), f"moving {moving}: argmax differs"
        t_composed = _timeit(composed)
        t_hook = _timeit(hook)
        name = f"camera {moving} moves (max diff {err:.1e})"
        print(
            f"{name:<44} {t_composed * 1e3:>8.2f}ms {t_hook * 1e3:>8.2f}ms "
            f"{t_composed / t_hook:>7.2f}x"
        )


def bench_lookup():
    rng = np.random.default_rng(12)
    print(
        f"{'nearest-grid lookup, 4608 queries':<44} {'build':>10} {'dense':>10} "
        f"{'table':>10} {'speedup':>8} {'list mean/max':>14}"
    )
    for n in (576, 4608, 36864):
        grid = so3.build_grid(n)
        t0 = time.perf_counter()
        table = grid.nearest_table
        t_build = time.perf_counter() - t0
        lens = np.diff(table.ptr)
        camera = so3.quat_conj(grid.quats[n // 3])[None, :]
        batches = [
            ("solver batch", so3.quat_mul(np.resize(grid.quats, (4608, 4)), camera)),
            ("random", so3.random_quats(rng, 4608)),
        ]
        for name, queries in batches:
            queries = np.ascontiguousarray(queries)
            want, _ = _kernels.nearest_fixed(queries, grid.quats)
            got = so3.nearest_indices(grid, queries)
            assert np.array_equal(want, got), f"G={n} {name}: table lookup differs"
            t_dense = _timeit(_kernels.nearest_abs_dots, queries, grid.quats)
            t_table = _timeit(so3.nearest_indices, grid, queries)
            print(
                f"{f'G={n}, {name}':<44} {t_build * 1e3:>8.1f}ms {t_dense * 1e3:>8.2f}ms "
                f"{t_table * 1e3:>8.2f}ms {t_dense / t_table:>7.2f}x "
                f"{f'{lens.mean():.1f}/{lens.max()}':>14}"
            )


def bench_mode_kernel():
    rng = np.random.default_rng(11)
    counts = (1, 2, 4)
    targets = {k: so3.random_quats(rng, k) for k in counts}
    print(f"{'min_angle_sq_to_targets, by targets':<44}" + "".join(f"{k:>12}" for k in counts))
    for n in (4608, 36864):
        grid = so3.build_grid(n)
        centers = grid.cells.centers
        shapes = [(f"G={n}, grid", grid.quats), (f"G={n}, {len(centers)} cell centers", centers)]
        for name, quats in shapes:
            times = [_timeit(_kernels.min_angle_sq_to_targets, quats, targets[k]) for k in counts]
            print(f"{name:<44}" + "".join(f"{t * 1e3:>10.3f}ms" for t in times))
        stacks = {k: so3.random_quats(rng, 19 * k).reshape(19, 1, k, 4) for k in counts}
        times = [_timeit(_kernels.min_angle_sq_stacked, centers[None], stacks[k]) for k in counts]
        name = f"G={n}, 19 terms x {len(centers)} centers, stacked"
        print(f"{name:<44}" + "".join(f"{t * 1e3:>10.3f}ms" for t in times))


def main():
    bench_block_update()
    print()
    bench_score_grid()
    print()
    bench_lookup()
    print()
    bench_mode_kernel()
    print()
    rng = np.random.default_rng(11)
    grid = so3.build_grid(4608).quats
    queries = so3.random_quats(rng, 20000)

    cases = [
        ("nearest_abs_dots (20000 x 4608)", _kernels.nearest_abs_dots, (queries, grid)),
        ("nearest_fixed (2000 x 4608)", _kernels.nearest_fixed, (queries[:2000], grid)),
        ("min_max_abs_dot (10000 x 4608)", _kernels.min_max_abs_dot, (queries[:10000], grid)),
    ]
    print(f"{'kernel':<44} {'time':>10}")
    for name, fn, args in cases:
        print(f"{name:<44} {_timeit(fn, *args) * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
