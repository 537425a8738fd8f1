import numpy as np
import pytest

from svpose import so3, solver
from svpose.energy import (
    ConstantScorer,
    EnergyTable,
    GridBlock,
    PairwiseScorer,
    SymmetricModeScorer,
    TableScorer,
    pair_quats,
    score_over_grid,
)
from svpose.solver import (
    RotationHypothesis,
    coordinate_ascent,
    grid_search,
    mst_init,
    solve,
    total_energy,
)
from svpose.synth import RigSpec, generate_scene, scene_to_scorer


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def planted_instance(seed, grid, n_cameras=3, kappa=50.0, jitter=0.05):
    """Ground truth on the grid (camera 0 at identity), modes at the
    true relative rotations with a small perturbation."""
    rng = rng_for(seed)
    idx = rng.integers(0, grid.n, size=n_cameras - 1)
    rots = [np.eye(3)] + [so3.quat_to_matrix(grid.quats[int(k)]) for k in idx]
    modes = {}
    for i in range(n_cameras):
        for j in range(i + 1, n_cameras):
            rel = rots[j] @ rots[i].T
            if jitter > 0.0:
                wobble = so3.axis_angle_rotation(
                    rng.standard_normal(3), jitter * rng.uniform()
                )
                rel = wobble @ rel
            modes[(i, j)] = so3.matrix_to_quat(rel)[None, :]
    return SymmetricModeScorer(modes=modes, kappa=kappa), np.array(rots)


def brute_max_three(scorer, grid):
    """Exhaustive maximum of the ordered-pair objective for N=3 with
    camera 0 pinned to the identity."""
    s01 = score_over_grid(scorer, 0, 1, grid)
    s02 = score_over_grid(scorer, 0, 2, grid)
    conj = so3.quat_conj(grid.quats)
    s12 = np.empty((grid.n, grid.n))
    for a in range(grid.n):
        rels = so3.quat_mul(grid.quats, conj[a][None, :])
        s12[a] = scorer.score_quats(1, 2, rels)
    totals = s01[:, None] + s02[None, :] + s12
    return 2.0 * float(totals.max())


def test_total_energy_matches_pairwise_loop():
    rng = rng_for(0)
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(1, grid, n_cameras=4)
    rots = np.array([so3.random_rotation(rng) for _ in range(4)])
    expect = 0.0
    for i in range(4):
        for j in range(4):
            if i != j:
                rel = so3.matrix_to_quat(rots[j] @ rots[i].T)
                expect += scorer.score_quats(i, j, rel[None, :])[0]
    assert total_energy(scorer, rots) == pytest.approx(expect, abs=1e-9)


def best_pairwise(scorer, i, j, grid):
    # The pair's best grid index and score: a one-term search.
    [(k, score, _)] = grid_search(scorer, grid, [[(i, j, None, "j")]])
    return k, score


def test_best_pairwise_matches_row_argmax():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(2, grid)
    row = score_over_grid(scorer, 0, 1, grid)
    k, score = best_pairwise(scorer, 0, 1, grid)
    assert score == row.max()
    assert k == row.argmax()


def test_best_pairwise_tie_breaks_low():
    grid = so3.build_grid(72)
    assert best_pairwise(ConstantScorer(1.0), 0, 1, grid) == (0, 1.0)


def test_mst_init_star_recovers_planted_exactly():
    grid = so3.build_grid(576)
    scorer, rots = planted_instance(3, grid, n_cameras=4, jitter=0.0)
    hyp = mst_init(scorer, 4, grid)
    assert isinstance(hyp, RotationHypothesis)
    assert hyp.sweeps_used == 0
    assert np.array_equal(hyp.rotations[0], np.eye(3))
    # acos floor near zero angle is ~3e-8; anything below 1e-7 is exact.
    for i in range(4):
        assert so3.geodesic_distance(hyp.rotations[i], rots[i]) < 1e-7
    # Every relative rotation sits exactly in a zero-scoring well.
    assert hyp.total_energy == pytest.approx(0.0, abs=1e-9)
    assert hyp.energy_trace == [hyp.total_energy]


def test_mst_init_follows_strong_edges():
    # Chain scores: (0,1) and (1,2) strong, (0,2) weak, so the tree is
    # the chain and camera 2 is composed through camera 1.
    grid = so3.build_grid(72)
    rows = {
        (0, 1): np.zeros(72),
        (1, 2): np.zeros(72),
        (0, 2): np.zeros(72),
    }
    rows[(0, 1)][10] = 5.0
    rows[(1, 2)][20] = 4.0
    rows[(0, 2)][30] = 1.0
    table = EnergyTable(grid_spec=grid.spec, rows=rows)
    hyp = mst_init(TableScorer(table, grid), 3, grid)
    assert np.allclose(hyp.rotations[1], so3.quat_to_matrix(grid.quats[10]), atol=1e-12)
    expect_2 = so3.quat_to_matrix(grid.quats[20]) @ so3.quat_to_matrix(grid.quats[10])
    assert np.allclose(hyp.rotations[2], expect_2, atol=1e-12)


def test_mst_init_rejects_single_camera():
    grid = so3.build_grid(72)
    with pytest.raises(ValueError):
        mst_init(ConstantScorer(), 1, grid)


def test_ascent_zero_sweeps_returns_init():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(4, grid)
    init = mst_init(scorer, 3, grid)
    out = coordinate_ascent(scorer, init, grid, max_sweeps=0)
    assert out.sweeps_used == 0
    assert np.array_equal(out.rotations, init.rotations)
    assert out.total_energy == pytest.approx(init.total_energy, abs=1e-12)


def test_ascent_fixed_point_stops_quiet():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(5, grid)
    first = solve(scorer, 3, grid)
    again = coordinate_ascent(scorer, first, grid)
    assert np.array_equal(again.rotations, first.rotations)
    assert again.sweeps_used == 1  # the first quiet sweep ends the ascent


def test_ascent_trace_monotone_from_on_grid_init():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(6, grid, n_cameras=4)
    init = [np.eye(3)] + [so3.quat_to_matrix(grid.quats[0])] * 3
    out = coordinate_ascent(scorer, init, grid)
    trace = np.array(out.energy_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert out.total_energy == pytest.approx(
        total_energy(scorer, out.rotations), abs=1e-9
    )


def test_ascent_accepts_plain_rotation_list():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(7, grid)
    init = [np.eye(3), so3.quat_to_matrix(grid.quats[3]), so3.quat_to_matrix(grid.quats[4])]
    out = coordinate_ascent(scorer, init, grid, max_sweeps=2)
    assert out.rotations.shape == (3, 3, 3)


def test_solve_deterministic():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(8, grid)
    a = solve(scorer, 3, grid)
    b = solve(scorer, 3, grid)
    assert np.array_equal(a.rotations, b.rotations)
    assert a.total_energy == b.total_energy
    assert a.sweeps_used == b.sweeps_used


def test_solve_hits_brute_force_max_on_planted():
    grid = so3.build_grid(72)
    for seed in range(6):
        scorer, _ = planted_instance(seed, grid)
        got = solve(scorer, 3, grid).total_energy
        brute = brute_max_three(scorer, grid)
        assert got <= brute + 1e-6
        assert got == pytest.approx(brute, abs=1e-6)


def test_solve_never_exceeds_brute_on_free_instances():
    # Continuous ground truth is not representable on the grid; the
    # solver may miss the discrete optimum but must never beat it.
    grid = so3.build_grid(72)
    for seed in range(4):
        scene = generate_scene(RigSpec(n_cameras=3, seed=seed))
        scorer = scene_to_scorer(scene, kappa=10.0)
        got = solve(scorer, 3, grid).total_energy
        assert got <= brute_max_three(scorer, grid) + 1e-6


def test_recovery_within_quantization_bound():
    """Errors against continuous ground truth stay within twice the
    covering radius of the grid."""
    grid = so3.build_grid(4608)
    bound = 2.0 * grid.covering_radius
    for seed in (0, 1):
        scene = generate_scene(RigSpec(n_cameras=3, seed=seed))
        scorer = scene_to_scorer(scene, kappa=50.0)
        hyp = solve(scorer, 3, grid)
        gt = [p.rotation for p in scene.poses]
        for i in range(3):
            for j in range(i + 1, 3):
                err = so3.geodesic_distance(
                    so3.relative_rotation(hyp.rotations[i], hyp.rotations[j]),
                    so3.relative_rotation(gt[i], gt[j]),
                )
                assert err <= bound


class ComposedOnly(PairwiseScorer):
    """Exposes only score_quats, so whole grids take the base-class default."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.directional = scorer.directional

    def score_quats(self, i, j, quats):
        return self.scorer.score_quats(i, j, quats)


def directional_scorer(scene, kappa=50.0, seed=0):
    """Mode scorer with the (j, i) modes perturbed apart from (i, j)."""
    rng = rng_for(seed)
    modes = dict(scene_to_scorer(scene, kappa=kappa).modes)
    for (i, j), quats in list(modes.items()):
        wobble = so3.axis_angle_rotation(rng.standard_normal(3), 0.1 * rng.uniform())
        rel = wobble @ so3.quat_to_matrix(so3.quat_conj(quats[0]))
        modes[(j, i)] = so3.matrix_to_quat(rel)[None, :]
    return SymmetricModeScorer(modes=modes, kappa=kappa)


def test_solve_through_score_grid_matches_composed_candidates():
    for n in (576, 4608):
        grid = so3.build_grid(n)
        for seed in (0, 1):
            scene = generate_scene(RigSpec(n_cameras=6, seed=seed))
            scorers = [scene_to_scorer(scene, kappa=50.0, noise_angle=0.02)]
            if seed == 0:
                scorers.append(directional_scorer(scene, seed=n))
            for scorer in scorers:
                got = solve(scorer, 6, grid)
                want = solve(ComposedOnly(scorer), 6, grid)
                assert np.array_equal(got.rotations, want.rotations)
                assert got.total_energy == want.total_energy
                assert got.sweeps_used == want.sweeps_used
                assert got.energy_trace == pytest.approx(want.energy_trace, abs=1e-9)


def test_solver_config_validation():
    grid = so3.build_grid(72)
    scorer, _ = planted_instance(9, grid)
    with pytest.raises(ValueError, match="max_sweeps"):
        solve(scorer, 3, grid, -1)
    out = solve(scorer, 3, grid, 0)
    assert out.sweeps_used == 0


def test_ascent_trace_starts_at_init_energy_without_rescoring(monkeypatch):
    grid = so3.build_grid(576)
    scorer, _ = planted_instance(12, grid, n_cameras=5)
    init = mst_init(scorer, 5, grid)
    start = total_energy(scorer, init.rotations)
    from svpose import solver

    calls = []

    def counted(scorer_, rotations):
        calls.append(1)
        return total_energy(scorer_, rotations)

    monkeypatch.setattr(solver, "total_energy", counted)
    out = coordinate_ascent(scorer, init, grid)
    assert out.energy_trace[0] == start == init.total_energy
    # Only the final energy is computed; the init's is reused.
    assert len(calls) == 1
    # A plain rotation list has no energy, so it is scored.
    calls.clear()
    assert coordinate_ascent(scorer, list(init.rotations), grid).energy_trace == out.energy_trace
    assert len(calls) == 2


def looped_energy(scorer, rotations):
    """Ordered-pair energy from one `score_quats` call per pair."""
    quats = [so3.matrix_to_quat(r) for r in rotations]
    total = 0.0
    for i in range(len(quats)):
        for j in range(len(quats)):
            if i != j:
                rel = so3.quat_mul(quats[j], so3.quat_conj(quats[i]))
                total += float(scorer.score_quats(i, j, rel[None, :])[0])
    return total


def test_batched_energies_match_the_per_pair_loop_bit_for_bit():
    grid = so3.build_grid(576)
    rng = rng_for(43)
    n = 5
    modes = {
        (i, j): so3.random_quats(rng, int(rng.integers(1, 5)))
        for i in range(n)
        for j in range(n)
        if i != j and (min(i, j), max(i, j)) not in {(0, 3), (2, 4)}
    }
    directional = SymmetricModeScorer(modes=modes, kappa=20.0)
    # One order per pair: the other is served reversed.
    symmetric = SymmetricModeScorer(
        modes={k: v for k, v in modes.items() if k[0] < k[1]}, kappa=7.0
    )
    scene = generate_scene(RigSpec(n_cameras=n, seed=43))
    mode = scene_to_scorer(scene, kappa=50.0, noise_angle=0.02)
    rows = {(i, j): score_over_grid(mode, i, j, grid) for i in range(n) for j in range(i + 1, n)}
    table = TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)
    at_random = so3.quat_to_matrix(so3.random_quats(rng, n))
    on_grid = so3.quat_to_matrix(grid.quats[rng.choice(grid.n, n, replace=False)])
    # Relative rotations on a mode can score -0.0.
    on_mode = so3.quat_to_matrix(np.stack([[1.0, 0, 0, 0], *(modes[(0, j)][0] for j in (1, 2))]))
    on_mode = np.concatenate([on_mode, at_random[3:]])
    for scorer in (directional, symmetric, mode, table, ConstantScorer(-1.5)):
        for rotations in (at_random, on_grid, on_mode):
            assert total_energy(scorer, rotations) == looped_energy(scorer, rotations)
            quats = [so3.matrix_to_quat(r) for r in rotations]
            terms = [(3, j, quats[j], "i") for j in range(n) if j != 3]
            terms += [(j, 3, quats[j], "j") for j in range(n) if j != 3]
            looped = np.zeros(1)
            for i, j, fixed, moving in terms:
                looped += scorer.score_quats(i, j, pair_quats(quats[3][None, :], fixed, moving))
            # As a block update scores camera 3 off the grid.
            ends = [
                (fixed, quats[3]) if moving == "i" else (quats[3], fixed)
                for _, _, fixed, moving in terms
            ]
            left, right = np.array(ends).transpose(1, 0, 2)
            pairs = [term[:2] for term in terms]
            assert solver._pair_sum(scorer, pairs, left, right) == looped[0]


class NaNAt(PairwiseScorer):
    """Minus the angle from the identity, and NaN at one quaternion, if any."""

    directional = False

    def __init__(self, nan_quat=None):
        self.nan_quat = nan_quat

    def score_quats(self, i, j, quats):
        q = np.asarray(quats)
        scores = -2.0 * np.arccos(np.minimum(np.abs(q[:, 0]), 1.0))
        if self.nan_quat is not None:
            scores[(q == self.nan_quat).all(axis=1)] = np.nan
        return scores


class EveryCell(GridBlock):
    """The default block's scores, bounded over the cells by +inf: nothing is pruned."""

    levels = ("cells",)

    def bounds(self, at, level, nodes):
        return np.full(np.broadcast(at, nodes).shape, np.inf)


class BoundedNaNAt(NaNAt):
    def block(self, grid, terms):
        return EveryCell(self, grid, terms)


def test_a_nan_score_is_refused_by_dense_and_bounded_searches():
    # np.argmax takes a NaN for the maximum: a dense search once picked
    # the NaN row for every pair, and the solve put cameras 1-3 there.
    grid = so3.build_grid(576)
    clean = solve(NaNAt(), 4, grid)
    assert [so3.nearest_in_grid(grid, r)[0] for r in clean.rotations[1:]] == [574] * 3
    for scorer in (NaNAt(grid.quats[100]), BoundedNaNAt(grid.quats[100])):
        with pytest.raises(ValueError, match="NaN"):
            solve(scorer, 4, grid)
        with pytest.raises(ValueError, match="NaN"):
            grid_search(scorer, grid, [[(0, 1, None, "j")]])
    # Away from the NaN, the bounded search answers as the dense one.
    groups = [[(0, 1, grid.quats[7], "i")]]
    assert grid_search(BoundedNaNAt(), grid, groups) == grid_search(NaNAt(), grid, groups)


def test_total_energy_refuses_a_nan_sum_and_keeps_infinities():
    rotations = [np.eye(3)] * 3
    with pytest.raises(ValueError, match="NaN"):
        total_energy(ConstantScorer(np.nan), rotations)
    assert total_energy(ConstantScorer(-np.inf), rotations) == -np.inf
