"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them all).
Tolerances are pinned in the assertions; the helper code deliberately
re-derives its oracles (brute force, constructed transforms) instead of
reusing solver internals.
"""

import json
import math
import time

import numpy as np
import pytest

from svpose import cli, so3
from svpose.energy import SymmetricModeScorer, nll_of
from svpose.evaluation import (
    accuracy,
    center_errors,
    evaluate,
    rotation_errors_deg,
    translation_align,
    translation_errors,
    umeyama_align,
)
from svpose.frame import CameraPose, first_camera_frame_targets, normalize_scene
from svpose.solver import solve
from svpose.synth import RigSpec, generate_scene, look_at_rotation, scene_to_scorer


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def report(ok, line):
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    assert ok, line


def planted_instance(seed, grid, n_cameras, kappa=50.0, jitter=0.05):
    """Ground truth on the grid (camera 0 at identity); one mode per
    pair at the true relative rotation, optionally perturbed."""
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
    # Exhaustive ordered-pair objective over all grid^2 assignments,
    # camera 0 pinned to the identity.
    s01 = scorer.score_quats(0, 1, grid.quats)
    s02 = scorer.score_quats(0, 2, grid.quats)
    conj = so3.quat_conj(grid.quats)
    best = -np.inf
    for a in range(grid.n):
        rels = so3.quat_mul(grid.quats, conj[a][None, :])
        row = scorer.score_quats(1, 2, rels)
        top = float((s02 + row).max()) + float(s01[a])
        if top > best:
            best = top
    return 2.0 * best


def facing_pose(center, lookat):
    center = np.asarray(center, dtype=np.float64)
    r = look_at_rotation(np.asarray(lookat) - center)
    return CameraPose(rotation=r, translation=-r @ center)


def facing_rig(rng, n, lookat, radius=(1.0, 1.0)):
    poses = []
    for _ in range(n):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        poses.append(facing_pose(lookat + rng.uniform(*radius) * d, lookat))
    return poses


def test_criterion_1_solver_exactness_small():
    """Solve matches brute force on 100 seeded 3-camera instances."""
    grid = so3.build_grid(72)
    t0 = time.perf_counter()
    matched = 0
    exceeded = 0
    for seed in range(100):
        scorer, _ = planted_instance(seed, grid, n_cameras=3)
        got = solve(scorer, 3, grid).total_energy
        brute = brute_max_three(scorer, grid)
        if got > brute + 1e-6:
            exceeded += 1
        if abs(got - brute) <= 1e-6:
            matched += 1
    dt = time.perf_counter() - t0
    ok = matched >= 95 and exceeded == 0 and dt < 10.0
    report(
        ok,
        f"criterion 1 (solver exactness, N=3, n=72): {matched}/100 brute-force"
        f" matches, {exceeded} exceed, {dt:.2f}s (limit 10s)",
    )


def test_criterion_2_noise_free_recovery():
    """Unimodal noise-free scorers on a fine grid: every pairwise error
    within twice the covering radius and perfect accuracy at 15 deg."""
    grid = so3.build_grid(4608)
    bound_deg = math.degrees(2.0 * grid.covering_radius)
    t0 = time.perf_counter()
    worst = 0.0
    all_within_15 = True
    for n in range(2, 9):
        scorer, rots = planted_instance(n, grid, n_cameras=n, jitter=0.0)
        hyp = solve(scorer, n, grid)
        gt = [CameraPose(rotation=r, translation=np.zeros(3)) for r in rots]
        pred = [
            CameraPose(rotation=r, translation=np.zeros(3)) for r in hyp.rotations
        ]
        errs = rotation_errors_deg(pred, gt)
        worst = max(worst, float(errs.max()))
        if accuracy(errs, 15.0) < 1.0:
            all_within_15 = False
    dt = time.perf_counter() - t0
    ok = worst <= bound_deg and all_within_15 and dt < 30.0
    report(
        ok,
        f"criterion 2 (noise-free recovery, N=2..8, n=4608): worst pair error"
        f" {worst:.2e} deg (bound {bound_deg:.2f}), acc@15"
        f" {'1.0' if all_within_15 else '<1.0'}, {dt:.2f}s (limit 30s)",
    )


def test_criterion_3_ambiguity_resolution():
    """A two-fold symmetric pair is disambiguated by the third camera."""
    grid = so3.build_grid(576)
    pairs = [(0, 1), (0, 2), (1, 2)]
    consistent = 0
    for seed in range(100):
        rng = rng_for(10_000 + seed)
        scene = generate_scene(RigSpec(n_cameras=3, seed=20_000 + seed))
        pair = pairs[int(rng.integers(3))]
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        scorer = scene_to_scorer(scene, kappa=50.0, symmetry={pair: (axis, 2)})
        hyp = solve(scorer, 3, grid)
        i, j = pair
        rel_solved = so3.relative_rotation(hyp.rotations[i], hyp.rotations[j])
        r_i = scene.poses[i].rotation
        r_j = scene.poses[j].rotation
        true_rel = r_j @ r_i.T
        ghost = r_j @ so3.axis_angle_rotation(axis, math.pi) @ r_i.T
        if so3.geodesic_distance(rel_solved, true_rel) < so3.geodesic_distance(
            rel_solved, ghost
        ):
            consistent += 1
    ok = consistent >= 99
    report(
        ok,
        f"criterion 3 (ambiguity resolution, N=3, n=576): consistent mode in"
        f" {consistent}/100 seeds (need 99)",
    )


def test_criterion_4_look_at_frame_invariants():
    """First target [0,0,1]; roll and same-radius orbit leave targets
    fixed; the first-camera frame fails the same orbit edit."""
    rng = rng_for(4)
    first_ok = True
    roll_ok = True
    orbit_ok = True
    counter_ok = True
    for _ in range(20):
        lookat = rng.standard_normal(3)
        poses = facing_rig(rng, 4, lookat, radius=(0.7, 1.3))
        frame = normalize_scene(poses)
        if np.abs(frame.targets[0] - [0.0, 0.0, 1.0]).max() > 1e-9:
            first_ok = False

        i = int(rng.integers(4))
        roll = so3.axis_angle_rotation([0.0, 0.0, 1.0], rng.uniform(0.2, 3.0))
        rolled = list(poses)
        rolled[i] = CameraPose(
            rotation=roll @ poses[i].rotation,
            translation=roll @ poses[i].translation,
        )
        if np.abs(normalize_scene(rolled).targets - frame.targets).max() > 1e-7:
            roll_ok = False

        i = int(rng.integers(1, 4))
        radius = np.linalg.norm(poses[i].center - lookat)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        orbited = list(poses)
        orbited[i] = facing_pose(lookat + radius * d, lookat)
        if np.abs(normalize_scene(orbited).targets - frame.targets).max() > 1e-7:
            orbit_ok = False
        moved = np.abs(
            first_camera_frame_targets(orbited) - first_camera_frame_targets(poses)
        ).max()
        if moved <= 1e-2:
            counter_ok = False
    ok = first_ok and roll_ok and orbit_ok and counter_ok
    report(
        ok,
        "criterion 4 (look-at frame): first target [0,0,1] @1e-9"
        f" {'ok' if first_ok else 'FAIL'}, roll invariance @1e-7"
        f" {'ok' if roll_ok else 'FAIL'}, orbit invariance @1e-7"
        f" {'ok' if orbit_ok else 'FAIL'}, first-camera counterexample >1e-2"
        f" {'ok' if counter_ok else 'FAIL'}",
    )


def test_criterion_5_alignment_oracles():
    """Both aligners recover 1000 constructed transforms; N=2 centers
    are always aligned perfectly."""
    rng = rng_for(5)
    worst_umeyama = 0.0
    worst_translation = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        x = rng.standard_normal((n, 3))
        s = rng.uniform(0.2, 5.0)
        r = so3.random_rotation(rng)
        t = rng.standard_normal(3) * 2.0
        got = umeyama_align(x, s * x @ r.T + t)
        worst_umeyama = max(
            worst_umeyama,
            abs(got.scale - s),
            float(np.abs(got.rotation - r).max()),
            float(np.abs(got.translation - t).max()),
        )

        gt = [
            CameraPose(rotation=so3.random_rotation(rng), translation=rng.standard_normal(3))
            for _ in range(n)
        ]
        shift = rng.standard_normal(3)
        pred = [
            CameraPose(
                rotation=g.rotation,
                translation=(g.translation - g.rotation @ shift) / s,
            )
            for g in gt
        ]
        got_s, got_shift = translation_align(pred, gt)
        worst_translation = max(
            worst_translation,
            abs(got_s - s),
            float(np.abs(got_shift - shift).max()),
        )
    oracle_ok = worst_umeyama < 1e-7 and worst_translation < 1e-7

    two_ok = True
    for seed in range(100):
        rng2 = rng_for(50_000 + seed)
        gt = [
            CameraPose(rotation=so3.random_rotation(rng2), translation=rng2.standard_normal(3))
            for _ in range(2)
        ]
        pred = [
            CameraPose(rotation=so3.random_rotation(rng2), translation=rng2.standard_normal(3))
            for _ in range(2)
        ]
        centers = np.array([p.center for p in gt])
        sigma = float(np.linalg.norm(centers - centers.mean(axis=0), axis=1).max())
        errs = center_errors(pred, gt) / sigma
        if accuracy(errs, 0.1) < 1.0:
            two_ok = False
    ok = oracle_ok and two_ok
    report(
        ok,
        f"criterion 5 (alignment oracles): worst umeyama residual"
        f" {worst_umeyama:.2e}, worst translation-align residual"
        f" {worst_translation:.2e} (need <1e-7), N=2 center accuracy"
        f" {'1.0' if two_ok else '<1.0'}",
    )


def test_criterion_6_metric_invariance():
    """A random similarity on the predicted frame moves no metric by
    more than 1e-6. Rotation and center metrics are checked on arbitrary
    predictions; the translation metric's alignment model assumes the
    true rotations, so the all-metric check runs with those."""
    rng = rng_for(6)
    worst_rc = 0.0
    worst_all = 0.0
    for seed in range(10):
        scene = generate_scene(
            RigSpec(n_cameras=5, seed=60_000 + seed, radius_min=0.7, radius_max=1.3)
        )
        gt = scene.poses
        wobbled = []
        for p in gt:
            w = so3.axis_angle_rotation(rng.standard_normal(3), 0.08)
            wobbled.append(
                CameraPose(
                    rotation=w @ p.rotation,
                    translation=p.translation + 0.05 * rng.standard_normal(3),
                )
            )
        true_rot = [
            CameraPose(
                rotation=p.rotation,
                translation=p.translation + 0.05 * rng.standard_normal(3),
            )
            for p in gt
        ]
        for pred, bucket in ((wobbled, "rc"), (true_rot, "all")):
            base = evaluate(pred, gt, scene.sigma).to_flat_dict()
            s = rng.uniform(0.2, 5.0)
            r = so3.random_rotation(rng)
            t = rng.standard_normal(3)
            moved = [
                CameraPose(
                    rotation=p.rotation @ r,
                    translation=s * p.translation + p.rotation @ t,
                )
                for p in pred
            ]
            got = evaluate(moved, gt, scene.sigma).to_flat_dict()
            for key in base:
                delta = abs(got[key] - base[key])
                if bucket == "rc":
                    if key.startswith(("rot_", "center_")):
                        worst_rc = max(worst_rc, delta)
                else:
                    worst_all = max(worst_all, delta)
    ok = worst_rc < 1e-6 and worst_all < 1e-6
    report(
        ok,
        f"criterion 6 (metric invariance): max drift {worst_rc:.2e}"
        f" (rotation/center, arbitrary preds), {worst_all:.2e}"
        f" (all metrics, true rotations); need <1e-6",
    )


def test_criterion_7_nll_sanity():
    """Uniform rows score ln(n); additive shifts cancel exactly."""
    rng = rng_for(7)
    worst_uniform = 0.0
    worst_shift = 0.0
    for n in (72, 576, 4608):
        grid = so3.build_grid(n)
        gt = so3.random_rotation(rng)
        uniform = nll_of(np.full(n, -1.5), gt, grid)
        worst_uniform = max(worst_uniform, abs(uniform - math.log(n)))
        scores = rng.standard_normal(n) * 5.0
        for shift in (-40.0, 7.5, 300.0):
            drift = abs(
                nll_of(scores + shift, gt, grid) - nll_of(scores, gt, grid)
            )
            worst_shift = max(worst_shift, drift)
    ok = worst_uniform < 1e-9 and worst_shift < 1e-9
    report(
        ok,
        f"criterion 7 (NLL sanity): |NLL - ln n| max {worst_uniform:.2e},"
        f" shift drift max {worst_shift:.2e} (need <1e-9)",
    )


def test_criterion_8_constant_translation_baseline():
    """Exact translations hit accuracy 1.0 at 0.1 sigma on non-spherical
    rigs; the constant [0,0,1] baseline scores strictly lower."""
    exact_all = []
    constz_all = []
    for seed in range(20):
        scene = generate_scene(
            RigSpec(n_cameras=6, seed=80_000 + seed, radius_min=0.7, radius_max=1.3)
        )
        gt = scene.poses
        exact = [
            CameraPose(rotation=p.rotation, translation=p.translation.copy())
            for p in gt
        ]
        constz = [
            CameraPose(rotation=p.rotation, translation=np.array([0.0, 0.0, 1.0]))
            for p in gt
        ]
        exact_all.append(translation_errors(exact, gt) / scene.sigma)
        constz_all.append(translation_errors(constz, gt) / scene.sigma)
    exact_acc = accuracy(np.concatenate(exact_all), 0.1)
    constz_acc = accuracy(np.concatenate(constz_all), 0.1)
    ok = exact_acc == 1.0 and constz_acc < 1.0
    report(
        ok,
        f"criterion 8 (constant-translation baseline): exact {exact_acc:.3f},"
        f" constant-z {constz_acc:.3f}, gap {exact_acc - constz_acc:.3f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """The full pipeline, run twice from the same config, is
    byte-identical, and --jobs does not change any data file."""

    def read_all(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    metrics = tmp_path / "metrics"
    pipeline = [
        ["synth", "-o", str(scenes), "--n", "4", "--scenes", "2", "--seed", "5"],
        ["solve", "-o", str(preds), "--scenes", str(scenes), "--grid-n", "576"],
        ["eval", "-o", str(metrics), "--pred", str(preds), "--gt", str(scenes), "--sweep"],
    ]
    for argv in pipeline:
        assert cli.main(argv) == 0
    snap = {d: read_all(d) for d in (scenes, preds, metrics)}
    for argv in pipeline:
        assert cli.main(argv) == 0
    rerun_identical = all(read_all(d) == snap[d] for d in (scenes, preds, metrics))

    jobs2 = tmp_path / "preds2"
    argv = ["solve", "-o", str(jobs2), "--scenes", str(scenes), "--grid-n", "576", "--jobs", "2"]
    assert cli.main(argv) == 0
    a = dict(snap[preds])
    b = read_all(jobs2)
    # The config records out/jobs; the data files must match exactly.
    a.pop("run_config.json")
    b.pop("run_config.json")
    jobs_identical = a == b

    config_doc = json.loads((preds / "run_config.json").read_text())
    ok = rerun_identical and jobs_identical and config_doc["grid_n"] == 576
    report(
        ok,
        f"criterion 9 (CLI determinism): rerun byte-identical"
        f" {'yes' if rerun_identical else 'NO'}, --jobs invariant"
        f" {'yes' if jobs_identical else 'NO'}",
    )


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
