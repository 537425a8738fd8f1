import json
import math
from dataclasses import replace

import numpy as np
import pytest

from svpose import so3
from svpose.errors import FormatError
from svpose.evaluation import evaluate, scene_scale
from svpose.frame import CameraPose
from svpose.solver import solve
from svpose.synth import (
    RigSpec,
    generate_scene,
    load_scene,
    look_at_rotation,
    save_scene,
    scene_to_scorer,
)


def score_one(scorer, i, j, rotation):
    """The score of one relative rotation, given as a matrix."""
    return float(scorer.score_quats(i, j, so3.matrix_to_quat(rotation)[None, :])[0])


def test_rig_spec_validation():
    with pytest.raises(ValueError):
        RigSpec(n_cameras=0)
    with pytest.raises(ValueError):
        RigSpec(n_cameras=2, seed=-1)
    with pytest.raises(ValueError):
        RigSpec(n_cameras=2, radius_min=0.0)
    with pytest.raises(ValueError):
        RigSpec(n_cameras=2, radius_min=2.0, radius_max=1.0)
    with pytest.raises(ValueError):
        RigSpec(n_cameras=2, jitter=math.pi / 2)
    with pytest.raises(ValueError):
        RigSpec(n_cameras=2, lookat=(0.0, 0.0))


def test_look_at_rotation_points_forward():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50):
        f = rng.standard_normal(3)
        r = look_at_rotation(f)
        so3.check_rotation(r)
        assert np.abs(r[2] - f / np.linalg.norm(f)).max() < 1e-12
    # Forward parallel to the up hint falls back to another hint.
    r = look_at_rotation([0.0, 1.0, 0.0])
    so3.check_rotation(r)
    with pytest.raises(ValueError):
        look_at_rotation([0.0, 0.0, 0.0])


def test_generate_scene_deterministic():
    rig = RigSpec(n_cameras=5, seed=3, radius_min=0.7, radius_max=1.3, jitter=0.1)
    a = generate_scene(rig)
    b = generate_scene(rig)
    for pa, pb in zip(a.poses, b.poses):
        assert np.array_equal(pa.rotation, pb.rotation)
        assert np.array_equal(pa.translation, pb.translation)
    assert a.sigma == b.sigma
    c = generate_scene(RigSpec(n_cameras=5, seed=4, radius_min=0.7, radius_max=1.3))
    assert not np.allclose(a.poses[0].rotation, c.poses[0].rotation)


def test_scene_radii_and_facing():
    lookat = np.array([0.5, -0.25, 2.0])
    rig = RigSpec(
        n_cameras=40, seed=5, radius_min=0.7, radius_max=1.3, lookat=tuple(lookat)
    )
    scene = generate_scene(rig)
    for pose in scene.poses:
        radius = np.linalg.norm(pose.center - lookat)
        assert 0.7 <= radius <= 1.3
        to_lookat = (lookat - pose.center) / radius
        # jitter 0: the optical axis passes through the look-at point.
        assert np.abs(pose.optical_axis - to_lookat).max() < 1e-12
    assert scene.sigma == pytest.approx(
        scene_scale([p.center for p in scene.poses]), rel=1e-12
    )


def test_jitter_bounded_and_placement_shared():
    jitter = 0.2
    for seed in range(100):
        base = generate_scene(RigSpec(n_cameras=3, seed=seed))
        tilted = generate_scene(RigSpec(n_cameras=3, seed=seed, jitter=jitter))
        for p0, p1 in zip(base.poses, tilted.poses):
            # Jitter draws are consumed either way: same center layout.
            assert np.abs(p0.center - p1.center).max() < 1e-12
            angle = math.acos(
                min(1.0, float(p0.optical_axis @ p1.optical_axis))
            )
            assert angle <= jitter + 1e-9


def test_scorer_modes_sit_at_true_relative_rotations():
    scene = generate_scene(RigSpec(n_cameras=4, seed=6))
    scorer = scene_to_scorer(scene, kappa=35.0)
    assert not scorer.directional
    for i in range(4):
        for j in range(i + 1, 4):
            rel = so3.relative_rotation(
                scene.poses[i].rotation, scene.poses[j].rotation
            )
            assert abs(score_one(scorer, i, j, rel)) < 1e-7
            off = so3.axis_angle_rotation([1.0, 0.0, 0.0], 0.4) @ rel
            assert score_one(scorer, i, j, off) == pytest.approx(
                -35.0 * 0.16, abs=1e-6
            )


def test_scorer_noise_is_bounded():
    noise_angle = 0.15
    for seed in range(30):
        scene = generate_scene(RigSpec(n_cameras=3, seed=seed))
        scorer = scene_to_scorer(scene, kappa=10.0, noise_angle=noise_angle)
        for (i, j), modes in scorer.modes.items():
            rel = so3.relative_rotation(
                scene.poses[i].rotation, scene.poses[j].rotation
            )
            moved = so3.geodesic_distance(so3.quat_to_matrix(modes[0]), rel)
            assert moved <= noise_angle + 1e-9
    with pytest.raises(ValueError):
        scene_to_scorer(scene, noise_angle=-0.1)


@pytest.mark.parametrize("noise_angle", [math.nan, math.inf])
def test_scorer_refuses_non_finite_noise(noise_angle):
    # A NaN angle used to pass the sign check and give noise-free modes.
    scene = generate_scene(RigSpec(n_cameras=3, seed=7))
    with pytest.raises(ValueError, match="noise_angle"):
        scene_to_scorer(scene, noise_angle=noise_angle)


def test_scorer_noise_seed_reproducible():
    # The noise stream is the rig seed's: the same scene gives the same
    # modes, and a rig that differs only in its seed gets other noise.
    scene = generate_scene(RigSpec(n_cameras=3, seed=8))
    a = scene_to_scorer(scene, noise_angle=0.1)
    b = scene_to_scorer(scene, noise_angle=0.1)
    reseeded = replace(scene, rig=RigSpec(n_cameras=3, seed=9))
    c = scene_to_scorer(reseeded, noise_angle=0.1)
    for key in a.modes:
        assert np.array_equal(a.modes[key], b.modes[key])
    assert any(
        not np.array_equal(a.modes[key], c.modes[key]) for key in a.modes
    )


def test_symmetry_replicates_modes():
    scene = generate_scene(RigSpec(n_cameras=3, seed=9))
    axis = np.array([0.0, 0.0, 1.0])
    scorer = scene_to_scorer(scene, kappa=20.0, symmetry={(0, 1): (axis, 2)})
    assert scorer.modes[(0, 1)].shape == (2, 4)
    assert scorer.modes[(0, 2)].shape == (1, 4)
    r_0 = scene.poses[0].rotation
    r_1 = scene.poses[1].rotation
    rel = so3.relative_rotation(r_0, r_1)
    ghost = r_1 @ so3.axis_angle_rotation(axis, math.pi) @ r_0.T
    # Both the true mode and its symmetry ghost are perfect scores.
    assert abs(score_one(scorer, 0, 1, rel)) < 1e-7
    assert abs(score_one(scorer, 0, 1, ghost)) < 1e-7
    with pytest.raises(ValueError):
        scene_to_scorer(scene, symmetry={(1, 1): (axis, 2)})
    with pytest.raises(ValueError):
        scene_to_scorer(scene, symmetry={(0, 1): (axis, 0)})


def test_scene_roundtrip(tmp_path):
    rig = RigSpec(
        n_cameras=4, seed=10, radius_min=0.8, radius_max=1.1, jitter=0.05,
        lookat=(1.0, 0.0, -2.0),
    )
    scene = generate_scene(rig)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.rig == rig
    assert back.sigma == pytest.approx(scene.sigma, rel=1e-12)
    for pa, pb in zip(scene.poses, back.poses):
        assert np.abs(pa.rotation - pb.rotation).max() < 1e-12
        assert np.abs(pa.translation - pb.translation).max() < 1e-12
    # Saving the same scene twice produces identical bytes.
    save_scene(scene, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_scene_negatives(tmp_path):
    scene = generate_scene(RigSpec(n_cameras=2, seed=11))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    doc = json.loads(path.read_text())

    bad = dict(doc, format="something-else")
    p = tmp_path / "bad_format.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(FormatError):
        load_scene(p)

    bad = dict(doc, version=99)
    p = tmp_path / "bad_version.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(FormatError):
        load_scene(p)

    bad = json.loads(path.read_text())
    bad["poses"][0]["quat_wxyz"] = [1.0, 1.0, 0.0, 0.0]
    p = tmp_path / "bad_quat.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(FormatError):
        load_scene(p)

    bad = json.loads(path.read_text())
    bad["poses"] = bad["poses"][:1]
    p = tmp_path / "bad_count.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(FormatError):
        load_scene(p)

    p = tmp_path / "not_json.json"
    p.write_text("{nope")
    with pytest.raises(FormatError):
        load_scene(p)


def test_pipeline_scene_to_metrics():
    """Scene -> scorer -> solver -> metrics, noise free: rotation
    accuracy at 15 degrees is perfect on a fine grid. Centers inherit
    the grid quantization of the solved rotations (up to ~0.11 sigma
    here), so they are held to the 0.2 threshold, while the exact
    translations must score perfectly."""
    grid = so3.build_grid(4608)
    for seed in (0, 1):
        scene = generate_scene(
            RigSpec(n_cameras=4, seed=seed, radius_min=0.7, radius_max=1.3)
        )
        scorer = scene_to_scorer(scene, kappa=50.0)
        hyp = solve(scorer, 4, grid)
        pred = [
            CameraPose(rotation=r, translation=p.translation)
            for r, p in zip(hyp.rotations, scene.poses)
        ]
        flat = evaluate(pred, scene.poses, scene.sigma).to_flat_dict()
        assert flat["rot_acc_15"] == 1.0
        assert flat["center_acc_0.2"] == 1.0
        assert flat["trans_acc_0.1"] == 1.0
