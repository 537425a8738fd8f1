"""Synthetic look-at rigs and the mode scorers they induce.

Cameras sit on (or around) a sphere about a look-at point and face it;
optional axis jitter tilts each optical axis by up to a fixed angle.
A scene deterministically induces a SymmetricModeScorer whose modes sit
at the true relative rotations, optionally blurred by a bounded noise
rotation and replicated by a k-fold object symmetry. All randomness
comes from PCG64 streams seeded in the rig spec, so scenes and scorers
are bit-reproducible.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._fileio import json_text, read_json, write_text_atomic
from .errors import FormatError
from .frame import CameraPose
from .so3 import (
    axis_angle_rotation,
    matrix_to_quat,
    quat_normalize,
    quat_to_matrix,
    relative_rotation,
)

SCENE_FORMAT = "svpose-scene"
SCENE_VERSION = 1


@dataclass(frozen=True)
class RigSpec:
    n_cameras: int
    seed: int = 0
    radius_min: float = 1.0
    radius_max: float = 1.0
    jitter: float = 0.0
    lookat: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("n_cameras", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_cameras < 1:
            raise ValueError("need at least one camera")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 < self.radius_min <= self.radius_max:
            raise ValueError("need 0 < radius_min <= radius_max")
        if not 0.0 <= self.jitter < math.pi / 2:
            raise ValueError("jitter must be in [0, pi/2)")
        if len(self.lookat) != 3:
            raise ValueError("lookat must be a 3-vector")
        object.__setattr__(self, "lookat", tuple(float(v) for v in self.lookat))


@dataclass
class SyntheticScene:
    rig: RigSpec
    poses: list
    sigma: float


def look_at_rotation(forward, up_hint=(0.0, 1.0, 0.0)):
    """World-to-camera rotation whose +z axis is `forward` (world)."""
    f = np.asarray(forward, dtype=np.float64)
    norm = np.linalg.norm(f)
    if norm < 1e-12:
        raise ValueError("zero viewing direction")
    z = f / norm
    up = np.asarray(up_hint, dtype=np.float64)
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-8:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def generate_scene(rig: RigSpec) -> SyntheticScene:
    """Sample a rig; deterministic in the rig spec alone.

    Jitter draws are consumed even when jitter is zero, so rigs that
    differ only in the jitter amount share camera placements.
    """
    # Here, not at module level: solve loads this module and never
    # generates a scene, so it needs no evaluation module.
    from .evaluation import scene_scale

    rng = np.random.Generator(np.random.PCG64(rig.seed))
    lookat = np.array(rig.lookat)
    poses = []
    for _ in range(rig.n_cameras):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(rig.radius_min, rig.radius_max)
        center = lookat + radius * direction
        forward = lookat - center
        jitter_axis = rng.standard_normal(3)
        jitter_angle = rig.jitter * rng.uniform()
        if rig.jitter > 0.0:
            forward = axis_angle_rotation(jitter_axis, jitter_angle) @ forward
        rotation = look_at_rotation(forward)
        poses.append(
            CameraPose(rotation=rotation, translation=-rotation @ center)
        )
    sigma = scene_scale([p.center for p in poses])
    return SyntheticScene(rig=rig, poses=poses, sigma=sigma)


def scene_to_scorer(
    scene: SyntheticScene,
    kappa=50.0,
    noise_angle=0.0,
    symmetry=None,
):
    """SymmetricModeScorer whose wells sit at the scene's relative rotations.

    `symmetry` maps camera pairs to (world_axis, k): the pair's mode is
    replicated k-fold by object rotations about that axis, giving the k
    indistinguishable relative-rotation hypotheses a k-fold symmetric
    object would produce. `noise_angle` bounds a per-pair perturbation
    (uniform angle in [0, noise_angle], uniform axis) applied to all of
    a pair's modes, drawn from the rig seed's stream: one scene, one scorer.
    At zero noise no stream is made, so numpy.random is not loaded.
    """
    if not (math.isfinite(noise_angle) and noise_angle >= 0.0):
        raise ValueError("noise_angle must be finite and non-negative")
    sym = {}
    for (i, j), (axis, k) in (symmetry or {}).items():
        if i == j:
            raise ValueError("pair indices must differ")
        if int(k) < 1:
            raise ValueError("symmetry order must be at least 1")
        key = (min(i, j), max(i, j))
        sym[key] = (np.asarray(axis, dtype=np.float64), int(k))
    # Each pair draws its noise from the stream in (i, j) order.
    rng = np.random.Generator(np.random.PCG64(scene.rig.seed)) if noise_angle > 0.0 else None
    n = len(scene.poses)
    modes = {}
    for i in range(n):
        for j in range(i + 1, n):
            r_i = scene.poses[i].rotation
            r_j = scene.poses[j].rotation
            if (i, j) in sym:
                axis, k = sym[(i, j)]
                copies = [
                    r_j @ axis_angle_rotation(axis, 2.0 * math.pi * m / k) @ r_i.T
                    for m in range(k)
                ]
            else:
                copies = [relative_rotation(r_i, r_j)]
            if rng is not None:
                noise_axis = rng.standard_normal(3)
                noise_rot = axis_angle_rotation(noise_axis, noise_angle * rng.uniform())
                copies = [noise_rot @ c for c in copies]
            modes[(i, j)] = np.stack([matrix_to_quat(c) for c in copies])
    # Imported here, so that reading scenes (eval) never loads the scorers.
    from .energy import SymmetricModeScorer

    return SymmetricModeScorer(modes=modes, kappa=kappa)


def pose_to_dict(pose: CameraPose):
    return {
        "quat_wxyz": [float(v) for v in matrix_to_quat(pose.rotation)],
        "translation": [float(v) for v in pose.translation],
    }


def pose_from_dict(obj) -> CameraPose:
    try:
        q = np.asarray(obj["quat_wxyz"], dtype=np.float64)
        t = np.asarray(obj["translation"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad pose record: {e}") from None
    if q.shape != (4,) or t.shape != (3,):
        raise FormatError("pose record has wrong field shapes")
    if not (np.isfinite(q).all() and np.isfinite(t).all()):
        raise FormatError("pose record has non-finite values")
    if abs(np.linalg.norm(q) - 1.0) > 1e-6:
        raise FormatError("pose quaternion is not unit norm")
    return CameraPose(rotation=quat_to_matrix(quat_normalize(q)), translation=t)


def save_scene(scene: SyntheticScene, path):
    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "rig": asdict(scene.rig),
        "sigma": float(scene.sigma),
        "poses": [pose_to_dict(p) for p in scene.poses],
    }
    write_text_atomic(path, json_text(doc))


def load_scene(path) -> SyntheticScene:
    doc = read_json(path, SCENE_FORMAT, SCENE_VERSION)
    try:
        rig_doc = dict(doc["rig"])
        rig_doc["lookat"] = tuple(rig_doc["lookat"])
        rig = RigSpec(**rig_doc)
        sigma = float(doc["sigma"])
        poses = [pose_from_dict(p) for p in doc["poses"]]
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, FormatError):
            raise
        raise FormatError(f"{path}: malformed scene ({e})") from None
    if not math.isfinite(sigma) or sigma < 0.0:
        raise FormatError(f"{path}: sigma must be finite and non-negative")
    if len(poses) != rig.n_cameras:
        raise FormatError(
            f"{path}: rig declares {rig.n_cameras} cameras, file has {len(poses)}"
        )
    return SyntheticScene(rig=rig, poses=poses, sigma=sigma)
