"""Output checks, accuracy and digests.

Written against svpose's file formats rather than its readers and
evaluation code, so a defect there cannot vouch for itself. Each
function returns a list of problems; an empty list means the output
passed.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Covering radius of the super-Fibonacci grids in radians, exactly as
# `svpose grid --n N --covering` prints it (the estimate uses a fixed
# probe set, so it is deterministic). A grid step must reproduce it.
COVERING_RAD = {
    576: 0.4619622068750636,
    4608: 0.22355913031403332,
    36864: 0.11044942727074662,
}

# A grid-limited solve lands its median pairwise error at 0.6-0.7 of the
# grid's covering radius on these rigs; random rotations land near 126
# degrees. A median above this multiple means the solve went wrong.
SANITY_FACTOR = 1.5

ACC_THRESHOLD_DEG = 15.0
SCENE_FILES_SKIP = {"manifest.json", "run_config.json", "aggregate.json"}


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digests(root):
    """{relative path: sha256} of the files under root."""
    root = Path(root)
    return {str(p.relative_to(root)): sha256_file(p) for p in sorted(root.rglob("*")) if p.is_file()}


def combined_digest(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _rotations(doc):
    return [quat_to_matrix(np.asarray(p["quat_wxyz"], dtype=np.float64)) for p in doc["poses"]]


def rotation_problems(rotations, tol=1e-6):
    problems = []
    for k, r in enumerate(rotations):
        if not np.all(np.isfinite(r)):
            problems.append(f"rotation {k} is not finite")
        elif np.abs(r.T @ r - np.eye(3)).max() > tol:
            problems.append(f"rotation {k} is not orthonormal")
        elif abs(np.linalg.det(r) - 1.0) > tol:
            problems.append(f"rotation {k} has det {np.linalg.det(r):.6f}")
    return problems


def check_prediction(path, n_cameras):
    """Problems with one prediction file, and its rotations if readable."""
    try:
        doc = json.loads(Path(path).read_text())
        energy = doc["diagnostics"]["total_energy"]
        rotations = _rotations(doc)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: unreadable prediction ({e})"], None
    problems = []
    if doc.get("format") != "svpose-pred" or doc.get("version") != 1:
        problems.append("not an svpose-pred v1 file")
    if not isinstance(energy, (int, float)) or not math.isfinite(energy):
        problems.append(f"total_energy is {energy!r}")
    if len(rotations) != n_cameras:
        problems.append(f"{len(rotations)} poses for {n_cameras} cameras")
    problems += rotation_problems(rotations)
    return [f"{path}: {p}" for p in problems], rotations


def scene_rotations(path):
    return _rotations(json.loads(Path(path).read_text()))


def scene_ids(scene_dir):
    return sorted(
        p.stem for p in Path(scene_dir).glob("*.json") if p.name not in SCENE_FILES_SKIP
    )


def pairwise_errors_deg(pred, gt):
    """Relative-rotation errors over camera pairs i < j, in degrees."""
    errs = []
    for i in range(len(gt)):
        for j in range(i + 1, len(gt)):
            diff = (pred[j] @ pred[i].T).T @ (gt[j] @ gt[i].T)
            c = (np.trace(diff) - 1.0) / 2.0
            errs.append(math.degrees(math.acos(min(1.0, max(-1.0, c)))))
    return errs


def check_solve(solve):
    """Check every prediction of one solve step against its scenes.

    Returns (problems, scenes, failed scenes, pairwise errors of the
    readable predictions).
    """
    problems, errors, failed_scenes = [], [], 0
    ids = scene_ids(solve.scenes)
    for scene_id in ids:
        path = Path(solve.preds) / f"{scene_id}.json"
        if not path.is_file():
            problems.append(f"{path}: missing prediction")
            failed_scenes += 1
            continue
        scene_problems, rotations = check_prediction(path, solve.n_cameras)
        if scene_problems:
            problems += scene_problems
            failed_scenes += 1
            continue
        gt = scene_rotations(Path(solve.scenes) / f"{scene_id}.json")
        errors += pairwise_errors_deg(rotations, gt)
    if errors:
        limit = SANITY_FACTOR * math.degrees(COVERING_RAD[solve.grid_n])
        median = float(np.median(errors))
        if not median < limit:
            problems.append(
                f"{solve.preds}: median pairwise error {median:.3f} deg is not under "
                f"{limit:.3f} deg ({SANITY_FACTOR} x covering radius of G={solve.grid_n})"
            )
    return problems, len(ids), failed_scenes, errors


def check_grid(path, n, stdout_text):
    problems = []
    expected = 4 + 17 + 32 * n
    size = Path(path).stat().st_size if Path(path).is_file() else -1
    if size != expected:
        problems.append(f"{path}: {size} bytes, expected {expected}")
    try:
        summary = json.loads(stdout_text.strip().splitlines()[-1])
        radius = summary["covering_radius_rad"]
    except (ValueError, IndexError, KeyError, TypeError) as e:
        return problems + [f"grid --covering printed no summary ({e})"]
    if radius != COVERING_RAD[n]:
        problems.append(f"covering radius {radius!r} differs from {COVERING_RAD[n]!r}")
    return problems


def check_eval(metrics_dir, errors):
    """The eval sweep's 15-degree accuracy must match our own count."""
    if not errors:  # no readable prediction; already counted as failed
        return []
    path = Path(metrics_dir) / "sweep.csv"
    try:
        with open(path, newline="") as f:
            rows = {(r[0], float(r[1])): float(r[2]) for r in list(csv.reader(f))[1:]}
        reported = rows[("rotation_deg", ACC_THRESHOLD_DEG)]
    except (OSError, ValueError, IndexError, KeyError) as e:
        return [f"{path}: unreadable sweep ({e})"]
    ours = accuracy(errors)
    if abs(reported - ours) > 1e-9:
        return [f"{path}: eval reports {reported} below 15 deg, predictions give {ours}"]
    return []


def check_report(path, n_rows):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        return [f"{path}: unreadable report ({e})"]
    if len(rows) != n_rows + 2 or rows[-1][0] != "mean":
        return [f"{path}: expected a header, {n_rows} rows and a mean row"]
    return []


def accuracy(errors):
    return float(np.mean(np.asarray(errors) < ACC_THRESHOLD_DEG))
