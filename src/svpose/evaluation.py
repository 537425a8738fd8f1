"""Similarity-invariant pose metrics.

Rotations are compared through relative rotations (R_j R_i^T), which a
re-rotation of either world frame leaves untouched. Camera centers are
compared after a closed-form similarity alignment, translations after a
scale-plus-world-origin alignment, so every reported number is
invariant to the arbitrary frame a reconstruction comes in.

All accuracies count strict inequalities (error < threshold). Center
and translation thresholds are proportions of the scene scale sigma,
the distance from the centroid of the ground-truth camera centers to
the furthest center.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAlignmentError, OrientationFlipError
from .so3 import geodesic_distance, relative_rotation

ROTATION_THRESHOLDS_DEG = (5.0, 10.0, 15.0, 30.0)
CENTER_THRESHOLDS = (0.1, 0.2, 0.3)
TRANSLATION_THRESHOLDS = (0.1,)
ROTATION_AUC_MAX_DEG = 60.0
CENTER_AUC_MAX = 0.4
AUC_STEPS = 1000


def scene_scale(centers):
    """Distance from the centroid of the centers to the furthest center."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if centers.shape[0] < 1:
        raise ValueError("need at least one camera center")
    centroid = centers.mean(axis=0)
    return float(np.linalg.norm(centers - centroid, axis=1).max())


@dataclass
class SimilarityTransform:
    """y ~ scale * rotation @ x + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points):
        points = np.asarray(points, dtype=np.float64)
        return self.scale * points @ self.rotation.T + self.translation


def umeyama_align(pred, gt):
    """Least-squares similarity transform taking pred points onto gt.

    Closed form via the SVD of the cross-covariance with the usual
    determinant-sign correction; the returned scale is positive. Two
    point pairs are always aligned exactly.
    """
    x = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if x.shape != y.shape:
        raise ValueError(f"point sets differ in shape: {x.shape} vs {y.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    mx = x.mean(axis=0)
    my = y.mean(axis=0)
    dx = x - mx
    dy = y - my
    var_x = float((dx * dx).sum()) / n
    if var_x < 1e-24:
        raise DegenerateAlignmentError("all predicted points coincide")
    cov = dy.T @ dx / n
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2] = -1.0
    rotation = u @ np.diag(sign) @ vt
    scale = float((d * sign).sum()) / var_x
    if scale <= 0.0:
        raise OrientationFlipError("similarity alignment collapsed to s <= 0")
    translation = my - scale * rotation @ mx
    return SimilarityTransform(scale=scale, rotation=rotation, translation=translation)


def translation_align(pred_poses, gt_poses):
    """Scale and world-origin shift aligning predicted translations.

    Solves min over (s, t) of sum |t_gt_i - (s t_pred_i + R_i t)|^2 with
    the ground-truth rotations R_i in the design matrix: one scalar and
    one 3-vector against 3N equations. Raises OrientationFlipError when
    the optimal scale is non-positive, DegenerateAlignmentError when the
    system is rank deficient.
    """
    n = len(pred_poses)
    if n != len(gt_poses):
        raise ValueError("pose lists differ in length")
    if n < 2:
        raise ValueError("need at least two cameras")
    a = np.zeros((3 * n, 4))
    b = np.empty(3 * n)
    for i, (pred, gt) in enumerate(zip(pred_poses, gt_poses)):
        a[3 * i : 3 * i + 3, 0] = pred.translation
        a[3 * i : 3 * i + 3, 1:4] = gt.rotation
        b[3 * i : 3 * i + 3] = gt.translation
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 4:
        raise DegenerateAlignmentError("translation alignment is rank deficient")
    scale = float(x[0])
    if scale <= 0.0:
        raise OrientationFlipError("translation alignment collapsed to s <= 0")
    return scale, x[1:4]


def rotation_errors_deg(pred_poses, gt_poses):
    """Relative-rotation angular errors over camera pairs i < j, degrees."""
    n = len(pred_poses)
    if n != len(gt_poses):
        raise ValueError("pose lists differ in length")
    if n < 2:
        raise ValueError("need at least two cameras")
    errs = []
    for i in range(n):
        for j in range(i + 1, n):
            rel_pred = relative_rotation(pred_poses[i].rotation, pred_poses[j].rotation)
            rel_gt = relative_rotation(gt_poses[i].rotation, gt_poses[j].rotation)
            errs.append(math.degrees(geodesic_distance(rel_pred, rel_gt)))
    return np.array(errs)


def center_errors(pred_poses, gt_poses):
    """Center distances after similarity alignment of predicted centers."""
    pred = np.array([p.center for p in pred_poses])
    gt = np.array([p.center for p in gt_poses])
    transform = umeyama_align(pred, gt)
    return np.linalg.norm(gt - transform.apply(pred), axis=1)


def translation_errors(pred_poses, gt_poses):
    """Translation residuals after scale/origin alignment."""
    scale, shift = translation_align(pred_poses, gt_poses)
    errs = []
    for pred, gt in zip(pred_poses, gt_poses):
        aligned = scale * pred.translation + gt.rotation @ shift
        errs.append(np.linalg.norm(gt.translation - aligned))
    return np.array(errs)


def accuracy(errors, threshold):
    """Fraction of errors strictly below the threshold."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("no errors to aggregate")
    return float((errors < threshold).mean())


def accuracy_curve_auc(errors, max_threshold, steps=AUC_STEPS):
    """Mean accuracy over a uniform threshold sweep of (0, max].

    Equals the normalized integral of the empirical accuracy curve,
    discretized at `steps` right-endpoint thresholds.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("no errors to aggregate")
    if max_threshold <= 0.0:
        raise ValueError("max_threshold must be positive")
    thresholds = max_threshold * (np.arange(1, steps + 1) / steps)
    below = (errors[None, :] < thresholds[:, None]).mean(axis=1)
    return float(below.mean())


@dataclass
class EvalReport:
    """Flat, stable-schema metric bundle for one scene.

    The error arrays are kept for pooling and stay out of the flat dict.
    """

    n_cameras: int
    sigma: float
    rotation_accuracy: dict
    rotation_auc: float
    center_accuracy: dict
    center_auc: float
    translation_accuracy: dict
    rotation_errors_deg: np.ndarray  # per pair i < j
    center_errors_frac: np.ndarray  # per camera, in units of sigma

    def to_flat_dict(self):
        """Fixed column order; new thresholds would append, not reorder."""
        out = {"n_cameras": self.n_cameras, "sigma": self.sigma}
        for t in ROTATION_THRESHOLDS_DEG:
            out[f"rot_acc_{t:g}"] = self.rotation_accuracy[t]
        out["rot_auc"] = self.rotation_auc
        for t in CENTER_THRESHOLDS:
            out[f"center_acc_{t:g}"] = self.center_accuracy[t]
        out["center_auc"] = self.center_auc
        for t in TRANSLATION_THRESHOLDS:
            out[f"trans_acc_{t:g}"] = self.translation_accuracy[t]
        return out


def evaluate(pred_poses, gt_poses, sigma):
    """All metrics for one scene; sigma is the ground-truth scene scale."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    rot_errs = rotation_errors_deg(pred_poses, gt_poses)
    cen_errs = center_errors(pred_poses, gt_poses) / sigma
    tra_errs = translation_errors(pred_poses, gt_poses) / sigma
    return EvalReport(
        n_cameras=len(pred_poses),
        sigma=float(sigma),
        rotation_accuracy={
            t: accuracy(rot_errs, t) for t in ROTATION_THRESHOLDS_DEG
        },
        rotation_auc=accuracy_curve_auc(rot_errs, ROTATION_AUC_MAX_DEG),
        center_accuracy={t: accuracy(cen_errs, t) for t in CENTER_THRESHOLDS},
        center_auc=accuracy_curve_auc(cen_errs, CENTER_AUC_MAX),
        translation_accuracy={
            t: accuracy(tra_errs, t) for t in TRANSLATION_THRESHOLDS
        },
        rotation_errors_deg=rot_errs,
        center_errors_frac=cen_errs,
    )
