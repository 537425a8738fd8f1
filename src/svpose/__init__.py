"""Global camera rotation recovery from pairwise relative-rotation scores.

The pipeline: sample a deterministic SO(3) grid, score relative
rotations per camera pair (synthetic mode scorers or imported energy
tables), recover a globally consistent set of rotations by spanning-tree
initialization plus block coordinate ascent, and evaluate against
ground truth with similarity-invariant metrics. A look-at world frame
normalizes translation targets for roughly center-facing captures.

Importing the package loads none of its submodules, nor numpy. Each
public name below imports its submodule on first access (PEP 562), so
a short CLI process pays only for the modules its subcommand runs.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "_gridspec": ("GridSpec",),
    "energy": (
        "ConstantScorer",
        "EnergyTable",
        "PairwiseScorer",
        "SymmetricModeScorer",
        "TableScorer",
        "l1_translation_loss",
        "load_table",
        "nll_of",
        "score_over_grid",
    ),
    "errors": (
        "ConsistencyError",
        "CorruptTableError",
        "DegenerateAlignmentError",
        "DegenerateGeometryError",
        "DegenerateScaleError",
        "FormatError",
        "OrientationFlipError",
    ),
    "evaluation": (
        "EvalReport",
        "SimilarityTransform",
        "accuracy",
        "accuracy_curve_auc",
        "center_errors",
        "evaluate",
        "rotation_errors_deg",
        "scene_scale",
        "translation_align",
        "translation_errors",
        "umeyama_align",
    ),
    "frame": (
        "CameraPose",
        "SceneFrame",
        "closest_point_to_axes",
        "first_camera_frame_targets",
        "normalize_scene",
    ),
    "so3": (
        "SO3Grid",
        "axis_angle_rotation",
        "build_grid",
        "check_rotation",
        "geodesic_distance",
        "grid_from_spec",
        "load_grid",
        "matrix_to_quat",
        "nearest_in_grid",
        "nearest_indices",
        "quat_conj",
        "quat_mul",
        "quat_normalize",
        "quat_to_matrix",
        "random_quats",
        "random_rotation",
        "relative_rotation",
        "save_grid",
        "super_fibonacci_quats",
    ),
    "solver": (
        "RotationHypothesis",
        "coordinate_ascent",
        "mst_init",
        "solve",
        "total_energy",
    ),
    "synth": (
        "RigSpec",
        "SyntheticScene",
        "generate_scene",
        "load_scene",
        "look_at_rotation",
        "save_scene",
        "scene_to_scorer",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
