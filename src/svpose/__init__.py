"""Global camera rotation recovery from pairwise relative-rotation scores.

The pipeline: sample a deterministic SO(3) grid, score relative
rotations per camera pair (synthetic mode scorers or imported energy
tables), recover a globally consistent set of rotations by spanning-tree
initialization plus block coordinate ascent, and evaluate against
ground truth with similarity-invariant metrics. A look-at world frame
normalizes translation targets for roughly center-facing captures.
"""

from .energy import (
    ConstantScorer,
    EnergyTable,
    PairwiseScorer,
    SymmetricModeScorer,
    TableScorer,
    l1_translation_loss,
    load_table,
    nll_of,
    score_over_grid,
)
from .errors import (
    ConsistencyError,
    CorruptTableError,
    DegenerateAlignmentError,
    DegenerateGeometryError,
    DegenerateScaleError,
    FormatError,
    OrientationFlipError,
)
from .evaluation import (
    EvalReport,
    SimilarityTransform,
    accuracy,
    accuracy_curve_auc,
    center_errors,
    evaluate,
    rotation_errors_deg,
    scene_scale,
    translation_align,
    translation_errors,
    umeyama_align,
)
from .frame import (
    CameraPose,
    SceneFrame,
    closest_point_to_axes,
    first_camera_frame_targets,
    normalize_scene,
)
from .so3 import (
    GridSpec,
    SO3Grid,
    axis_angle_rotation,
    build_grid,
    check_rotation,
    geodesic_distance,
    grid_from_spec,
    load_grid,
    matrix_to_quat,
    nearest_in_grid,
    nearest_indices,
    quat_conj,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    random_quats,
    random_rotation,
    relative_rotation,
    save_grid,
    super_fibonacci_quats,
)
from .solver import (
    RotationHypothesis,
    best_pairwise,
    coordinate_ascent,
    mst_init,
    solve,
    total_energy,
)
from .synth import (
    RigSpec,
    SyntheticScene,
    generate_scene,
    load_scene,
    look_at_rotation,
    save_scene,
    scene_to_scorer,
)

__version__ = "0.1.0"
