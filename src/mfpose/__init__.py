"""Metric two-frame relocalization toolkit.

Estimates the scaled relative pose between a reference and a query image
from externally computed feature correspondences and monocular depth maps,
and evaluates estimates with rotation/translation errors, virtual-point
reprojection error (VCRE), and confidence-thresholded precision curves.
"""

from .errors import (
    BehindCameraError,
    CheiralityError,
    DegenerateSampleError,
    FormatError,
    GenerationError,
    InvalidDepthError,
    InvalidParameterError,
    MfposeError,
    MissingGroundTruthError,
    NoConsensusError,
    ScaleConsensusError,
)
from .evaluation import (
    EvaluationRecord,
    Thresholds,
    VirtualGrid,
    aggregate_report,
    build_virtual_grid,
    precision_curve,
    score_query,
    vcre,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    backproject,
    camera_center,
    compose,
    project,
    rotation_error_deg,
    rotation_from_quaternion,
    translation_error_m,
)
from .pipelines import (
    CorrespondenceSet,
    DepthMap,
    EstimateStatus,
    EstimatorConfig,
    PoseEstimate,
    estimate_essmat_dscale,
    estimate_pnp,
    estimate_procrustes,
    run_estimator,
)
from .robust import RobustResult, ScaleConsensusConfig, ransac, sampson_error, scale_consensus
from .solvers import (
    RefineResult,
    decompose_essential,
    essential_five_point,
    essential_from_pose,
    essential_pose_candidates,
    pnp_p3p,
    procrustes_align,
    refine_essential,
    refine_pnp,
)

__version__ = "0.1.0"
