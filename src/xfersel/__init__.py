"""Source task selection for segmentation transfer learning.

Combines prior-knowledge filters (modality match, RoI shape similarity) with
analytical transferability metrics (pixel-wise H-score, OTCE) and evaluates
selection quality against ground-truth rankings via Spearman's footrule.
"""

from .bundle import (
    LabelMaskSet,
    PixelFeatureSet,
    SubsampleSpec,
    TaskBundle,
    TaskDescriptor,
    canonical_modality,
    flatten_pixels,
    load_bundle,
    write_bundle,
)
from .errors import XferselError
from .hscore import HScoreParams, HScoreReport, hscore_classification, hscore_segmentation
from .otce import (
    JointLabelDistribution,
    OtceReport,
    SinkhornParams,
    TransportPlan,
    cost_matrix,
    joint_label_distribution,
    otce,
    otce_from_joint,
    sinkhorn,
)
from .pipeline import (
    Metric,
    NoMatchPolicy,
    SelectionConfig,
    SelectionPath,
    SelectionReport,
    modality_filter,
    roi_filter,
    select,
)
from .ranking import (
    FootruleReport,
    Ranking,
    build_ranking,
    footrule_full,
    footrule_topk,
    ranking_to_csv,
    read_ranking_csv,
    write_ranking_csv,
)
from .roisim import PairingMode, RoiSimReport, roi_sim, ssim_global
from .synth import ProbeResult, SynthSpec, generate_tasks, probe_transfer

__version__ = "0.1.0"

__all__ = [
    "HScoreParams",
    "HScoreReport",
    "JointLabelDistribution",
    "LabelMaskSet",
    "Metric",
    "NoMatchPolicy",
    "OtceReport",
    "PairingMode",
    "PixelFeatureSet",
    "ProbeResult",
    "Ranking",
    "FootruleReport",
    "RoiSimReport",
    "SelectionConfig",
    "SelectionPath",
    "SelectionReport",
    "SinkhornParams",
    "SubsampleSpec",
    "SynthSpec",
    "TaskBundle",
    "TaskDescriptor",
    "TransportPlan",
    "XferselError",
    "build_ranking",
    "canonical_modality",
    "cost_matrix",
    "flatten_pixels",
    "footrule_full",
    "footrule_topk",
    "generate_tasks",
    "hscore_classification",
    "hscore_segmentation",
    "joint_label_distribution",
    "load_bundle",
    "modality_filter",
    "otce",
    "otce_from_joint",
    "probe_transfer",
    "ranking_to_csv",
    "read_ranking_csv",
    "roi_filter",
    "roi_sim",
    "select",
    "sinkhorn",
    "ssim_global",
    "write_bundle",
    "write_ranking_csv",
]
