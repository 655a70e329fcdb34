"""Safety-oriented spatial-constraint metrics for 3D object detectors.

The package provides the building blocks for scoring how well 3D detections
cover their ground-truth objects as seen from the ego vehicle: box geometry
and projections, the PV/BEV constraint checks with their quantitative
measures (IoGT, ADR, USC), a range-bucketed evaluation protocol (mAP, NDS,
mAUSC, USC-NDS), the safety-oriented loss family, and dataset tooling with
a deterministic synthetic-scenario generator.
"""

from . import errors
from .constraints import (RepresentativePoints, UscBreakdown, adr, azimuth,
                          bev_constraint, distance_ratio_geomean, iogt_pv,
                          pv_constraint, representative_points, usc_batch,
                          usc_score)
from .dataset import (Annotation, Dataset, Detection, FrameRecord, Objects,
                      as_dataset)
from .evaluation import (BucketSummary, ClassBucketMetrics, MatchedPair,
                         MetricsReport, PairColumns, PairIndex,
                         ProtocolConfig, aggregate_usc, average_precision,
                         bev_center_distance, evaluate, matched_indices,
                         matched_pairs, nds, pair_columns, pearson,
                         tp_error_means, usc_nds)
from .geometry import (EPS_DEPTH, EPS_GEOM, BevPolygon, Box3D, Point2,
                       Point3, Rect2D, Segment2D, box_corners, footprint_arrays,
                       iogt3d, iogt3d_batch, iou3d, project_bev,
                       project_pv_rect, segments_intersect, wrap_angle)
from .io import (SyntheticSpec, format_report_table,
                 generate_synthetic, load_config, load_dataset, load_report,
                 merge_datasets, report_from_dict, report_to_dict,
                 save_dataset, write_report)
from .loss import (LossConfig, iogt_loss, safety_loss, safety_loss_batch,
                   smooth_l1)

__version__ = "0.1.0"
