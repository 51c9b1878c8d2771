"""Stochastic triangular mesh terrain mapping.

A probabilistic 2.5-D terrain map over a landmark-relative triangular
submap: each grid element is a surfel with a Gaussian mean plane and an
inverse-gamma planar deviation, inferred from noisy 3-D point measurements
by hybrid variational message passing and Gaussian loopy belief
propagation.
"""

from .distributions import (
    GaussianCanonical,
    GaussianMoment,
    InverseGammaFactor,
    NotADistribution,
    NotPSD,
    SingularMarginalization,
    gauss_divide,
    gauss_marginalize,
    gauss_product,
    ig_divide,
    ig_expected_deviation,
    ig_product,
    kl_gaussian,
    unscented_transform,
)
from .geometry import (
    DegenerateLandmarks,
    DepthTooLarge,
    OutsideSubmap,
    RelativeIRF,
    TriGrid,
    global_to_relative,
    make_relative_irf,
    relative_to_global,
    transform_measurement_to_relative,
)
from .mapgraph import (
    ConvergenceConfig,
    ConvergenceReport,
    MapQueryResult,
    PriorConfig,
    STMMap,
    incremental_update,
    map_height,
    query_map,
    run_inference,
)
from .surfel import (
    LikelihoodClusterState,
    Measurement,
    SurfelState,
)

__version__ = "0.1.0"
