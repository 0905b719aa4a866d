"""Progressive multi-resolution loss for density-map regression.

Density maps live on dyadic grids; the loss measures prediction error at a
ladder of resolutions through log-scaled per-level terms, with closed-form
per-level variances and analytic gradients. A synthetic scene generator and
a small conv regressor provide a desk-scale benchmark comparing the
multi-resolution loss against plain single-resolution L2.
"""

from .loss import (
    DEFAULT_EPSILON,
    AlphaCoefficients,
    LossBreakdown,
    alpha_coefficients,
    l2_level,
    l_diff,
    l_diff_pair,
    loss_gradient,
    optimal_sigma,
    pml_loss,
    total_loss,
)
from .likelihood import (
    LikelihoodReport,
    TheoremReport,
    likelihood_with_variances,
    log_likelihood,
    optimal_variances,
    special_case_likelihood,
    verify_theorem,
)
from .metrics import (
    AblationTable,
    BenchmarkConfig,
    MetricsSummary,
    ablation_run,
    compare_pml_vs_l2,
    evaluate,
    run_benchmark_cell,
)
from .pyramid import (
    DensityMap,
    PointAnnotations,
    ResolutionSet,
    build_pyramid,
    downsample_avg,
    downsample_sum,
    rasterize,
    residual,
    upsample_replicate,
)
from .synth import (
    Adam,
    Scene,
    SceneConfig,
    TinyModel,
    TrainResult,
    TrainingDiverged,
    clip_by_global_norm,
    generate_scene,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
