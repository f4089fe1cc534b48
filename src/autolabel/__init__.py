"""Threshold-based auto-labeling with learned post-hoc confidence."""

import os

# One BLAS thread per process, unless the caller set a count: the --jobs
# process pool is the parallelism, and a product's bits depend on the
# thread count. This must run before numpy's first import to take effect;
# the pool's workers inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .data import (
    DataFormatError,
    Dataset,
    LabeledSet,
    LabelOutOfRangeError,
    MagicNumberError,
    Pool,
    RowCountMismatchError,
    TruncatedPayloadError,
    carve,
    load_dataset,
    random_query,
    random_split,
    synth_gaussian_mixture,
)
from .mlp import (
    MlpClassifier,
    TrainConfig,
    init_mlp,
    margin_scores,
    softmax,
    train_model,
)
from .confidence import (
    ConfidenceModel,
    ConfidenceNet,
    ConfidenceNetConfig,
    SoftmaxConfig,
    TemperatureConfidence,
    TemperatureConfig,
    TopLabelBinningConfig,
    TopLabelHistogramConfidence,
    sigmoid,
    write_score_dump,
)
from .thresholds import (
    ThresholdConfig,
    ThresholdVector,
    empirical_metrics,
    estimate_thresholds,
    uniform_grid,
)
from .loop import (
    RoundRecord,
    TbalConfig,
    TbalReport,
    active_query,
    auto_label_select,
    filter_validation,
    run_tbal,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .runner import hyperparameter_search, run_experiment

__version__ = "0.1.0"
