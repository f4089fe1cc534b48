"""Threshold-based auto-labeling with learned post-hoc confidence."""

import os
import sys
import warnings

# One BLAS thread per process, unless the caller set a count: the --jobs
# process pool is the parallelism, and a product's bits depend on the
# thread count. This must run before numpy's first import to take effect;
# the pool's workers inherit it.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    warnings.warn(
        "numpy was imported before autolabel with none of "
        f"{', '.join(_THREAD_VARS)} set, so BLAS keeps its own thread count "
        "and a run's bytes depend on it; set one of them to 1 for the "
        "one-thread bytes", RuntimeWarning, stacklevel=2)
for _name in _THREAD_VARS:
    os.environ.setdefault(_name, "1")
del _name, _THREAD_VARS

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
