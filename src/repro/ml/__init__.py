"""Machine-learning substrate: logistic regression, metrics, CV.

scikit-learn is not available in this environment, so the pieces the RFM
baseline and the evaluation protocol need are implemented from scratch on
numpy: an L2 logistic regression (IRLS), a standard scaler, ROC/AUROC and
campaign metrics, and k-fold / stratified k-fold cross-validation with a
generic grid search.
"""

from repro.ml.bootstrap import ConfidenceInterval, bootstrap_auroc_ci
from repro.ml.calibration import (
    PlattCalibrator,
    ReliabilityBin,
    expected_calibration_error,
    reliability_curve,
)
from repro.ml.crossval import GridSearchResult, StratifiedKFold, grid_search
from repro.ml.logistic import LogisticRegression, log_loss, sigmoid
from repro.ml.metrics import (
    ConfusionMatrix,
    RocCurve,
    auroc,
    confusion_at_threshold,
    lift_at_fraction,
    precision_recall_f1,
    roc_curve,
)
from repro.ml.preprocess import StandardScaler, impute_finite

__all__ = [
    "ConfidenceInterval",
    "ConfusionMatrix",
    "GridSearchResult",
    "bootstrap_auroc_ci",
    "LogisticRegression",
    "PlattCalibrator",
    "ReliabilityBin",
    "expected_calibration_error",
    "reliability_curve",
    "RocCurve",
    "StandardScaler",
    "StratifiedKFold",
    "auroc",
    "confusion_at_threshold",
    "grid_search",
    "impute_finite",
    "lift_at_fraction",
    "log_loss",
    "precision_recall_f1",
    "roc_curve",
    "sigmoid",
]
