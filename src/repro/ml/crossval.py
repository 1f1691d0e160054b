"""Cross-validation splitters and grid search.

The paper selects its hyper-parameters (window length 2 months, alpha = 2)
"after performing a 5-fold cross-validation search".  This module provides
the stratified k-fold splitter over customers and a small generic
grid-search driver used by :mod:`repro.core.tuning`.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, DataError

__all__ = ["StratifiedKFold", "GridSearchResult", "grid_search"]


class StratifiedKFold:
    """K-fold splitter preserving the class ratio in every fold.

    Stratification matters here because churner cohorts can be much
    smaller than loyal cohorts; a plain split could produce folds with no
    positive examples, making AUROC undefined.
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = True, seed: int = 0) -> None:
        if n_splits < 2:
            raise ConfigError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = int(n_splits)
        self.shuffle = bool(shuffle)
        self.seed = int(seed)

    def split(self, labels: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` stratified on ``labels``."""
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise DataError(f"labels must be 1-D, got ndim={labels.ndim}")
        rng = np.random.default_rng(self.seed)
        per_class_folds: list[list[np.ndarray]] = []
        for value in np.unique(labels):
            class_indices = np.flatnonzero(labels == value)
            if len(class_indices) < self.n_splits:
                raise DataError(
                    f"class {value!r} has {len(class_indices)} samples, fewer than "
                    f"{self.n_splits} folds"
                )
            if self.shuffle:
                rng.shuffle(class_indices)
            per_class_folds.append(np.array_split(class_indices, self.n_splits))
        for i in range(self.n_splits):
            test = np.sort(np.concatenate([folds[i] for folds in per_class_folds]))
            train_parts = [
                folds[j]
                for folds in per_class_folds
                for j in range(self.n_splits)
                if j != i
            ]
            yield np.sort(np.concatenate(train_parts)), test


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of a grid search.

    Attributes
    ----------
    best_params:
        The parameter dict with the highest mean score.
    best_score:
        Its mean cross-validated score.
    table:
        One entry per grid point: ``(params, mean_score, fold_scores)``.
    """

    best_params: dict
    best_score: float
    table: list[tuple[dict, float, list[float]]]


def grid_search(
    param_grid: dict[str, Sequence],
    score_fn: Callable[[dict, np.ndarray, np.ndarray], float],
    folds: Sequence[tuple[np.ndarray, np.ndarray]],
) -> GridSearchResult:
    """Exhaustive search over a parameter grid with precomputed folds.

    Parameters
    ----------
    param_grid:
        Mapping from parameter name to the values to try; the search
        covers the Cartesian product.
    score_fn:
        ``score_fn(params, train_indices, test_indices) -> float``; higher
        is better.
    folds:
        The ``(train, test)`` index pairs, shared across grid points so
        every parameter combination is scored on identical splits.

    Raises
    ------
    ConfigError
        If the grid or the fold list is empty.
    """
    if not param_grid or any(len(v) == 0 for v in param_grid.values()):
        raise ConfigError("param_grid must be non-empty with non-empty value lists")
    folds = list(folds)
    if not folds:
        raise ConfigError("grid_search requires at least one fold")
    names = sorted(param_grid)
    table: list[tuple[dict, float, list[float]]] = []
    for values in itertools.product(*(param_grid[name] for name in names)):
        params = dict(zip(names, values, strict=True))
        fold_scores = [float(score_fn(params, train, test)) for train, test in folds]
        table.append((params, float(np.mean(fold_scores)), fold_scores))
    best_params, best_score, _ = max(table, key=lambda entry: entry[1])
    return GridSearchResult(best_params=best_params, best_score=best_score, table=table)
