"""Tests for repro.ml.crossval."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, DataError
from repro.ml.crossval import GridSearchResult, StratifiedKFold, grid_search


class TestStratifiedKFold:
    def test_class_ratio_preserved(self):
        labels = np.array([0] * 40 + [1] * 10)
        for __, test in StratifiedKFold(n_splits=5, seed=0).split(labels):
            test_labels = labels[test]
            assert (test_labels == 1).sum() == 2
            assert (test_labels == 0).sum() == 8

    def test_partitions_all_indices(self):
        labels = np.array([0, 1] * 10)
        covered = np.concatenate(
            [t for __, t in StratifiedKFold(n_splits=4).split(labels)]
        )
        assert sorted(covered.tolist()) == list(range(20))

    def test_small_class_rejected(self):
        labels = np.array([0] * 10 + [1])
        with pytest.raises(DataError, match="fewer than"):
            list(StratifiedKFold(n_splits=5).split(labels))

    def test_2d_labels_rejected(self):
        with pytest.raises(DataError, match="1-D"):
            list(StratifiedKFold().split(np.zeros((4, 2))))

    def test_every_fold_has_both_classes(self):
        labels = np.array([0] * 15 + [1] * 5)
        for train, test in StratifiedKFold(n_splits=5, seed=3).split(labels):
            assert set(labels[test]) == {0, 1}
            assert set(labels[train]) == {0, 1}


class TestGridSearch:
    @staticmethod
    def _folds(n: int = 10, k: int = 2):
        indices = np.arange(n)
        return [
            (np.setdiff1d(indices, test), test) for test in np.array_split(indices, k)
        ]

    def test_best_params_maximise_score(self):
        result = grid_search(
            {"x": [1, 2, 3]},
            lambda params, train, test: -abs(params["x"] - 2),
            self._folds(),
        )
        assert result.best_params == {"x": 2}
        assert result.best_score == 0.0
        assert len(result.table) == 3

    def test_cartesian_product(self):
        result = grid_search(
            {"a": [1, 2], "b": [10, 20, 30]},
            lambda params, train, test: params["a"] * params["b"],
            self._folds(),
        )
        assert len(result.table) == 6
        assert result.best_params == {"a": 2, "b": 30}

    def test_fold_scores_recorded(self):
        result = grid_search(
            {"x": [5]},
            lambda params, train, test: float(len(test)),
            self._folds(10, 2),
        )
        __, mean, fold_scores = result.table[0]
        assert fold_scores == [5.0, 5.0]
        assert mean == 5.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_search({}, lambda p, a, b: 0.0, self._folds())

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            grid_search({"x": []}, lambda p, a, b: 0.0, self._folds())

    def test_no_folds_rejected(self):
        with pytest.raises(ConfigError, match="fold"):
            grid_search({"x": [1]}, lambda p, a, b: 0.0, [])

    def test_result_type(self):
        result = grid_search(
            {"x": [1]}, lambda p, a, b: 1.0, self._folds()
        )
        assert isinstance(result, GridSearchResult)
