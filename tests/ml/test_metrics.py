"""Tests for repro.ml.metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.ml.metrics import (
    auroc,
    confusion_at_threshold,
    lift_at_fraction,
    precision_recall_f1,
    roc_curve,
)


class TestAuroc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert auroc(y, s) == 1.0

    def test_perfectly_wrong(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.9, 0.8, 0.2, 0.1])
        assert auroc(y, s) == 0.0

    def test_constant_scores_are_chance(self):
        y = np.array([0, 1, 0, 1])
        s = np.zeros(4)
        assert auroc(y, s) == pytest.approx(0.5)

    def test_ties_use_midranks(self):
        y = np.array([0, 1, 1])
        s = np.array([0.5, 0.5, 0.9])
        # pairs: (neg 0.5 vs pos 0.5) = 0.5, (neg 0.5 vs pos 0.9) = 1.
        assert auroc(y, s) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            auroc(np.array([1, 1]), np.array([0.1, 0.2]))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError, match="0/1"):
            auroc(np.array([0, 2]), np.array([0.1, 0.2]))

    def test_nan_scores_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            auroc(np.array([0, 1]), np.array([np.nan, 0.2]))

    def test_matches_trapezoid_of_roc_curve(self):
        rng = np.random.default_rng(0)
        y = (rng.random(200) < 0.3).astype(int)
        s = rng.random(200) + 0.5 * y
        assert auroc(y, s) == pytest.approx(roc_curve(y, s).area(), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_complement_symmetry(self, seed: int):
        rng = np.random.default_rng(seed)
        y = (rng.random(50) < 0.4).astype(int)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        s = rng.random(50)
        assert auroc(y, s) == pytest.approx(1.0 - auroc(y, -s))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_invariant_to_monotone_transform(self, seed: int):
        rng = np.random.default_rng(seed)
        y = (rng.random(40) < 0.5).astype(int)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        s = rng.random(40)
        assert auroc(y, s) == pytest.approx(auroc(y, np.exp(3 * s)))


class TestRocCurve:
    def test_starts_at_origin_ends_at_one_one(self):
        y = np.array([0, 1, 0, 1])
        s = np.array([0.2, 0.8, 0.4, 0.6])
        curve = roc_curve(y, s)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(1)
        y = (rng.random(100) < 0.5).astype(int)
        s = rng.random(100)
        curve = roc_curve(y, s)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_thresholds_descending(self):
        y = np.array([0, 1, 0, 1])
        s = np.array([0.2, 0.8, 0.4, 0.6])
        curve = roc_curve(y, s)
        assert (np.diff(curve.thresholds) < 0).all()
        assert curve.thresholds[0] == np.inf

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_curve(np.array([0, 0]), np.array([0.1, 0.2]))


class TestConfusion:
    def test_counts(self):
        y = np.array([1, 1, 0, 0])
        s = np.array([0.9, 0.2, 0.8, 0.1])
        cm = confusion_at_threshold(y, s, 0.5)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_rates(self):
        y = np.array([1, 1, 0, 0])
        s = np.array([0.9, 0.2, 0.8, 0.1])
        cm = confusion_at_threshold(y, s, 0.5)
        assert cm.tpr == 0.5
        assert cm.fpr == 0.5
        assert cm.accuracy == 0.5
        assert cm.n == 4

    def test_threshold_inclusive(self):
        y = np.array([1, 0])
        s = np.array([0.5, 0.4])
        cm = confusion_at_threshold(y, s, 0.5)
        assert cm.tp == 1


class TestPrecisionRecall:
    def test_values(self):
        y = np.array([1, 1, 0, 0])
        s = np.array([0.9, 0.8, 0.7, 0.1])
        precision, recall, f1 = precision_recall_f1(y, s, 0.75)
        assert precision == 1.0
        assert recall == 1.0
        assert f1 == 1.0

    def test_undefined_returns_zero(self):
        y = np.array([1, 0])
        s = np.array([0.1, 0.1])
        precision, recall, f1 = precision_recall_f1(y, s, 0.5)
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)


class TestLift:
    def test_perfect_targeting(self):
        y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        s = np.array([0.9, 0.8, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1])
        # Top 25% = 2 customers, both churners; base rate = 0.25.
        assert lift_at_fraction(y, s, 0.25) == pytest.approx(4.0)

    def test_full_fraction_is_unit_lift(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([0.4, 0.3, 0.2, 0.1])
        assert lift_at_fraction(y, s, 1.0) == pytest.approx(1.0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(DataError, match="fraction"):
            lift_at_fraction(np.array([0, 1]), np.array([0.1, 0.2]), 0.0)

    def test_no_positives_rejected(self):
        with pytest.raises(DataError, match="no positive"):
            lift_at_fraction(np.array([0, 0]), np.array([0.1, 0.2]), 0.5)
