"""Tests for the bench harness's noise-floor verdict on overhead runs."""

from __future__ import annotations

import pytest

from repro.eval.benchmarking import noise_floored_overhead


def test_negative_overhead_inside_the_floor_clamps_to_zero():
    # Minima 1.00 vs 0.95 (-5%); the base arm spreads 10%.
    verdict = noise_floored_overhead([1.00, 1.10, 1.05], [0.95, 0.96, 0.97])
    assert verdict["raw_overhead_pct"] == pytest.approx(-5.0)
    assert verdict["noise_floor_pct"] == pytest.approx(10.0)
    assert verdict["noise_dominated"] is True
    assert verdict["overhead_pct"] == 0.0


def test_positive_overhead_outside_the_floor_passes_through():
    # Minima 1.00 vs 1.20 (+20%); neither arm spreads more than 2%.
    verdict = noise_floored_overhead([1.00, 1.01, 1.02], [1.20, 1.21, 1.22])
    assert verdict["noise_floor_pct"] == pytest.approx(2.0)
    assert verdict["noise_dominated"] is False
    assert verdict["overhead_pct"] == pytest.approx(20.0)
    assert verdict["overhead_pct"] == verdict["raw_overhead_pct"]
