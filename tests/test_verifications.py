"""Verification suites at reduced sizes: every suite must pass and
report the documented summary shape."""

import pytest

from multischur.verifications import (
    SUITES,
    beta_chain,
    branching,
    cauchy,
    classical,
    dual_engine,
    hall_duality,
    orthonormality,
    truncation_stability,
)


def _check_shape(summary, theorem):
    assert set(summary) == {"theorem", "parameters", "passed", "cases", "failures"}
    assert summary["theorem"] == theorem
    assert isinstance(summary["parameters"], dict)
    assert isinstance(summary["cases"], int) and summary["cases"] > 0
    assert isinstance(summary["failures"], list)
    assert summary["passed"] is (not summary["failures"])


def test_suite_registry_complete():
    assert set(SUITES) == {
        "orthonormality",
        "dual-engine",
        "hall-duality",
        "cauchy",
        "branching",
        "truncation-stability",
        "beta-chain",
        "classical",
    }
    assert SUITES["orthonormality"] is orthonormality


def test_orthonormality_small():
    summary = orthonormality(max_weight=3)
    _check_shape(summary, "orthonormality")
    assert summary["passed"]
    # 7 shapes up to weight 3, all pairs
    assert summary["cases"] == 49
    assert summary["parameters"] == {"maxWeight": 3}


def test_suite_without_cases_raises():
    with pytest.raises(ValueError, match="no cases"):
        orthonormality(max_weight=-1)
    with pytest.raises(ValueError, match="no cases"):
        dual_engine(max_weight=-1)


def test_dual_engine_small():
    summary = dual_engine(max_weight=2)
    _check_shape(summary, "dual-engine")
    assert summary["passed"]


def test_hall_duality_small():
    summary = hall_duality(max_weight=3, truncation=3)
    _check_shape(summary, "hall-duality")
    assert summary["passed"]
    assert summary["parameters"] == {"maxWeight": 3, "truncation": 3}


def test_cauchy_suite():
    summary = cauchy()
    _check_shape(summary, "cauchy")
    assert summary["passed"]
    assert summary["cases"] == 2


def test_branching_small():
    summary = branching(max_weight=3, general_max_weight=2)
    _check_shape(summary, "branching")
    assert summary["passed"]


def test_truncation_stability_small():
    summary = truncation_stability(max_weight=2, max_rows=2, max_truncation=3)
    _check_shape(summary, "truncation-stability")
    assert summary["passed"]


def test_beta_chain_small():
    summary = beta_chain(max_weight=2, max_dual_weight=3)
    _check_shape(summary, "beta-chain")
    assert summary["passed"]


def test_classical_small():
    summary = classical(max_weight=3, window=2, pairing_rows=2)
    _check_shape(summary, "classical")
    assert summary["passed"]
