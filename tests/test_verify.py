from __future__ import annotations

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfibound.channels import rotation_family
from qfibound.verify import (
    CORRUPTION_FACTOR,
    DEFAULT_SEED,
    VERIFY_REPORT_SCHEMA,
    corrupt_family,
    run_verification,
)


@pytest.fixture(scope="module")
def default_report():
    return run_verification()


class TestRunVerification:
    def test_all_checks_pass(self, default_report):
        assert default_report["all_passed"] is True
        failing = [c["name"] for c in default_report["checks"] if not c["passed"]]
        assert failing == []

    def test_report_structure(self, default_report):
        assert default_report["schema_version"] == 1
        assert default_report["seed"] == DEFAULT_SEED
        assert len(default_report["checks"]) == 12

    def test_report_validates_against_schema(self, default_report):
        jsonschema.validate(default_report, VERIFY_REPORT_SCHEMA)

    def test_deterministic_for_fixed_seed(self, default_report):
        again = run_verification(seed=DEFAULT_SEED)
        assert again == default_report

    def test_other_seeds_also_pass(self):
        assert run_verification(seed=99)["all_passed"] is True

    def test_violations_carry_tolerances(self, default_report):
        for check in default_report["checks"]:
            assert check["max_violation"] <= check["tolerance"]
            assert check["tolerance"] > 0.0


class TestCorruption:
    def test_corrupt_run_fails(self):
        report = run_verification(corrupt_channels=True)
        assert report["all_passed"] is False
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing
        for check in failing:
            assert check["max_violation"] > check["tolerance"]

    def test_corrupt_report_still_validates(self):
        report = run_verification(corrupt_channels=True)
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)

    def test_corrupt_family_scales_derivative(self):
        family = rotation_family(1.0)
        bad = corrupt_family(family)
        assert_allclose(bad.derivative(0.3), CORRUPTION_FACTOR * family.derivative(0.3))
        assert_allclose(bad.evaluate(0.3), family.evaluate(0.3))
