from __future__ import annotations

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfibound import verify
from qfibound.channels import rotation_family
from qfibound.errors import QfiboundError
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

    def test_negative_seed_is_refused(self):
        with pytest.raises(QfiboundError, match="got -1"):
            run_verification(seed=-1)

    def test_nan_instance_fails_its_row(self, monkeypatch):
        def check(**_):
            yield from (1e-12, float("nan"), 0.0)

        monkeypatch.setattr(verify, "_CHECKS", {"nan-instance": (check, 1e-9, "")})
        report = run_verification()
        assert report["all_passed"] is False
        assert np.isnan(report["checks"][0]["max_violation"])

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

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 99])
    def test_corruption_reaches_only_the_gram_norm(self, seed):
        # a uniform scale of Phi' scales F_down and the QFI alike, so only
        # the check against a fixed N^2 t^2 can see it
        report = run_verification(seed, corrupt_channels=True)
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == ["unitary-gram-norm"]
        assert failing[0]["max_violation"] == pytest.approx(CORRUPTION_FACTOR**2 - 1.0)

    def test_corrupt_report_still_validates(self):
        report = run_verification(corrupt_channels=True)
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)

    def test_corrupt_family_scales_derivative(self):
        family = rotation_family(1.0)
        bad = corrupt_family(family)
        assert_allclose(bad.derivative(0.3), CORRUPTION_FACTOR * family.derivative(0.3))
        assert_allclose(bad.evaluate(0.3), family.evaluate(0.3))
