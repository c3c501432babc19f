"""Acceptance gate: one test per criterion of the registry in
`latpack.acceptance`, at the registry's tolerances and runtime limits.
A criterion whose checks carry a known discrepancy is a strict xfail."""

import pytest

from latpack.acceptance import CHECKS


def _gate(checks):
    def test(sweep):
        results = {result["name"]: result for result in sweep}
        for check in checks:
            result = results[check.name]
            assert result["passed"], result
            if check.limit_s is not None:
                assert result["runtime_s"] < check.limit_s, result

    reasons = [check.known_discrepancy for check in checks if check.known_discrepancy]
    if reasons:
        return pytest.mark.xfail(strict=True, reason="; ".join(reasons))(test)
    return test


for _criterion in dict.fromkeys(check.criterion for check in CHECKS):
    globals()[f"test_criterion_{_criterion}"] = _gate(
        [check for check in CHECKS if check.criterion == _criterion]
    )
