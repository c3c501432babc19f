"""Acceptance gate: one test per criterion of the registry in
`latpack.acceptance`, at the registry's tolerances and runtime limits, over
the one run of the `verify paper` row of `test_cli.RUNS`.  A criterion whose
checks carry a known discrepancy is a strict xfail."""

import pytest

from latpack.acceptance import CHECKS
from test_cli import answer


def _gate(checks):
    def test():
        results = {result["name"]: result for result in answer("verify paper")["checks"]}
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
