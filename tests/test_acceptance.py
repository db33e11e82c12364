"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion; the printed PASS/FAIL lines carry the measured details.
"""

import pytest

from mconvex import acceptance

_IDS = [
    "square-scaling-constant",
    "disc-scaling-constant",
    "square-disc-transform-consistency",
    "normal-compression-complete-isometry",
    "triangle-simplex-collapse",
    "free-symmetry-box-membership",
    "matrix-extreme-detection",
    "quadratic-collapse-to-2x2-model",
    "boundary-points-of-commuting-pairs",
    "local-perturbation-equality",
    "matrix-convexity-closure-probes",
    "solver-integrity-on-planted-instances",
]

assert len(_IDS) == len(acceptance.REGISTRY)


@pytest.mark.parametrize("criterion", acceptance.REGISTRY, ids=_IDS)
def test_criterion(criterion):
    result = criterion()
    line = "PASS" if result.passed else "FAIL"
    print(f"{line} {result.name} ({result.seconds:.1f}s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    if result.name == "square/disc transform consistency":
        # no probe excluded: the solver's check schedule leaves kmin In
        # witnesses a positive margin (checks from iteration 2 exclude 104)
        assert result.detail.startswith("500 compared, 0 excluded"), result.detail
