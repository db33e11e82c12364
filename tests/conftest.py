"""Shared test set-up."""

import numpy as np
import pytest

from mconvex import ranges, sdp


@pytest.fixture(autouse=True)
def _cold_operator_cache():
    # every test starts with no compiled vertex-set operator, so a count
    # of compiles sees one per cold query whatever ran before
    ranges._vertex_operator.cache_clear()


@pytest.fixture
def core_reprices(monkeypatch):
    """Record every separator that ``ranges._support_cut`` prices in
    closed form from here on; the function returned re-prices each one
    with ``sdp._certificate_from_dual`` on a compiled operator of the same
    rows, at the query, where its margin is reported, and returns how many
    it checked.  The core must accept the same dual with a margin within
    1e-9 relative, and its pencil must stay under the separator's slack."""
    cuts, cut = [], ranges._support_cut

    def spied(rows, a, center, dirs, h, pull, tol):
        sep = cut(rows, a, center, dirs, h, pull, tol)
        if sep is not None:
            cuts.append((rows, tol, sep))
        return sep

    monkeypatch.setattr(ranges, "_support_cut", spied)

    def check() -> int:
        for (patterns, at_a, _, _), tol, sep in cuts:
            comp = sdp._compile(ranges._range_sdp(patterns, at_a))
            y = sep.dual * comp.norms[:, None, None]
            assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12)
            core = sdp._certificate_from_dual(comp, y, ranges._sdp_tol(tol))
            assert core is not None
            assert core.margin == pytest.approx(sep.margin, rel=1e-9)
            assert comp.eig_bounds(comp.pencil(y))[1] <= sep.psd_slack + 1e-12
        return len(cuts)

    return check
