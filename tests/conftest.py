"""Shared test set-up."""

import dataclasses
import functools

import numpy as np
import pytest

from mconvex import ranges, sdp
from mconvex.linalg import herm_part, skew_part
from mconvex.sdp import AffineConstraint, SdpFeasibility


@pytest.fixture(autouse=True)
def _cold_operator_cache():
    # every test starts with no compiled vertex-set operator, so a count
    # of compiles sees one per cold query whatever ran before
    ranges._vertex_operator.cache_clear()


def range_sdp(rows) -> SdpFeasibility:
    """The range problem of ``ranges._range_rows``' output ``rows`` at
    ``a``, through the public API: the unit row ``sum_i sum_p (C_i)_pp =
    I``, built here from its definition, then one ``AffineConstraint``
    per posed tuple row of the stack, its rhs at ``a``.  ``sdp._compile``
    of it is the reference the range operators are checked against."""
    stack, at_a = rows[:2]
    _, count, k, _ = stack.shape
    n = at_a.shape[-1]
    unit = AffineConstraint(np.repeat(np.eye(k)[None], count, axis=0), np.eye(n))
    tuple_rows = map(AffineConstraint, stack[1:], at_a)
    return SdpFeasibility(
        count * k * n, (unit, *tuple_rows), block_sizes=(k * n,) * count
    )


@dataclasses.dataclass
class Traffic:
    """What the SDP core did since ``count_traffic`` returned this record:
    the operators built (``sdp._Compiled``, by ``_compile`` or directly),
    in order, and the solves, with their iterations and constraint rows
    summed."""

    compiled: list = dataclasses.field(default_factory=list)
    solves: int = 0
    iterations: int = 0
    rows: int = 0

    @property
    def compiles(self) -> int:
        return len(self.compiled)


def count_traffic(monkeypatch) -> Traffic:
    """A new ``Traffic`` record, into which every ``sdp._Compiled`` built
    and every ``_Compiled.solve`` goes from now on, whatever arguments
    they take.  Hypothesis tests, which take no function-scoped fixture,
    call it on a ``pytest.MonkeyPatch.context()``."""
    record = Traffic()
    init, solve = sdp._Compiled.__init__, sdp._Compiled.solve

    def counted_init(self, *args):
        init(self, *args)
        record.compiled.append(self)

    def counted_solve(self, *args):
        verdict, z = solve(self, *args)
        record.solves += 1
        record.iterations += verdict.iterations
        record.rows += self.m
        return verdict, z

    monkeypatch.setattr(sdp._Compiled, "__init__", counted_init)
    monkeypatch.setattr(sdp._Compiled, "solve", counted_solve)
    return record


@pytest.fixture
def traffic(monkeypatch):
    """``traffic()`` is ``count_traffic`` on the test's monkeypatch: a
    new record, counted from the call on."""
    return functools.partial(count_traffic, monkeypatch)


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
        for rows, tol, sep in cuts:
            comp = sdp._compile(range_sdp(rows))
            y = sep.dual * comp.norms[:, None, None]
            assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12)
            core = sdp._certificate_from_dual(comp, y, ranges._sdp_tol(tol))
            assert core is not None
            assert core.margin == pytest.approx(sep.margin, rel=1e-9)
            assert comp.eig_bounds(comp.pencil(y))[1] <= sep.psd_slack + 1e-12
        return len(cuts)

    return check


def profile_max(y0, t, scan=1024, zooms=3):
    """``max_theta lambda_max(y0 + Re(e^{i theta} t))`` by brute force: a
    ``scan``-angle LAPACK scan, then ``zooms`` rounds of 257 angles across
    two steps about each of the 8 best angles so far, each round 128 times
    finer, so the value is resolved far below 1e-12.  Also returns the
    plain scan's maximum."""
    t = np.asarray(t, dtype=complex)
    y0 = y0 * np.eye(len(t)) if np.ndim(y0) == 0 else np.asarray(y0, dtype=complex)
    re, im = herm_part(t), skew_part(t)

    def values(thetas):
        h = herm_part(y0) + np.cos(thetas)[:, None, None] * re
        return np.linalg.eigvalsh(h - np.sin(thetas)[:, None, None] * im)[:, -1]

    thetas = np.linspace(0.0, 2.0 * np.pi, scan, endpoint=False)
    vals = values(thetas)
    plain, step = float(vals.max()), 2.0 * np.pi / scan
    for _ in range(zooms):
        tops = thetas[np.argsort(vals)[-8:]]
        thetas = (tops[:, None] + np.linspace(-step, step, 257)).ravel()
        vals = values(thetas)
        step /= 128.0
    return float(vals.max()), plain
