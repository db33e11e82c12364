"""Shared test set-up."""

import pytest

from mconvex import ranges


@pytest.fixture(autouse=True)
def _cold_operator_cache():
    # every test starts with no compiled vertex-set operator, so a count
    # of compiles sees one per cold query whatever ran before
    ranges._vertex_operator.cache_clear()
