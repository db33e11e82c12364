"""The package's public names: everything listed in ``__all__`` must be
defined, so that ``from mconvex import *`` works."""

import mconvex


def test_every_exported_name_resolves():
    missing = [name for name in mconvex.__all__ if not hasattr(mconvex, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from mconvex import *", namespace)
    assert set(mconvex.__all__) <= set(namespace)
