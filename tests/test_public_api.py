"""The package's public names: everything listed in ``__all__`` must be
defined, so that ``from mconvex import *`` works, and ``import
mconvex.cli`` loads only what the query commands run."""

import json
import os
import pathlib
import subprocess
import sys

import mconvex


def test_every_exported_name_resolves():
    missing = [name for name in mconvex.__all__ if not hasattr(mconvex, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from mconvex import *", namespace)
    assert set(mconvex.__all__) <= set(namespace)


#: run in a fresh interpreter, so that no other test has loaded a module yet
_FRESH_IMPORT = """
import json, sys
import mconvex.cli
loaded = sorted(m for m in LAZY if m in sys.modules)
import mconvex
listed = sorted(set(mconvex.__all__) - set(dir(mconvex)))
unresolved = [n for n in mconvex.__all__ if not hasattr(mconvex, n)]
namespace = {}
exec("from mconvex import *", namespace)
starred = sorted(set(mconvex.__all__) - set(namespace))
unknown = getattr(mconvex, "scale_body", None)
print(json.dumps([loaded, listed, unresolved, starred, unknown]))
"""


def test_a_query_command_imports_no_model_acceptance_or_heavy_scipy():
    # the query commands (member, theta, equal, choili) reach none of these;
    # every public name still resolves, lists and star-imports on first use
    lazy = ["mconvex.acceptance", "mconvex.models", "scipy.linalg",
            "scipy.optimize", "scipy.spatial"]
    src = str(pathlib.Path(mconvex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", f"LAZY = {lazy!r}" + _FRESH_IMPORT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == [[], [], [], [], None]
