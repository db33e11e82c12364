"""The benchmark's traced run wraps functions by name: every name it
lists must still be defined where it says."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import LAYERS  # noqa: E402


def test_every_traced_name_resolves():
    missing = [
        (module, name)
        for funcs in LAYERS.values()
        for module, name in funcs
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
