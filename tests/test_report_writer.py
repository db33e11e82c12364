"""``dump_report`` against the writer it replaced: ``to_jsonable`` over
the whole report, then a layout pass that encoded each key and leaf with
its own ``JSONEncoder.encode`` call.  Both are copied here unchanged, as
the oracle the one-traversal writer must match byte for byte."""

import dataclasses
import enum
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

import mconvex.cli as cli  # noqa: E402
from mconvex.linalg import OperatorTuple  # noqa: E402
from mconvex.models import DiagonalTuple  # noqa: E402
from mconvex.ranges import MembershipResult, MembershipStatus  # noqa: E402
from mconvex.sdp import Separator  # noqa: E402


def _encode_complex(z):
    return [float(np.real(z)), float(np.imag(z))]


def _encode_tuple(t):
    return {
        "n": t.n,
        "d": t.d,
        "hermitian": t.hermitian,
        "mats": [_to_jsonable(np.asarray(m, dtype=complex)) for m in t.mats],
    }


def _encode_diagonal(t):
    return {
        "d": t.d,
        "atoms": [[list(p), m] for p, m in t.atoms],
        "sequences": [
            [list(lim), [list(p) for p in prefix]] for lim, prefix in t.sequences
        ],
    }


def _to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.ndarray):
        if np.can_cast(obj.dtype, complex) and np.isfinite(obj).all():
            if obj.dtype.kind == "c":
                pairs = np.ascontiguousarray(obj).view(obj.real.dtype)
                return pairs.reshape(obj.shape + (2,)).tolist()
            return obj.tolist()
        return _to_jsonable(obj.tolist())
    if isinstance(obj, complex):
        return _to_jsonable(_encode_complex(obj))
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _to_jsonable(float(obj))
    if isinstance(obj, np.complexfloating):
        return _to_jsonable(complex(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, OperatorTuple):
        return _encode_tuple(obj)
    if isinstance(obj, DiagonalTuple):
        return _encode_diagonal(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return repr(obj)


_inline = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _layout(obj, indent, out):
    if isinstance(obj, dict) and obj:
        members = [(_inline(k) + ": ", obj[k]) for k in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, list) and any(isinstance(v, dict) for v in obj):
        members = [("", v) for v in obj]
        brackets = "[]"
    else:
        out.append(_inline(obj))
        return
    inner = indent + "  "
    out.append(brackets[0])
    for i, (key, value) in enumerate(members):
        out.append((",\n" if i else "\n") + inner + key)
        _layout(value, inner, out)
    out.append("\n" + indent + brackets[1])


def _oracle(report) -> str:
    out = []
    _layout(_to_jsonable(report), "", out)
    out.append("\n")
    return "".join(out)


def _dumped(report) -> str:
    buf = io.StringIO()
    cli.dump_report(report, buf)
    return buf.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_zero_reports_match_the_oracle(workload):
    for q in workloads.make_round(workload, 1, 0):
        doc = json.loads(json.dumps(q.job))
        report, _ = cli.execute(cli.JobSpec(doc["command"], doc["inputs"], doc["options"]))
        assert _dumped(report) == _oracle(report), q.qid


def test_non_finite_floats_match_the_oracle():
    inf, nan = float("inf"), float("nan")
    report = {
        "margin": nan,
        "bounds": (-inf, inf),
        "complex": np.array([complex(inf, 0.0), 1 + 2j]),
        "complex_scalar": complex(0.0, -inf),
        "numpy": [np.float64(-inf), np.float32(nan), np.complex64(complex(nan, 1.0))],
        "real": np.array([[nan, 1.0], [2.0, -inf]]),
        "trace": [(0.5, inf), (0.75, 1.0)],
    }
    text = _dumped(report)
    assert text == _oracle(report)
    assert '"margin": "nan"' in text and '"bounds": ["-inf", "inf"]' in text


class _Kind(enum.Enum):
    A = "a"


def test_lists_of_objects_match_the_oracle():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    pair = OperatorTuple((stack[0] + stack[0].conj().T, np.eye(2)), hermitian=True)
    report = {
        "command": "batch",
        "jobs": [
            {"status": "In", "certificate": {"h": stack, "vertices": np.eye(2)}},
            {"empty": {}, "none": [], "kind": _Kind.A},
            MembershipResult(MembershipStatus.OUT, 0.25, Separator(stack, 0.25, 0.0)),
        ],
        "objects": (pair, DiagonalTuple(1, (((1.0,), None), ((3.0,), 2)), ())),
        "nested": [[{"b": 1, "a": [np.int64(2), np.bool_(True)]}], 3],
        "keys": {1: "one", 2.5: "two and a half", None: "none"},
        "set": {3, 1, 2},
        "other": object.__new__(_Opaque),
    }
    assert _dumped(report) == _oracle(report)
    assert _dumped([]) == _oracle([]) and _dumped({}) == _oracle({})


class _Opaque:
    def __repr__(self):
        return "<opaque>"
