"""JSON encodings for the CLI, plus a small SVG writer.

Pinned wire formats: a complex scalar is ``[re, im]`` (plain reals are
accepted on input), a matrix is a row-major list of rows, a tuple is
``{"n", "d", "hermitian", "mats"}``, a convex body is a tagged union on
``"type"``, and a diagonal-tuple presentation spells atoms as
``[point, multiplicity]`` with ``null`` multiplicity meaning infinite.
Non-finite reals are written as the strings ``"inf"``, ``"-inf"`` and
``"nan"``, so every report is strict JSON.

Report layout: objects are written one member per line, indented two
spaces, with sorted keys, and so is a list that holds objects; every
other value, such as an array of numbers, a matrix or a stack of
matrices, sits on one line.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import IO

import numpy as np

from .geometry import Box, ConvexBody, Disc, Polytope, Sampled
from .linalg import OperatorTuple
from .models import DiagonalTuple


class SchemaError(ValueError):
    """Input JSON does not match the documented shape."""


def _decode_scalar(v) -> complex:
    # a JSON boolean decodes to a bool, which is an int but no entry
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        return complex(*parts)
    raise SchemaError(f"expected a real or [re, im] pair, got {v!r}")


def decode_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError("matrix must be a nonempty list of rows")
    try:
        return np.array([[_decode_scalar(v) for v in row] for row in rows])
    except TypeError as exc:
        raise SchemaError(f"malformed matrix: {exc}") from exc


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def decode_tuple(doc) -> OperatorTuple:
    if not isinstance(doc, dict) or "mats" not in doc:
        raise SchemaError('tuple document needs a "mats" field')
    mats = tuple(decode_matrix(rows) for rows in doc["mats"])
    hermitian = doc.get("hermitian", True)
    if not isinstance(hermitian, bool):
        raise SchemaError(f'"hermitian" must be true or false, got {hermitian!r}')
    t = OperatorTuple(mats, hermitian)
    for field in ("n", "d"):
        if field in doc and int(doc[field]) != getattr(t, field):
            raise SchemaError(
                f'"{field}" is {doc[field]} but the matrices say {getattr(t, field)}'
            )
    return t


def encode_tuple(t: OperatorTuple) -> dict:
    return {
        "n": t.n,
        "d": t.d,
        "hermitian": t.hermitian,
        "mats": [to_jsonable(np.asarray(m, dtype=complex)) for m in t.mats],
    }


def decode_body(doc) -> ConvexBody:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError('body document needs a "type" tag')
    kind = doc["type"]
    try:
        if kind == "polytope":
            return Polytope(np.array(doc["vertices"], dtype=float))
        if kind == "box":
            return Box(
                np.array(doc["lo"], dtype=float), np.array(doc["hi"], dtype=float)
            )
        if kind == "disc":
            return Disc(np.array(doc["center"], dtype=float), float(doc["radius"]))
        if kind == "sampled":
            return Sampled(
                np.array(doc["directions"], dtype=float),
                np.array(doc["support_values"], dtype=float),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {kind} body: {exc}") from exc
    raise SchemaError(f"unknown body type {kind!r}")


def decode_diagonal(doc) -> DiagonalTuple:
    if not isinstance(doc, dict) or "d" not in doc:
        raise SchemaError('diagonal document needs a "d" field')
    try:
        atoms = tuple(
            (tuple(point), None if mult is None else int(mult))
            for point, mult in doc.get("atoms", [])
        )
        sequences = tuple(
            (tuple(limit), tuple(tuple(p) for p in prefix))
            for limit, prefix in doc.get("sequences", [])
        )
        return DiagonalTuple(d=int(doc["d"]), atoms=atoms, sequences=sequences)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed diagonal presentation: {exc}") from exc


def encode_diagonal(t: DiagonalTuple) -> dict:
    return {
        "d": t.d,
        "atoms": [[list(p), m] for p, m in t.atoms],
        "sequences": [
            [list(lim), [list(p) for p in prefix]] for lim, prefix in t.sequences
        ],
    }


def to_jsonable(obj):
    """Best-effort recursive conversion of report payloads to JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.ndarray):
        if np.can_cast(obj.dtype, complex) and np.isfinite(obj).all():
            if obj.dtype.kind == "c":
                # every entry as [re, im], as encode_complex writes it
                pairs = np.ascontiguousarray(obj).view(obj.real.dtype)
                return pairs.reshape(obj.shape + (2,)).tolist()
            return obj.tolist()
        # non-finite entries or non-numbers: the scalar rules entry by entry
        return to_jsonable(obj.tolist())
    if isinstance(obj, complex):
        return to_jsonable(encode_complex(obj))
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.complexfloating):
        return to_jsonable(complex(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, OperatorTuple):
        return encode_tuple(obj)
    if isinstance(obj, DiagonalTuple):
        return encode_diagonal(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return repr(obj)


#: one-line JSON through the C encoder; to_jsonable leaves no non-finite float
_inline = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _layout(obj, indent: str, out: list[str]) -> None:
    """Append ``obj`` to ``out``: objects, and lists that hold objects, one
    member per line; anything else on one line."""
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


def dump_report(report: dict, fp: IO[str]) -> None:
    out: list[str] = []
    _layout(to_jsonable(report), "", out)
    out.append("\n")
    fp.write("".join(out))


# ---------------------------------------------------------------------------
# SVG output (planar polygons and bisection traces)
# ---------------------------------------------------------------------------


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _fit(points: list[np.ndarray], width: int, height: int, pad: int):
    allpts = np.vstack(points)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    s = min((width - 2 * pad) / span[0], (height - 2 * pad) / span[1])

    def tx(p: np.ndarray) -> tuple[float, float]:
        return (
            pad + (p[0] - lo[0]) * s,
            height - pad - (p[1] - lo[1]) * s,
        )

    return tx


def polygon_svg(polygons: list[tuple[np.ndarray, str]], path: str) -> None:
    """Write closed planar polygons, one ``(vertices, color)`` per entry,
    on a 480 x 480 canvas."""
    filled = [v for v, _ in polygons if len(v)]
    if not filled:
        raise SchemaError("nothing to draw")
    width, height = 480, 480
    tx = _fit(filled, width, height, pad=20)
    lines = _svg_header(width, height)
    for verts, color in polygons:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(tx, verts))
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")


def trace_svg(values: list[tuple[float, float]], path: str) -> None:
    """Line plot of (step, value) pairs, e.g. a bisection bracket trace,
    on a 480 x 320 canvas."""
    if not values:
        raise SchemaError("nothing to draw")
    width, height = 480, 320
    pts = np.array(values, dtype=float)
    tx = _fit([pts], width, height, pad=24)
    lines = _svg_header(width, height)
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(tx, pts))
    lines.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
        'stroke-width="1.5"/>'
    )
    for p in pts:
        x, y = tx(p)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#1f77b4"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")
