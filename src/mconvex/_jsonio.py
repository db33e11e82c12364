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
import math
from json.encoder import c_make_encoder, encode_basestring_ascii as quoted
from typing import IO

import numpy as np

from .geometry import Box, ConvexBody, Disc, Polytope, Sampled
from .linalg import OperatorTuple


class SchemaError(ValueError):
    """Input JSON does not match the documented shape."""


#: what each wanted type admits, and its name; every JSON number is a float
_TYPES = {
    float: ((int, float), "a number"), int: (int, "an integer"),
    str: (str, "a string"), bool: (bool, "true or false"),
    list: (list, "an array"), dict: (dict, "an object"),
}


def read(node, want: type, what: str, rank: int = 0):
    """The JSON node ``node`` as a ``want``, checked before it is used,
    else a SchemaError that names it ``what``.  With ``rank`` 0, ``want``
    is float (any number), int, str, bool, list or dict (returned as a
    copy); a boolean is never a number, and a missing key's None fails
    every check.  With a positive ``rank``, ``node`` is a nonempty,
    non-ragged array of that many axes, returned as an ndarray of float,
    or of complex, whose entries are each a number or an ``[re, im]``
    pair, and may mix."""
    admits, name = _TYPES[list if rank else want]
    if not isinstance(node, admits) or (type(node) is bool and want is not bool):
        raise SchemaError(f"{what} must be {name}, got {node!r}")
    try:
        return _array(node, want, what, rank) if rank else want(node)
    except OverflowError as exc:
        raise SchemaError(f"{what} holds an integer beyond the float range") from exc


def _entry(v, want: type, what: str):
    """One number, or for a complex ``want`` also an ``[re, im]`` pair."""
    parts = v if want is complex and isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(x, (int, float)) and type(x) is not bool for x in parts):
        kind = "a real or [re, im] pair" if want is complex else "a number"
        raise SchemaError(f"expected {kind}, got {v!r} in {what}")
    return want(*parts)


def _array(rows: list, want: type, what: str, rank: int) -> np.ndarray:
    a = np.array(rows, dtype=object)
    pairs = want is complex and a.ndim == rank + 1 and a.shape[-1] == 2
    if a.ndim != rank + pairs or 0 in a.shape:
        raise SchemaError(f"{what} must be a nonempty, non-ragged array of rank {rank}")
    if {int, float}.issuperset(map(type, a.flat)):  # JSON numbers: one conversion
        a = a.astype(float)
        return a.view(complex)[..., 0] if pairs else a.astype(want, copy=False)
    # a non-number, a number of a subclass, or reals and [re, im] pairs mixed
    entries = a.reshape(-1, 2).tolist() if pairs else a.flat
    return np.array([_entry(v, want, what) for v in entries]).reshape(a.shape[:rank])


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def decode_tuple(doc) -> OperatorTuple:
    doc = read(doc, dict, "tuple document")
    mats = read(doc.get("mats"), complex, '"mats"', rank=3)
    hermitian = read(doc.get("hermitian", True), bool, '"hermitian"')
    t = OperatorTuple(mats, hermitian)
    for field in ("n", "d"):
        if field in doc and read(doc[field], int, f'"{field}"') != getattr(t, field):
            raise SchemaError(
                f'"{field}" is {doc[field]} but the matrices say {getattr(t, field)}'
            )
    return t


#: each body type's class and its fields, in the class's order, by rank
_BODIES = {
    "polytope": (Polytope, {"vertices": 2}),
    "box": (Box, {"lo": 1, "hi": 1}),
    "disc": (Disc, {"center": 1, "radius": 0}),
    "sampled": (Sampled, {"directions": 2, "support_values": 1}),
}


def decode_body(doc) -> ConvexBody:
    doc = read(doc, dict, "body document")
    kind = read(doc.get("type"), str, '"type"')
    if kind not in _BODIES:
        raise SchemaError(f"unknown body type {kind!r}")
    cls, fields = _BODIES[kind]
    return cls(*(read(doc.get(k), float, f'"{k}"', rank) for k, rank in fields.items()))


def _pairs(doc: dict, key: str) -> list:
    """``doc[key]``, a list (empty when absent) of two-item lists."""
    items = read(doc.get(key, []), list, f'"{key}"')
    for item in items:
        if len(read(item, list, f'an item of "{key}"')) != 2:
            raise SchemaError(f'an item of "{key}" must be a pair, got {item!r}')
    return items


def decode_diagonal(doc):
    """A ``models.DiagonalTuple`` from its wire format."""
    from .models import DiagonalTuple

    doc = read(doc, dict, "diagonal document")
    d = read(doc.get("d"), int, '"d"')
    atoms = tuple(
        (read(p, float, "a point", 1),
         m if m is None else read(m, int, "a multiplicity"))
        for p, m in _pairs(doc, "atoms")
    )
    sequences = tuple(
        (read(lim, float, "a limit", 1), tuple(
            read(p, float, "a point", 1) for p in read(prefix, list, "a prefix")
        ))
        for lim, prefix in _pairs(doc, "sequences")
    )
    return DiagonalTuple(d, atoms, sequences)


def _members(obj) -> dict | None:
    """The string-keyed members of ``obj`` if it is written as a JSON object,
    else None: an operator tuple in its wire format, other dataclasses by
    field, the wire format of a diagonal tuple and of each certificate."""
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if not hasattr(type(obj), "__dataclass_fields__"):
        return None
    if isinstance(obj, OperatorTuple):
        return {"n": obj.n, "d": obj.d, "hermitian": obj.hermitian, "mats": obj.mats}
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


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
    if (members := _members(obj)) is not None:
        return {k: to_jsonable(v) for k, v in members.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, (np.floating, np.complexfloating)):
        return to_jsonable(complex(obj) if np.iscomplexobj(obj) else float(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    return repr(obj)


#: the one-line JSON encoder, built once: sorted keys, ", " and ": "
#: separators, and no non-finite float (to_jsonable leaves none)
_encoder = c_make_encoder(None, None, quoted, None, ": ", ", ", True, False, False)


def _write(obj, indent: str, out: list[str]) -> None:
    """Append ``obj`` to ``out``: objects, and lists that hold objects, one
    member per line, with sorted keys; anything else, such as the common
    leaves tested first, on one line in one ``to_jsonable`` and one encoder
    call."""
    members = None if isinstance(obj, (str, float, np.ndarray)) else _members(obj)
    if members:
        items = [(quoted(k) + ": ", members[k]) for k in sorted(members)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, set)) and any(
            _members(v) is not None for v in obj):
        items = [("", v) for v in obj]
        brackets = "[]"
    else:
        out.extend(_encoder(to_jsonable(obj), 0))
        return
    inner = indent + "  "
    out.append(brackets[0])
    for i, (key, value) in enumerate(items):
        out.append((",\n" if i else "\n") + inner + key)
        _write(value, inner, out)
    out.append("\n" + indent + brackets[1])


def dump_report(report: dict, fp: IO[str]) -> None:
    out: list[str] = []
    _write(report, "", out)
    fp.write("".join(out) + "\n")


# ---------------------------------------------------------------------------
# SVG output (planar polygons and bisection traces)
# ---------------------------------------------------------------------------


def _write_svg(path: str, width: int, height: int, pad: int, points, draw) -> None:
    """Write the elements ``draw(tx)`` lists on a white canvas, where ``tx``
    maps the bounding box of ``points`` into it, ``pad`` pixels in."""
    allpts = np.vstack(points)
    lo = allpts.min(axis=0)
    span = np.maximum(allpts.max(axis=0) - lo, 1e-9)
    s = min((width - 2 * pad) / span[0], (height - 2 * pad) / span[1])

    def tx(p: np.ndarray) -> tuple[float, float]:
        return pad + (p[0] - lo[0]) * s, height - pad - (p[1] - lo[1]) * s

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *draw(tx),
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")


def _coords(tx, pts) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in map(tx, pts))


def polygon_svg(polygons: list[tuple[np.ndarray, str]], path: str) -> None:
    """Write closed planar polygons, one ``(vertices, color)`` per entry,
    on a 480 x 480 canvas."""
    filled = [v for v, _ in polygons if len(v)]
    if not filled:
        raise SchemaError("nothing to draw")
    _write_svg(path, 480, 480, 20, filled, lambda tx: [
        f'<polygon points="{_coords(tx, verts)}" fill="none" stroke="{color}" '
        'stroke-width="1.5"/>'
        for verts, color in polygons
    ])


def trace_svg(values: list[tuple[float, float]], path: str) -> None:
    """Line plot of (step, value) pairs, e.g. a bisection bracket trace,
    on a 480 x 320 canvas."""
    if not values:
        raise SchemaError("nothing to draw")
    pts = np.array(values, dtype=float)
    _write_svg(path, 480, 320, 24, [pts], lambda tx: [
        f'<polyline points="{_coords(tx, pts)}" fill="none" stroke="#1f77b4" '
        'stroke-width="1.5"/>',
        *(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#1f77b4"/>'
          for x, y in map(tx, pts)),
    ])
