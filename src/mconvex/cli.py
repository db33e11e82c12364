"""Command-line frontend: JSON documents in, one JSON report out.

Every command reads its inputs from JSON files, prints a report
envelope (command, status, margins and certificates when present, the
tolerance options the command read, wall time) to stdout, and exits 0
on success, 64 on a usage error, 65 on malformed or invalid input data,
and 70 when a solver gave up and ``--strict`` was set.  ``batch`` runs
a list of inline job documents one after another and reports them in
input order, so a rerun reproduces them byte for byte apart from wall
times; an option key the job's command does not read is a usage
error, as is a flag the command does not take.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable, NamedTuple

from . import acceptance
from ._jsonio import (
    SchemaError,
    decode_body,
    decode_diagonal,
    decode_tuple,
    dump_report,
    polygon_svg,
    read,
    trace_svg,
)
from .errors import MConvexError
from .geometry import (
    essential_range_hull,
    extreme_points,
    is_simplex,
    jnr_sandwich,
)
from .models import (
    NormalTuple,
    block_diagonal_model,
    essential_spectrum_diag,
    extreme_spectral_compression,
    joint_spectrum,
    sw_perturbation,
    verify_complete_isometry,
    verify_local_sw,
)
from .ranges import (
    MAX_ITER,
    choi_li_equiv_check,
    is_matrix_extreme_free_symmetric,
    is_matrix_extreme_free_unitary,
    kmax_member,
    kmin_member,
    mrange_equal,
    theta_min_alpha,
    ucp_member,
)

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_UNAVAILABLE = 70


class UsageError(Exception):
    pass


@dataclasses.dataclass
class JobSpec:
    """One unit of CLI work: a command, its parsed inputs, its options."""

    command: str
    inputs: dict
    options: dict
    #: the options ``_opt`` read, which the report lists under tolerances
    read: set[str] = dataclasses.field(default_factory=set)


def _opt(job: JobSpec, key: str, default):
    """Option ``key``, whose type ``execute`` checked, or ``default``."""
    job.read.add(key)
    v = job.options.get(key)
    return default if v is None else v


def _need(job: JobSpec, key: str):
    if key not in job.inputs or job.inputs[key] is None:
        raise UsageError(f"command {job.command!r} needs the {key!r} input")
    return job.inputs[key]


def _membership_payload(res) -> dict:
    payload = {
        "status": res.status.value,
        "margin": res.margin,
        "detail": res.detail,
        "has_unknown": res.status.value == "Unknown",
    }
    if res.certificate is not None:
        payload["certificate"] = res.certificate
    return payload


def _run_jnr(job: JobSpec) -> dict:
    t = decode_tuple(_need(job, "tuple"))
    m = _opt(job, "grid", 64)
    sandwich = jnr_sandwich(t, m=m)
    if svg := job.options.get("svg"):
        polygon_svg(
            [
                (sandwich.inner.vertices, "#1f77b4"),
                (sandwich.outer.vertices, "#d62728"),
            ],
            svg,
        )
    return {
        "inner": sandwich.inner.vertices,
        "outer": sandwich.outer.vertices,
        "hausdorff_bound": sandwich.hausdorff_bound,
        "directions": m,
    }


def _run_member(job: JobSpec) -> dict:
    kind = job.inputs["kind"]
    a = decode_tuple(_need(job, "tuple"))
    tol = _opt(job, "tol", 1e-7)
    if kind == "kmin":
        res = kmin_member(
            decode_body(_need(job, "body")), a, tol=tol,
            max_iter=_opt(job, "max_iter", MAX_ITER),
        )
    elif kind == "kmax":
        res = kmax_member(decode_body(_need(job, "body")), a, tol=tol)
    else:
        x = decode_tuple(_need(job, "range_of"))
        res = ucp_member(x, a, tol=tol, max_iter=_opt(job, "max_iter", MAX_ITER))
    return _membership_payload(res)


def _run_equal(job: JobSpec) -> dict:
    x = decode_tuple(_need(job, "x"))
    y = decode_tuple(_need(job, "y"))
    equal, report = mrange_equal(x, y, tol=_opt(job, "tol", 1e-7))
    return {
        "status": "Equal" if equal else "Unequal",
        "equal": equal,
        **report,
        "has_unknown": "Unknown" in report.values(),
    }


def _run_theta(job: JobSpec) -> dict:
    body = decode_body(_need(job, "body"))
    t = decode_tuple(_need(job, "tuple"))
    trace: list = []
    est = theta_min_alpha(body, t, tol=_opt(job, "tol", 1e-2), trace=trace)
    if svg := job.options.get("svg"):
        trace_svg([(i, hi - lo) for i, (lo, hi) in enumerate(trace)], svg)
    return {
        "lower": est.lower,
        "upper": est.upper,
        "witness_point": est.witness_point,
        "trace": trace,
    }


def _run_extreme(job: JobSpec) -> dict:
    kind = job.inputs["kind"]
    if kind == "points":
        pts = read(_need(job, "points"), float, '"points"', rank=2)
        ext = extreme_points(pts, tol=_opt(job, "tol", 1e-9))
        return {"extremes": ext, "count": int(ext.shape[0])}
    if kind == "simplex":
        pts = read(_need(job, "points"), float, '"points"', rank=2)
        flag, info = is_simplex(pts, tol=_opt(job, "tol", 1e-9))
        return {
            "status": "Simplex" if flag else "NotSimplex",
            "is_simplex": flag,
            "rank_data": info,
        }
    t = decode_tuple(_need(job, "tuple"))
    test = (
        is_matrix_extreme_free_symmetric
        if kind == "free-sym"
        else is_matrix_extreme_free_unitary
    )
    accepted, reason = test(t)
    return {
        "status": "Extreme" if accepted else "NotExtreme",
        "accepted": accepted,
        "reason": reason,
    }


def _run_choili(job: JobSpec) -> dict:
    y = read(_need(job, "y"), complex, '"y"', rank=2)
    rep = choi_li_equiv_check(y, tol=_opt(job, "tol", 1e-6))
    return {
        "status": "Consistent" if rep["consistent"] else "Inconsistent",
        "excluded": rep["excluded"],
        "square_min": rep["square_min"],
        "disc_radius": rep["radius"],
        "calibration": rep["calibration"],
        "has_unknown": rep["square_min"].status.value == "Unknown",
    }


def _run_model(job: JobSpec) -> dict:
    if job.inputs["kind"] == "normal":
        t = NormalTuple(decode_tuple(_need(job, "tuple")))
        model = extreme_spectral_compression(t)
        check = verify_complete_isometry(t, model)
        return {
            "joint_spectrum": joint_spectrum(t),
            "extreme_set": model.extreme_set,
            "projector_rank": model.projector_rank,
            "compressed": model.compressed,
            "isometry_check": check,
        }
    docs = read(_need(job, "candidates"), list, '"candidates"')
    model = block_diagonal_model([decode_tuple(doc) for doc in docs])
    return {
        "summands": list(model.summands),
        "direct_sum": model.direct_sum,
        "report": model.report,
    }


def _run_sw(job: JobSpec) -> dict:
    kind = job.inputs["kind"]
    t = decode_diagonal(_need(job, "diag"))
    if kind == "ess":
        pts = essential_spectrum_diag(t, tol=_opt(job, "tol", 1e-9))
        return {"points": pts, "count": int(pts.shape[0])}
    if kind == "perturb":
        perturbed, report = sw_perturbation(t)
        return {"perturbed": perturbed, "report": report}
    if job.inputs.get("perturbed") is not None:
        perturbed = decode_diagonal(job.inputs["perturbed"])
    else:
        perturbed, _ = sw_perturbation(t)
    out = verify_local_sw(t, perturbed, tol=_opt(job, "tol", 1e-7))
    out["status"] = "Equal" if out["equal"] else "Unequal"
    return out


def _run_toeplitz(job: JobSpec) -> dict:
    samples = read(_need(job, "samples"), complex, '"samples"', rank=1)
    if len(samples) < 3:
        raise SchemaError("toeplitz needs at least three symbol samples")
    hull, extremes = essential_range_hull(samples)
    if svg := job.options.get("svg"):
        polygon_svg([(hull, "#1f77b4")], svg)
    return {"hull": hull, "extremes": extremes}


def _run_verify_suite(job: JobSpec) -> dict:
    results = acceptance.run_all()
    for r in results:
        line = "PASS" if r.passed else "FAIL"
        print(f"{line} {r.name} ({r.seconds:.1f}s): {r.detail}", file=sys.stderr)
    return {
        "status": "Pass" if all(r.passed for r in results) else "Fail",
        "criteria": results,
    }


class _Command(NamedTuple):
    """A command's handler (None for ``batch``: ``main`` runs it), help
    line, ``--kind`` choices (which ``execute`` checks before the handler
    runs), input files as ``(key, required, help)`` and the option keys it
    reads, beside the common ``json`` and ``strict``; an input's flag is
    ``--key`` with ``-`` for ``_``, its dest ``key_path``."""

    run: Callable[[JobSpec], dict] | None
    help: str
    kinds: tuple[str, ...]
    inputs: list[tuple[str, bool, str | None]]
    options: tuple[str, ...] = ()


_COMMANDS = {
    "jnr": _Command(_run_jnr, "joint numerical range sandwich", (), [
        ("tuple", True, None)], ("grid", "svg")),
    "member": _Command(_run_member, "membership queries", ("ucp", "kmin", "kmax"), [
        ("tuple", True, None),
        ("body", False, "body for kmin/kmax"),
        ("range_of", False, "tuple whose range to test (ucp)")],
        ("tol", "max_iter")),
    "equal": _Command(_run_equal, "matrix range equality", (), [
        ("x", True, None), ("y", True, None)], ("tol",)),
    "theta": _Command(_run_theta, "scaling constant bracket", (), [
        ("body", True, None), ("tuple", True, None)], ("tol", "svg")),
    "extreme": _Command(_run_extreme, "extreme points / extremality tests",
                        ("points", "simplex", "free-sym", "free-uni"), [
        ("points", False, "JSON array of points"),
        ("tuple", False, "tuple for free-* kinds")], ("tol",)),
    "choili": _Command(_run_choili, "square/disc transform cross-check", (), [
        ("y", True, "matrix JSON")], ("tol",)),
    "model": _Command(_run_model, "spectral or block-diagonal models",
                      ("normal", "blockdiag"), [
        ("tuple", False, "tuple for kind=normal"),
        ("candidates", False, "JSON array of tuples")]),
    "sw": _Command(_run_sw, "diagonal-tuple perturbation machinery",
                   ("ess", "perturb", "verify"), [
        ("diag", True, None), ("perturbed", False, None)], ("tol",)),
    "toeplitz": _Command(_run_toeplitz, "essential range hull of symbol samples", (), [
        ("samples", True, None)], ("svg",)),
    "verify-suite": _Command(_run_verify_suite, "run the acceptance criteria", (), []),
    "batch": _Command(None, "run a JSON list of inline jobs", (), [
        ("jobs", True, None)]),
}


def execute(job: JobSpec) -> tuple[dict, int]:
    """Run one job and assemble the report envelope plus an exit code."""
    row = _COMMANDS.get(job.command)
    if row is None or row.run is None:
        raise UsageError(f"unknown command {job.command!r}")
    known = row.options + _COMMON_OPTIONS
    unknown = sorted(set(job.options) - set(known))
    if unknown:
        raise UsageError(
            f"{job.command} does not read options {unknown} (it reads: {known})"
        )
    if row.kinds and (kind := _need(job, "kind")) not in row.kinds:
        kinds = " | ".join(row.kinds)
        raise UsageError(f"unknown {job.command} kind {kind!r} ({kinds})")
    for key in row.options:
        if job.options.get(key) is not None:
            # the type argparse gives the flag, so a batch job's option
            # gets the flag's check: str where the table sets none
            want = _OPTION_FLAGS[key][1].get("type", str)
            read(job.options[key], want, f"option {key!r}")
    t0 = time.perf_counter()
    payload = row.run(job)
    has_unknown = bool(payload.pop("has_unknown", False))
    report = {
        "command": job.command,
        "status": payload.pop("status", "ok"),
        "tolerances": {
            k: job.options[k]
            for k in sorted(job.read)
            if job.options.get(k) is not None
        },
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    report.update(payload)
    code = EX_OK
    if job.command == "verify-suite" and report["status"] != "Pass":
        code = 1
    if has_unknown and job.options.get("strict"):
        code = EX_UNAVAILABLE
    return report, code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


#: the options every command takes
_COMMON_OPTIONS = ("json", "strict")

#: each option a command may read, as ``add_argument``'s flag and keywords
_OPTION_FLAGS = {
    "tol": ("--tol", dict(type=float, help="tolerance override")),
    "max_iter": ("--max-iter", dict(type=int, help="iteration budget")),
    "grid": ("--grid", dict(type=int, help="direction grid")),
    "svg": ("--svg", dict(metavar="PATH", help="write an SVG plot")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="mconvex", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        p = subs.add_parser(name, help=row.help)
        if row.kinds:
            p.add_argument("--kind", required=True, choices=row.kinds)
        for key, required, text in row.inputs:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, required=required, dest=f"{key}_path", help=text)
        for key in row.options:
            flag, kwargs = _OPTION_FLAGS[key]
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", metavar="PATH", help="also write the report here")
        p.add_argument(
            "--strict", action="store_true", help="exit 70 when any verdict is Unknown"
        )
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    row = _COMMANDS[args.command]
    paths = {key: getattr(args, f"{key}_path") for key, _, _ in row.inputs}
    inputs = {key: _load_json(path) for key, path in paths.items() if path is not None}
    if row.kinds:
        inputs["kind"] = args.kind
    options = {k: getattr(args, k) for k in row.options + _COMMON_OPTIONS}
    return JobSpec(command=args.command, inputs=inputs, options=options)


def _run_batch(args: argparse.Namespace) -> tuple[dict, int]:
    docs = read(_load_json(args.jobs_path), list, "the batch file")
    if not docs:
        raise SchemaError("batch file must be a nonempty JSON list of jobs")
    jobs = []
    for i, doc in enumerate(docs):
        doc = read(doc, dict, f"batch entry {i}")
        options = read(doc.get("options", {}), dict, f"batch entry {i}'s options")
        inputs = read(doc.get("inputs", {}), dict, f"batch entry {i}'s inputs")
        if options.get("strict") is None:
            options["strict"] = args.strict
        jobs.append(JobSpec(doc.get("command"), inputs, options))

    def guarded(job: JobSpec) -> tuple[dict, int]:
        try:
            read(job.command, str, "a batch job's command")
            return execute(job)
        except UsageError as exc:
            status, error, code = "UsageError", str(exc), EX_USAGE
        except (SchemaError, MConvexError, ValueError) as exc:
            status, error = "DataError", f"{type(exc).__name__}: {exc}"
            code = EX_DATAERR
        return {"command": job.command, "status": status, "error": error}, code

    t0 = time.perf_counter()
    outcomes = [guarded(j) for j in jobs]
    report = {
        "command": "batch",
        "status": "ok" if all(c == EX_OK for _, c in outcomes) else "Error",
        "jobs": [r for r, _ in outcomes],
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return report, max((c for _, c in outcomes), default=EX_OK)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "batch":
            report, code = _run_batch(args)
        else:
            report, code = execute(_job_from_args(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (SchemaError, MConvexError, ValueError) as exc:
        dump_report(
            {"status": "DataError", "error": f"{type(exc).__name__}: {exc}"},
            sys.stdout,
        )
        return EX_DATAERR
    dump_report(report, sys.stdout)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            dump_report(report, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
