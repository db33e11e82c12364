import copy
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mconvex.acceptance as acceptance
import mconvex.cli as cli
import mconvex.linalg as linalg
import mconvex.ranges as ranges
from mconvex._jsonio import to_jsonable
from mconvex.errors import MConvexError
from mconvex.ranges import MembershipResult, MembershipStatus

ROOT2 = float(np.sqrt(2.0))


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def pauli_tuple(scale=1.0):
    return {
        "hermitian": True,
        "mats": [
            [[0.0, scale], [scale, 0.0]],
            [[scale, 0.0], [0.0, -scale]],
        ],
    }


SQUARE_BODY = {
    "type": "polytope",
    "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCommands:
    def test_member_kmin_in(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple(1.0 / ROOT2))
        b = write(tmp_path / "b.json", SQUARE_BODY)
        code, rep = run(
            capsys, ["member", "--kind", "kmin", "--tuple", t, "--body", b]
        )
        assert code == 0
        assert rep["status"] == "In"
        assert rep["command"] == "member"

    @pytest.mark.parametrize("e", [3e-7, 5e-7, 1e-6, 3e-6])
    @pytest.mark.parametrize(
        "body",
        [SQUARE_BODY, {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}],
        ids=["square", "disc"],
    )
    def test_member_kmin_of_a_small_pair_about_a_scalar(
        self, tmp_path, capsys, body, e
    ):
        # (0.5 I + e X, -0.5 I + e Z) exited 65 with NotCommuting
        doc = {"hermitian": True, "mats": [
            [[0.5, e], [e, 0.5]], [[e - 0.5, 0.0], [0.0, -e - 0.5]],
        ]}
        t = write(tmp_path / "t.json", doc)
        b = write(tmp_path / "b.json", body)
        code, rep = run(
            capsys, ["member", "--kind", "kmin", "--tuple", t, "--body", b]
        )
        assert code == 0
        assert rep["status"] == "In"

    def test_member_kmax_out(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple(1.5))
        b = write(tmp_path / "b.json", SQUARE_BODY)
        code, rep = run(
            capsys, ["member", "--kind", "kmax", "--tuple", t, "--body", b]
        )
        assert code == 0
        assert rep["status"] == "Out"
        assert rep["margin"] == pytest.approx(0.5, abs=1e-9)

    def test_member_kmax_polytope_in_three_dimensions(self, tmp_path, capsys):
        # the cube [-1, 1]^3 as a vertex list, against the Pauli triple,
        # whose joint numerical range is the unit ball
        cube = [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
        b = write(tmp_path / "b.json", {"type": "polytope", "vertices": cube})
        for scale, status, margin in ((0.5, "In", 0.5), (1.2, "Out", 0.2)):
            doc = pauli_tuple(scale)
            doc["mats"].append([[[0.0, 0.0], [0.0, -scale]], [[0.0, scale], [0.0, 0.0]]])
            t = write(tmp_path / "t.json", doc)
            code, rep = run(
                capsys, ["member", "--kind", "kmax", "--tuple", t, "--body", b]
            )
            assert code == 0
            assert rep["status"] == status
            assert rep["margin"] == pytest.approx(margin, abs=1e-12)

    @pytest.mark.parametrize("kind", ["kmax", "kmin"])
    def test_member_over_nearly_coincident_vertices(self, tmp_path, capsys, kind):
        # two vertices in R^4 about 1e-12 apart exited 1 with Qhull's
        # QH6214 traceback: the body is a segment, and the scalar tuple at
        # its first end is a member
        v = [[0.3, -0.2, 0.7, 0.1], [0.3 + 1e-12, -0.2, 0.7 - 1e-12, 0.1 + 5e-13]]
        b = write(tmp_path / "b.json", {"type": "polytope", "vertices": v})
        doc = {"hermitian": True, "mats": [[[x, 0.0], [0.0, x]] for x in v[0]]}
        t = write(tmp_path / "t.json", doc)
        code, rep = run(
            capsys, ["member", "--kind", kind, "--tuple", t, "--body", b]
        )
        assert code == 0
        assert rep["status"] == "In"

    def test_member_ucp(self, tmp_path, capsys):
        x = write(
            tmp_path / "x.json",
            {"hermitian": True, "mats": [[[1.0, 0.0], [0.0, -1.0]]]},
        )
        a = write(tmp_path / "a.json", {"hermitian": True, "mats": [[[2.0]]]})
        code, rep = run(
            capsys, ["member", "--kind", "ucp", "--tuple", a, "--range-of", x]
        )
        assert code == 0
        assert rep["status"] == "Out"
        assert rep["margin"] == pytest.approx(0.5, abs=1e-6)

    def test_theta_square(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        b = write(tmp_path / "b.json", SQUARE_BODY)
        svg = tmp_path / "theta.svg"
        code, rep = run(
            capsys,
            ["theta", "--body", b, "--tuple", t, "--tol", "0.05", "--svg", str(svg)],
        )
        assert code == 0
        assert rep["lower"] <= ROOT2 <= rep["upper"] + 0.05
        assert svg.exists() and svg.read_text().startswith("<svg")

    def test_jnr_svg(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        svg = tmp_path / "jnr.svg"
        code, rep = run(
            capsys, ["jnr", "--tuple", t, "--grid", "32", "--svg", str(svg)]
        )
        assert code == 0
        assert rep["hausdorff_bound"] > 0
        assert len(rep["inner"]) == 32
        assert svg.exists()

    def test_choili_consistent(self, tmp_path, capsys):
        y = write(tmp_path / "y.json", [[[1.0, 1.0]]])
        code, rep = run(capsys, ["choili", "--y", y])
        assert code == 0
        assert rep["status"] == "Consistent"
        assert rep["disc_radius"] == pytest.approx(1.0, abs=1e-9)

    def test_equal_same_tuple(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        code, rep = run(
            capsys,
            ["equal", "--x", t, "--y", t],
        )
        assert code == 0
        assert rep["status"] == "Equal"
        assert rep["y_in_range_x"] == rep["x_in_range_y"] == "In"

    def test_extreme_points(self, tmp_path, capsys):
        pts = write(
            tmp_path / "p.json",
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]],
        )
        code, rep = run(capsys, ["extreme", "--kind", "points", "--points", pts])
        assert code == 0
        assert rep["count"] == 3

    def test_extreme_simplex(self, tmp_path, capsys):
        pts = write(
            tmp_path / "p.json",
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]],
        )
        code, rep = run(capsys, ["extreme", "--kind", "simplex", "--points", pts])
        assert code == 0
        assert rep["status"] == "Simplex"

    def test_extreme_free_sym(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        code, rep = run(capsys, ["extreme", "--kind", "free-sym", "--tuple", t])
        assert code == 0
        assert rep["status"] == "Extreme"

    def test_model_normal(self, tmp_path, capsys):
        t = write(
            tmp_path / "t.json",
            {
                "hermitian": True,
                "mats": [
                    [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]],
                    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]],
                ],
            },
        )
        code, rep = run(capsys, ["model", "--kind", "normal", "--tuple", t])
        assert code == 0
        assert rep["projector_rank"] == 3
        assert rep["isometry_check"]["slack"] <= 1e-9

    def test_sw_verify(self, tmp_path, capsys):
        diag = write(
            tmp_path / "d.json",
            {
                "d": 1,
                "atoms": [],
                "sequences": [[[0.0], [[1.0 / k] for k in range(1, 40)]]],
            },
        )
        code, rep = run(
            capsys, ["sw", "--kind", "verify", "--diag", diag]
        )
        assert code == 0
        assert rep["status"] == "Equal"
        assert rep["point_gap_truncation_in_essential"] <= 1e-7

    def test_model_blockdiag_merges_equivalent_candidates(self, tmp_path, capsys):
        # (X, Z) and its conjugate by the Hadamard matrix, (Z, X)
        x, z = pauli_tuple()["mats"]
        docs = [{"hermitian": True, "mats": m} for m in ([x, z], [z, x])]
        c = write(tmp_path / "c.json", docs)
        code, rep = run(capsys, ["model", "--kind", "blockdiag", "--candidates", c])
        assert code == 0
        assert len(rep["summands"]) == 1
        assert rep["report"]["dropped_duplicates"] == [1]
        assert rep["direct_sum"]["n"] == 2

    def test_sw_ess(self, tmp_path, capsys):
        diag = write(
            tmp_path / "d.json",
            {"d": 1, "atoms": [[[1.0], None], [[3.0], 2]], "sequences": []},
        )
        code, rep = run(capsys, ["sw", "--kind", "ess", "--diag", diag])
        assert code == 0
        assert rep["points"] == [[1.0]]
        assert rep["count"] == 1

    def test_sw_perturb_encodes_a_diagonal_tuple(self, tmp_path, capsys):
        diag = write(
            tmp_path / "d.json",
            {"d": 1, "atoms": [], "sequences": [[[0.0], [[1.0], [0.5], [0.25]]]]},
        )
        code, rep = run(capsys, ["sw", "--kind", "perturb", "--diag", diag])
        assert code == 0
        assert rep["perturbed"] == {"d": 1, "atoms": [[[0.0], None]], "sequences": []}
        assert rep["report"]["displacements"] == [1.0, 0.5, 0.25]

    @pytest.mark.parametrize("atom, status", [(0.0, "Equal"), (5.0, "Unequal")])
    def test_sw_verify_reads_the_perturbed_file(self, tmp_path, capsys, atom, status):
        diag = write(
            tmp_path / "d.json",
            {
                "d": 1,
                "atoms": [],
                "sequences": [[[0.0], [[1.0 / k] for k in range(1, 40)]]],
            },
        )
        perturbed = write(
            tmp_path / "p.json", {"d": 1, "atoms": [[[atom], None]], "sequences": []}
        )
        args = ["sw", "--kind", "verify", "--diag", diag, "--perturbed", perturbed]
        code, rep = run(capsys, args)
        assert code == 0
        assert rep["status"] == status
        assert rep["point_gap_truncation_in_essential"] == pytest.approx(atom)

    def test_toeplitz_hull(self, tmp_path, capsys):
        samples = write(
            tmp_path / "s.json",
            [
                [np.cos(a), np.sin(a)]
                for a in np.linspace(0, 2 * np.pi, 17)[:-1]
            ],
        )
        code, rep = run(capsys, ["toeplitz", "--samples", samples])
        assert code == 0
        assert len(rep["extremes"]) == 16

    def test_batch_runs_in_order(self, tmp_path, capsys):
        jobs = write(
            tmp_path / "jobs.json",
            [
                {
                    "command": "member",
                    "inputs": {
                        "kind": "kmax",
                        "tuple": pauli_tuple(),
                        "body": SQUARE_BODY,
                    },
                },
                {
                    "command": "extreme",
                    "inputs": {
                        "kind": "simplex",
                        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    },
                },
            ],
        )
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 0
        assert [j["status"] for j in rep["jobs"]] == ["In", "Simplex"]

    def test_batch_reports_its_wall_time(self, tmp_path, capsys):
        jobs = write(
            tmp_path / "jobs.json",
            [
                {
                    "command": "member",
                    "inputs": {
                        "kind": "kmin",
                        "tuple": pauli_tuple(),
                        "body": SQUARE_BODY,
                    },
                },
            ],
        )
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 0
        assert rep["wall_time_s"] > 0


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert cli.main(["frobnicate"]) == 64

    def test_missing_body_is_usage(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        assert cli.main(["member", "--kind", "kmin", "--tuple", t]) == 64

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        t = str(bad)
        code = cli.main(["jnr", "--tuple", t])
        assert code == 65
        out = capsys.readouterr().out
        # written by dump_report, as every report is
        assert out.startswith('{\n  "error": "')
        assert json.loads(out)["status"] == "DataError"

    def test_over_budget_is_data_error_with_the_estimate(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(linalg, "MEMORY_BUDGET", 1 << 10)
        t = write(tmp_path / "t.json", pauli_tuple(0.5))
        code, rep = run(
            capsys, ["member", "--kind", "ucp", "--tuple", t, "--range-of", t]
        )
        assert code == 65
        assert rep["status"] == "DataError"
        assert rep["error"].startswith("TooLarge: the Choi variable needs about ")
        assert "MiB" in rep["error"]

    def test_wrong_schema_is_data_error(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", {"mats": "nope"})
        assert cli.main(["jnr", "--tuple", t]) == 65

    def test_hermitian_flag_must_be_a_json_boolean(self, tmp_path, capsys):
        # the string "false" is not the boolean false: it used to read as
        # true and answer In, where false itself is NonHermitianInput
        b = write(tmp_path / "b.json", SQUARE_BODY)
        argv = ["member", "--kind", "kmin", "--body", b, "--tuple"]
        for flag, error in [("false", "SchemaError"), (False, "NonHermitianInput")]:
            t = write(tmp_path / "t.json", {**pauli_tuple(0.5), "hermitian": flag})
            code, rep = run(capsys, [*argv, t])
            assert code == 65
            assert rep["status"] == "DataError"
            assert rep["error"].startswith(f"{error}: ")

    @pytest.mark.parametrize("entry", [True, [True, 0.0], [0.5, False]])
    def test_a_boolean_is_no_matrix_entry(self, tmp_path, capsys, entry):
        t = write(tmp_path / "t.json", {"mats": [[[entry]]]})
        code, rep = run(capsys, ["jnr", "--tuple", t])
        assert code == 65
        assert rep["error"].startswith("SchemaError: expected a real or [re, im] pair")

    @pytest.mark.parametrize(
        "body, flags",
        [
            (SQUARE_BODY, ["--kind", "kmax", "--tol", "-1"]),
            (SQUARE_BODY, ["--kind", "kmin", "--tol", "nan"]),
            (SQUARE_BODY, ["--kind", "kmin", "--max-iter", "-5"]),
        ],
        ids=["negative-tol", "nan-tol", "negative-max-iter"],
    )
    def test_invalid_tol_or_grid_is_data_error(self, tmp_path, capsys, body, flags):
        t = write(tmp_path / "t.json", pauli_tuple(0.3))
        b = write(tmp_path / "b.json", body)
        code, rep = run(capsys, ["member", "--tuple", t, "--body", b, *flags])
        assert code == 65
        assert rep["status"] == "DataError"

    def test_strict_unknown_is_70(self, tmp_path, capsys, monkeypatch):
        def fake_ucp(x, a, tol=1e-7, max_iter=50000):
            return MembershipResult(MembershipStatus.UNKNOWN, 0.0)

        monkeypatch.setattr(cli, "ucp_member", fake_ucp)
        x = write(
            tmp_path / "x.json",
            {"hermitian": True, "mats": [[[1.0, 0.0], [0.0, -1.0]]]},
        )
        a = write(tmp_path / "a.json", {"hermitian": True, "mats": [[[0.3]]]})
        args = ["member", "--kind", "ucp", "--tuple", a, "--range-of", x]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args + ["--strict"]) == 70

    def test_strict_unknown_equal_is_70(self, tmp_path, capsys, monkeypatch):
        # only the first defining solve is left undecided
        calls = []

        def fake_ucp(x, a, tol=1e-7, max_iter=50000):
            status = MembershipStatus.IN if calls else MembershipStatus.UNKNOWN
            calls.append(status)
            return MembershipResult(status, 0.0)

        monkeypatch.setattr(ranges, "ucp_member", fake_ucp)
        t = write(tmp_path / "t.json", pauli_tuple())
        args = ["equal", "--x", t, "--y", t]
        code, rep = run(capsys, args)
        assert code == 0
        assert rep["status"] == "Unequal"
        assert rep["y_in_range_x"] == "Unknown"
        calls.clear()
        assert cli.main(args + ["--strict"]) == 70

    def test_batch_propagates_worst_code(self, tmp_path, capsys):
        jobs = write(
            tmp_path / "jobs.json",
            [
                {
                    "command": "extreme",
                    "inputs": {
                        "kind": "simplex",
                        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    },
                },
                {"command": "jnr", "inputs": {"tuple": {"mats": "nope"}}},
            ],
        )
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 65
        assert rep["status"] == "Error"
        assert rep["jobs"][1]["status"] == "DataError"

    def test_batch_unknown_option_is_usage(self, tmp_path, capsys):
        simplex = {
            "command": "extreme",
            "inputs": {"kind": "simplex", "points": [[0.0, 0.0], [1.0, 0.0]]},
        }
        jobs = write(
            tmp_path / "jobs.json",
            [simplex, {**simplex, "options": {"tol": 1e-9, "level": 2}}],
        )
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 64
        assert [j["status"] for j in rep["jobs"]] == ["Simplex", "UsageError"]
        assert "'level'" in rep["jobs"][1]["error"]

    def test_verify_suite_failure_exits_1(self, capsys, monkeypatch):
        def planted_failure():
            return acceptance.CriterionResult("planted failure", False, "no", 0.0)

        monkeypatch.setattr(acceptance, "REGISTRY", (planted_failure,))
        code, rep = run(capsys, ["verify-suite"])
        assert code == 1
        assert rep["status"] == "Fail"
        assert [c["name"] for c in rep["criteria"]] == ["planted failure"]

    def test_batch_unknown_commands_are_usage(self, tmp_path, capsys):
        jobs = write(
            tmp_path / "jobs.json", [{"command": "batch"}, {"command": "frobnicate"}]
        )
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 64
        assert [j["status"] for j in rep["jobs"]] == ["UsageError", "UsageError"]
        assert rep["jobs"][0]["error"] == "unknown command 'batch'"
        assert rep["jobs"][1]["error"] == "unknown command 'frobnicate'"

    @pytest.mark.parametrize(
        "entry",
        [{"options": "tol"}, {"options": [1e-9]}, {"inputs": [[0.0, 0.0]]}],
        ids=["options-string", "options-list", "inputs-list"],
    )
    def test_batch_non_object_entry_is_data_error(self, tmp_path, capsys, entry):
        jobs = write(tmp_path / "jobs.json", [{"command": "extreme", **entry}])
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 65
        assert rep["status"] == "DataError"


DISC_DOC = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
BOX_DOC = {"type": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
HALF_PAULI = {"hermitian": True, "n": 2, "d": 2, "mats": [
    [[0.0, 0.5], [0.5, 0.0]], [[0.5, 0.0], [0.0, [-0.5, 0.0]]],
]}
POINTS_DOC = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
DIAG_DOC = {"d": 1, "atoms": [[[1.0], None], [[3.0], 2]],
            "sequences": [[[0.0], [[1.0], [0.5]]]]}
SIMPLEX_JOB = {
    "command": "extreme", "inputs": {"kind": "simplex", "points": POINTS_DOC},
}


def execute_code(command, inputs, options):
    """``execute``'s exit code, or the code ``batch`` gives what it raises;
    anything else it raises propagates."""
    try:
        return cli.execute(cli.JobSpec(command, inputs, options))[1]
    except cli.UsageError:
        return cli.EX_USAGE
    except (cli.SchemaError, MConvexError, ValueError):
        return cli.EX_DATAERR


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "command, inputs, options",
        [
            ("jnr", {"tuple": {"mats": 3}}, {}),
            ("jnr", {"tuple": {**pauli_tuple(), "n": [1]}}, {}),
            ("equal", {"x": pauli_tuple(), "y": pauli_tuple()}, {"tol": [1]}),
            ("jnr", {"tuple": pauli_tuple()}, {"grid": [1]}),
            ("extreme", {"kind": "points", "points": {"a": 1}}, {}),
            ("jnr", {"tuple": {"mats": [[[1.0, 0.0], [0.0]]]}}, {}),
            ("choili", {"y": [[1.0, 0.0], [0.0]]}, {}),
            ("toeplitz", {"samples": [1.0, [0.0, 1.0], [1.0, 2.0, 3.0]]}, {}),
            ("sw", {"kind": "ess", "diag": {"d": 1, "atoms": [[[1.0], 2, 3]]}}, {}),
            ("model", {"kind": "blockdiag", "candidates": {"mats": []}}, {}),
            ("jnr", {"tuple": {"mats": [[[10**400]]]}}, {}),
        ],
        ids=["mats-number", "n-list", "tol-list", "grid-list", "points-object",
             "ragged-rows", "ragged-y", "three-part-sample", "atom-triple",
             "candidates-object", "huge-integer"],
    )
    def test_a_wrong_node_is_a_schema_error(self, command, inputs, options):
        # most of these let a TypeError, an OverflowError or a bare numpy
        # ValueError through
        with pytest.raises(cli.SchemaError):
            cli.execute(cli.JobSpec(command, inputs, options))

    def test_a_tuple_whose_mats_is_no_list_exits_65(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", {"mats": 3})
        code, rep = run(capsys, ["jnr", "--tuple", t])
        assert code == 65
        assert rep["error"] == 'SchemaError: "mats" must be an array, got 3'

    @pytest.mark.parametrize(
        "command, inputs, options",
        [
            ("member", {"body": {**DISC_DOC, "radius": True}}, {}),
            ("member", {"body": {"type": "box", "lo": [False, False],
                                 "hi": [True, True]}}, {}),
            ("member", {"body": {**DISC_DOC, "center": [0.0, False]}}, {}),
            ("member", {"body": {"type": "polytope", "vertices": [
                [1.0, 1.0], [True, -1.0], [-1.0, 0.0]]}}, {}),
            ("member", {"body": {"type": "sampled", "directions": [[1.0, 0.0]],
                                 "support_values": [True]}}, {}),
            ("member", {"tuple": {**pauli_tuple(), "n": True}}, {}),
            ("member", {"tuple": {**pauli_tuple(), "d": True}}, {}),
            ("sw", {"diag": {**DIAG_DOC, "d": True}}, {}),
            ("sw", {"diag": {**DIAG_DOC, "atoms": [[[True], 2]]}}, {}),
            ("sw", {"diag": {**DIAG_DOC, "atoms": [[[1.0], True]]}}, {}),
            ("sw", {"diag": {**DIAG_DOC, "sequences": [[[0.0], [[1.0], [True]]]]}}, {}),
            ("sw", {"diag": {**DIAG_DOC, "sequences": [[[False], [[1.0]]]]}}, {}),
            ("member", {}, {"tol": True}),
            ("member", {}, {"max_iter": True}),
            ("jnr", {}, {"grid": True}),
            ("extreme", {"kind": "points", "points": [[0.0, 1.0], [True, 0.0]]}, {}),
        ],
        ids=["disc-radius", "box-bounds", "disc-center", "polytope-vertex",
             "sampled-support", "tuple-n", "tuple-d", "diag-d", "diag-point",
             "diag-multiplicity", "diag-prefix", "diag-limit", "option-tol",
             "option-max-iter", "option-grid", "points"],
    )
    def test_a_boolean_is_never_a_number(self, command, inputs, options):
        # a disc of radius true read as radius 1 and answered In
        defaults = {"member": {"kind": "kmin", "tuple": pauli_tuple(0.5),
                               "body": DISC_DOC},
                    "sw": {"kind": "ess", "diag": DIAG_DOC},
                    "jnr": {"tuple": pauli_tuple()}}
        inputs = {**defaults.get(command, {}), **inputs}
        with pytest.raises(cli.SchemaError, match="got .*(True|False)"):
            cli.execute(cli.JobSpec(command, inputs, options))

    @pytest.mark.parametrize("svg", [1, True, ["a.svg"]])
    def test_a_batch_svg_that_is_no_string_is_a_data_error(
        self, tmp_path, capsys, svg
    ):
        # an svg of 1 was opened as file descriptor 1: the plot went to
        # stdout, which was then closed, and the batch report was lost
        jnr = {"command": "jnr", "inputs": {"tuple": pauli_tuple()},
               "options": {"svg": svg, "grid": 8}}
        jobs = write(tmp_path / "jobs.json", [jnr, SIMPLEX_JOB])
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 65
        assert [j["status"] for j in rep["jobs"]] == ["DataError", "Simplex"]
        assert rep["jobs"][0]["error"].startswith("SchemaError: option 'svg'")

    @pytest.mark.parametrize(
        "entry", [{"command": ["jnr"]}, {"command": 3}, {"inputs": {}}],
        ids=["list", "number", "missing"],
    )
    def test_a_batch_command_that_is_no_string_is_that_jobs_error(
        self, tmp_path, capsys, entry
    ):
        # a list command made the command lookup raise TypeError, which
        # took the whole batch down with a traceback
        jobs = write(tmp_path / "jobs.json", [entry, SIMPLEX_JOB])
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 65
        assert [j["status"] for j in rep["jobs"]] == ["DataError", "Simplex"]
        assert "command must be a string" in rep["jobs"][0]["error"]

    def test_a_batch_hull_that_qhull_refuses_is_that_jobs_error(self, tmp_path, capsys):
        # finite but huge points: QhullError escaped the hull as a
        # traceback (exit 1); it is that job's BadProblem, and the next
        # job still runs
        huge = {"command": "extreme", "inputs": {
            "kind": "points", "points": [[0.0, 1e308], [1e308, 0.0], [0.0, 0.0]]}}
        jobs = write(tmp_path / "jobs.json", [huge, SIMPLEX_JOB])
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 65
        assert [j["status"] for j in rep["jobs"]] == ["DataError", "Simplex"]
        assert rep["jobs"][0]["error"].startswith(
            "BadProblem: Qhull cannot take the hull of these points (QH"
        )
        points = write(tmp_path / "points.json", huge["inputs"]["points"])
        assert cli.main(["extreme", "--kind", "points", "--points", points]) == 65


# one small valid job of each command and kind but verify-suite (which
# reads no input); each runs in a few milliseconds
VALID_JOBS = [
    ("jnr", {"tuple": HALF_PAULI}, {"grid": 8}),
    ("member", {"kind": "kmin", "tuple": HALF_PAULI, "body": DISC_DOC},
     {"tol": 1e-6, "max_iter": 2000}),
    ("member", {"kind": "kmax", "tuple": HALF_PAULI, "body": BOX_DOC}, {}),
    ("member", {"kind": "ucp", "tuple": {"mats": [[[0.5]]]},
                "range_of": {"mats": [[[1.0, 0.0], [0.0, -1.0]]]}}, {"max_iter": 2000}),
    ("equal", {"x": {"mats": [[[1.0]]]}, "y": {"mats": [[[1.0]]]}}, {}),
    ("theta", {"body": BOX_DOC, "tuple": {"mats": [[[0.5]], [[0.5]]]}}, {"tol": 0.5}),
    ("extreme", {"kind": "points", "points": POINTS_DOC}, {"tol": 1e-9}),
    ("extreme", {"kind": "simplex", "points": POINTS_DOC}, {}),
    ("extreme", {"kind": "free-sym", "tuple": HALF_PAULI}, {}),
    ("extreme", {"kind": "free-uni", "tuple": {
        "hermitian": False, "mats": [[[0.0, 1.0], [0.0, 0.0]]]}}, {}),
    ("choili", {"y": [[0.0, 1.0], [0.0, 0.0]]}, {}),
    ("model", {"kind": "normal", "tuple": {"mats": [[[1.0, 0.0], [0.0, 0.0]]]}}, {}),
    ("model", {"kind": "blockdiag", "candidates": [HALF_PAULI]}, {}),
    ("sw", {"kind": "ess", "diag": DIAG_DOC}, {}),
    ("sw", {"kind": "perturb", "diag": DIAG_DOC}, {}),
    ("sw", {"kind": "verify", "diag": DIAG_DOC,
            "perturbed": {"d": 1, "atoms": [[[0.0], None]]}}, {}),
    ("toeplitz", {"samples": [[1.0, 0.0], [0.0, 1.0], -1.0, [0.0, -1.0]]}, {}),
]


@pytest.mark.parametrize("command, inputs, options", VALID_JOBS)
def test_the_fuzzed_jobs_are_valid(command, inputs, options):
    assert execute_code(command, inputs, options) == 0


def _paths(node, path=()):
    """The path of every node of ``node``, itself included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutated(doc, path, mutation):
    """A copy of ``doc`` with the node at ``path`` (not the root) changed."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if mutation == "drop":
        del parent[key]
    elif mutation == "extra" and isinstance(node, dict):
        node["extra"] = 1.0
    elif mutation == "nest":
        parent[key] = [node]
    elif mutation == "ragged" and isinstance(node, list) and node and all(
        isinstance(row, list) and row for row in node
    ):
        node[-1] = node[-1][:-1]
    else:
        parent[key] = {"empty": [], "nan": float("nan"), "bool": True}.get(
            mutation, mutation
        )
    return doc


#: a wrong type, an empty list, a ragged row, NaN, a boolean, a missing or
#: an extra key, one more level of nesting; "ragged" and "extra" fall back
#: to the other values where the node has no rows or keys
MUTATIONS = ["x", 2.5, 3, None, "empty", "ragged", "nan", "bool", "drop", "extra",
             "nest"]


@st.composite
def mutated_jobs(draw, command_too=False):
    command, inputs, options = draw(st.sampled_from(VALID_JOBS))
    doc = {"command": command, "inputs": inputs, "options": options}
    paths = [p for p in _paths(doc) if len(p) > 1 or p == ("command",) and command_too]
    path = draw(st.sampled_from(paths))
    return _mutated(doc, path, draw(st.sampled_from(MUTATIONS)))


FUZZ = settings(
    derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(FUZZ, max_examples=600)
@given(mutated_jobs())
def test_a_mutated_job_exits_0_64_or_65(doc):
    # execute raises nothing but a usage or data error, whatever node of
    # a valid job is broken
    code = execute_code(doc["command"], doc["inputs"], doc["options"])
    assert code in (0, 64, 65)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(FUZZ, max_examples=150)
@given(mutated_jobs(command_too=True))
def test_a_batch_reports_every_mutated_job(tmp_path, capsys, doc):
    jobs = write(tmp_path / "jobs.json", [doc, SIMPLEX_JOB])
    code, rep = run(capsys, ["batch", "--jobs", jobs])
    assert code in (0, 64, 65)
    assert len(rep["jobs"]) == 2 and rep["jobs"][1]["status"] == "Simplex"


class TestReports:
    def test_deterministic_given_seed(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        args = ["equal", "--x", t, "--y", t]
        _, first = run(capsys, args)
        _, second = run(capsys, args)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    def test_json_file_matches_stdout(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple(1.0 / ROOT2))
        b = write(tmp_path / "b.json", SQUARE_BODY)
        out = tmp_path / "report.json"
        code, rep = run(
            capsys,
            [
                "member", "--kind", "kmin", "--tuple", t, "--body", b,
                "--json", str(out),
            ],
        )
        assert code == 0
        assert json.loads(out.read_text()) == rep

    def test_envelope_fields(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        _, rep = run(capsys, ["jnr", "--tuple", t, "--grid", "16"])
        assert rep["command"] == "jnr"
        assert "seed" not in rep
        assert rep["tolerances"] == {"grid": 16}

    @pytest.mark.parametrize("kind", ["kmin", "kmax"])
    def test_member_takes_no_grid(self, tmp_path, capsys, kind):
        # every disc query is decided from ||T||, with no polygon: member
        # reads no --grid, from the command line or in a batch job
        disc = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
        # (Re T, Im T) for T = [[0, 2], [0, 0]]
        nilpotent = {"hermitian": True, "mats": [
            [[0.0, 1.0], [1.0, 0.0]], [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]],
        ]}
        inputs = {"kind": kind, "tuple": nilpotent, "body": disc}
        t = write(tmp_path / "t.json", nilpotent)
        b = write(tmp_path / "b.json", disc)
        args = ["member", "--kind", kind, "--tuple", t, "--body", b]
        code = cli.main([*args, "--grid", "3"])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "--grid" in captured.err
        jobs = write(tmp_path / "jobs.json", [
            {"command": "member", "inputs": inputs, "options": {"grid": 3}},
        ])
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 64 and rep["jobs"][0]["status"] == "UsageError"
        # without the flag the nilpotent pair, at ||T|| = 2, is kmin Out
        code, rep = run(capsys, args)
        assert code == 0
        assert rep["status"] == ("Out" if kind == "kmin" else "In")

    def test_a_flag_the_command_does_not_read_is_usage(self, tmp_path, capsys):
        # jnr reads only the grid (and --svg): a --tol would be dropped
        t = write(tmp_path / "t.json", pauli_tuple())
        code = cli.main(["jnr", "--tuple", t, "--grid", "16", "--tol", "0.1"])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err

    def test_batch_option_the_command_does_not_read_is_usage(self, tmp_path, capsys):
        jnr = {"command": "jnr", "inputs": {"tuple": pauli_tuple()}}
        jobs = write(
            tmp_path / "jobs.json",
            [{**jnr, "options": {"grid": 8}}, {**jnr, "options": {"tol": 0.1}}],
        )
        code, rep = run(capsys, ["batch", "--jobs", jobs])
        assert code == 64
        assert [j["status"] for j in rep["jobs"]] == ["ok", "UsageError"]
        assert "'tol'" in rep["jobs"][1]["error"]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_each_command_takes_the_flags_of_its_row(self, command):
        sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
        dests = {a.dest for a in sub._actions} - {"help", "kind"}
        dests = {d for d in dests if not d.endswith("_path")}
        assert dests == {*cli._COMMANDS[command].options, "json", "strict"}


@pytest.mark.parametrize("shape", [(), (3,), (2, 2), (3, 2, 2), "transposed"])
def test_complex_arrays_encode_entrywise_at_any_rank(shape):
    # an Out certificate's dual is a stack of complex matrices: every entry
    # is written as [re, im], whatever the rank or memory layout
    from mconvex._jsonio import encode_complex

    def entrywise(a):
        return encode_complex(complex(a)) if np.ndim(a) == 0 else [
            entrywise(x) for x in a
        ]

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rng = np.random.default_rng(0)
    if shape == "transposed":
        a = draw((3, 4, 2)).transpose(0, 2, 1)
        assert not a.flags.c_contiguous
    else:
        a = draw(shape)
    assert to_jsonable(a) == entrywise(a)


def test_numpy_bools_are_json_booleans():
    report = {"flag": np.True_, "flags": [np.False_, True]}
    assert to_jsonable(report) == {"flag": True, "flags": [False, True]}
    assert _strict_loads(_dumped(report)) == {"flag": True, "flags": [False, True]}


def _strict_loads(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _dumped(report):
    buf = io.StringIO()
    cli.dump_report(report, buf)
    return buf.getvalue()


def test_non_finite_entries_are_written_as_strings():
    inf, nan = float("inf"), float("nan")
    report = {
        "complex": np.array([complex(inf, 0.0), 1 + 2j]),
        "complex_scalar": complex(0.0, -inf),
        "numpy_complex": np.complex64(complex(nan, 1.0)),
        "real": np.array([[nan, 1.0], [2.0, -inf]]),
        "scalar": inf,
    }
    assert _strict_loads(_dumped(report)) == {
        "complex": [["inf", 0.0], [1.0, 2.0]],
        "complex_scalar": [0.0, "-inf"],
        "numpy_complex": ["nan", 1.0],
        "real": [["nan", 1.0], [2.0, "-inf"]],
        "scalar": "inf",
    }


def test_report_layout():
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    report = {
        "status": "In",
        "certificate": {"dual": stack, "pencil": [stack[0].T, stack[1]]},
        "jobs": [{"b": 1, "a": [1.5, 2.5]}, {"empty": {}, "none": []}],
        "transposed": stack.transpose(2, 0, 1),
        "margin": float("nan"),
        "trace": [(0.5, 1.0), (0.75, 1.0)],
    }
    text = _dumped(report)
    assert _strict_loads(text) == to_jsonable(report)
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert lines[1] == '  "certificate": {'
    # objects one member per line, keys sorted, two spaces per level
    assert '    {\n      "a": [1.5, 2.5],\n      "b": 1\n    },' in text
    assert '      "empty": {},\n      "none": []\n' in text
    # every array of numbers on one line
    doc = to_jsonable(report)
    for path in (("certificate", "dual"), ("certificate", "pencil"),
                 ("margin",), ("trace",), ("transposed",)):
        (line,) = [ln for ln in lines if ln.lstrip().startswith(f'"{path[-1]}": ')]
        value = doc
        for key in path:
            value = value[key]
        assert json.loads(line.split(": ", 1)[1].rstrip(",")) == value


def test_member_disc_report_is_compact():
    # kmin over the disc: the In certificate is the unitary dilation's
    # 2n = 8 complex 4 x 4 blocks, written as one stack on one line
    rng = np.random.default_rng(2)
    mats = []
    for _ in range(2):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g + g.conj().T
        mats.append(0.2 * h / np.linalg.norm(h, 2))
    tuple_doc = {
        "hermitian": True,
        "mats": [[[[v.real, v.imag] for v in row] for row in m] for m in mats],
    }
    job = cli.JobSpec(
        "member",
        {
            "kind": "kmin",
            "tuple": tuple_doc,
            "body": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        },
        {},
    )
    report, code = cli.execute(job)
    assert code == 0
    text = _dumped(report)
    rep = _strict_loads(text)
    assert rep["status"] == "In"
    assert np.shape(rep["certificate"]["h"]) == (8, 4, 4, 2)
    assert len(text.splitlines()) < 50
