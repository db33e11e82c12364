import json

import numpy as np
import pytest

import mconvex.cli as cli
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
            ["equal", "--x", t, "--y", t, "--level", "1", "--grid", "5"],
        )
        assert code == 0
        assert rep["status"] == "Equal"

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
        assert rep["isometry_check"]["max_gap"] <= 1e-9

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
            capsys, ["sw", "--kind", "verify", "--diag", diag, "--grid", "10"]
        )
        assert code == 0
        assert rep["status"] == "Equal"

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
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "DataError"

    def test_wrong_schema_is_data_error(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", {"mats": "nope"})
        assert cli.main(["jnr", "--tuple", t]) == 65

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


class TestReports:
    def test_deterministic_given_seed(self, tmp_path, capsys):
        t = write(tmp_path / "t.json", pauli_tuple())
        args = ["equal", "--x", t, "--y", t, "--level", "2", "--seed", "7"]
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
        _, rep = run(capsys, ["jnr", "--tuple", t, "--grid", "16", "--tol", "0.1"])
        assert rep["command"] == "jnr"
        assert rep["seed"] == 0
        assert rep["tolerances"] == {"tol": 0.1, "grid": 16}


@pytest.mark.parametrize("shape", [(), (3,), (2, 2), (3, 2, 2)])
def test_complex_arrays_encode_entrywise_at_any_rank(shape):
    # an Out certificate's dual is a stack of complex matrices: every entry
    # is written as [re, im], whatever the rank
    from mconvex._jsonio import encode_complex, to_jsonable

    def entrywise(a):
        return encode_complex(complex(a)) if np.ndim(a) == 0 else [
            entrywise(x) for x in a
        ]

    rng = np.random.default_rng(0)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert to_jsonable(a) == entrywise(a)
