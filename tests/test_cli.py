"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spheredim import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "spheredim.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


@pytest.fixture(scope="module")
def cube3(tmp_path_factory):
    path = tmp_path_factory.mktemp("cls") / "cube3.cls"
    out = run_cli("family", "cube", "3", "-o", str(path))
    assert out.returncode == 0
    return str(path)


@pytest.fixture(scope="module")
def threshold3(tmp_path_factory):
    path = tmp_path_factory.mktemp("cls") / "t3.cls"
    out = run_cli("family", "threshold", "3", "-o", str(path))
    assert out.returncode == 0
    return str(path)


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "spheredim", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )

    def test_runs_the_cli(self):
        out = self.run_module("family", "threshold", "2")
        assert out.returncode == 0
        assert out.stdout == "--\n+-\n++\n"

    def test_exit_code_passes_through(self):
        out = self.run_module("family", "cube", "0")
        assert out.returncode == 1
        assert out.stderr.startswith("usage error: ")


class TestFamily:
    def test_threshold_file_contents(self, threshold3):
        rows = Path(threshold3).read_text().splitlines()
        assert rows == ["---", "+--", "++-", "+++"]

    def test_power_flag(self):
        out = run_cli("family", "universal", "2", "-m", "2")
        assert out.returncode == 0
        rows = out.stdout.splitlines()
        assert len(rows) == 4
        assert all(len(r) == 8 for r in rows)

    def test_nonpositive_n_is_usage_error(self):
        out = run_cli("family", "cube", "0")
        assert out.returncode == 1
        assert out.stderr.startswith("usage error:")
        assert "Traceback" not in out.stderr

    def test_nonpositive_power_is_usage_error(self):
        out = run_cli("family", "cube", "2", "-m", "0")
        assert out.returncode == 1
        assert out.stderr.startswith("usage error:")
        assert out.stdout == ""

    def test_unknown_family_is_usage_error(self):
        out = run_cli("family", "nonsense", "3")
        assert out.returncode == 1
        assert out.stderr


class TestDims:
    def test_table(self, cube3):
        out = run_cli("dims", cube3)
        assert out.returncode == 0
        assert "VC     3" in out.stdout
        assert "VC*    1" in out.stdout

    def test_json(self, cube3):
        out = run_cli("--json", "dims", cube3)
        data = json.loads(out.stdout)
        assert data["payload"] == {
            "vc": 3,
            "vc_dual": 1,
            "vc_antipodal": 3,
            "vc_dual_antipodal": 2,
        }


class TestReport:
    def test_cube_3_report(self, cube3):
        out = run_cli("--json", "report", cube3)
        assert out.returncode == 0
        payload = json.loads(out.stdout)["payload"]
        assert payload["dimensions"]["vc"] == 3
        assert payload["dimensions"]["vc_dual"] == 1
        assert payload["sd"]["lower"] == 2
        assert payload["sd"]["upper"] == 2
        assert payload["extremal"]["extremal"] is True
        assert payload["lr_floor"] == 3

    def test_lr_floor_omitted_for_low_sd(self, threshold3):
        out = run_cli("--json", "report", threshold3)
        payload = json.loads(out.stdout)["payload"]
        assert payload["sd"] == payload["sd"] and payload["lr_floor"] is None


# `complex` stdout without --antipodal, as literal payloads so that any
# change to the export shows: the realizable complex, whose involution is its
# label flip, and its subdivision, whose chain labels have no flip
FIGURE_CLASS = "---\n-+-\n++-\n+--\n--+\n"
FIGURE_COMPLEX = {
    "involution": [1, 0, 3, 2, 5, 4],
    "maximal_simplices": [[0, 2, 4], [0, 2, 5], [0, 3, 4], [1, 2, 4], [1, 3, 4]],
    "vertices": ["0-", "0+", "1-", "1+", "2-", "2+"],
}
FIGURE_COMPLEX_SUBDIVIDED = {
    "involution": [None] * 21,
    "maximal_simplices": [
        [0, 3, 12], [0, 3, 20], [0, 6, 15], [0, 9, 12], [0, 9, 15], [0, 18, 20],
        [1, 4, 13], [1, 7, 16], [1, 10, 13], [1, 10, 16], [2, 3, 12], [2, 3, 20],
        [2, 4, 13], [2, 11, 12], [2, 11, 13], [2, 19, 20], [5, 6, 15], [5, 7, 16],
        [5, 14, 15], [5, 14, 16], [8, 9, 12], [8, 9, 15], [8, 10, 13], [8, 10, 16],
        [8, 11, 12], [8, 11, 13], [8, 14, 15], [8, 14, 16], [17, 18, 20], [17, 19, 20],
    ],
    "vertices": [
        "[0-]", "[0+]", "[1-]", "[0-|1-]", "[0+|1-]", "[1+]", "[0-|1+]", "[0+|1+]",
        "[2-]", "[0-|2-]", "[0+|2-]", "[1-|2-]", "[0-|1-|2-]", "[0+|1-|2-]", "[1+|2-]",
        "[0-|1+|2-]", "[0+|1+|2-]", "[2+]", "[0-|2+]", "[1-|2+]", "[0-|1-|2+]",
    ],
}
ONE_HYPOTHESIS_COMPLEX = {
    "involution": [None, None, None],
    "maximal_simplices": [[0, 1, 2]],
    "vertices": ["0-", "1+", "2-"],
}


class TestComplex:
    @pytest.mark.parametrize(
        "rows, flags, payload",
        [
            (FIGURE_CLASS, (), FIGURE_COMPLEX),
            (FIGURE_CLASS, ("--barycentric", "1"), FIGURE_COMPLEX_SUBDIVIDED),
            ("-+-\n", (), ONE_HYPOTHESIS_COMPLEX),
        ],
        ids=["figure", "figure-barycentric", "one-hypothesis"],
    )
    def test_realizable_export_bytes(self, tmp_path, rows, flags, payload):
        path = tmp_path / "k.cls"
        path.write_text(rows)
        out = run_cli("complex", str(path), *flags)
        assert out.returncode == 0
        envelope = {"kind": "complex", "payload": payload, "schema_version": "1"}
        assert out.stdout == json.dumps(envelope, sort_keys=True, indent=2) + "\n"

    def test_antipodal_export(self, cube3):
        out = run_cli("complex", cube3, "--antipodal")
        data = json.loads(out.stdout)
        assert data["kind"] == "complex"
        assert len(data["payload"]["vertices"]) == 6
        assert all(j is not None for j in data["payload"]["involution"])

    def test_barycentric_export(self, threshold3):
        out = run_cli("complex", threshold3, "--barycentric", "1")
        data = json.loads(out.stdout)
        assert data["kind"] == "complex"


class TestWitness:
    def test_auto_method(self, cube3):
        out = run_cli("witness", cube3)
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["payload"]["template"] == {"kind": "crosspolytope", "n": 2}
        assert data["payload"]["transcript"][-1] == "embedding: ok"

    def test_barycentric_method(self, tmp_path):
        u3 = tmp_path / "u3.cls"
        run_cli("family", "universal", "3", "-o", str(u3))
        out = run_cli("witness", str(u3), "--method", "barycentric")
        data = json.loads(out.stdout)
        assert data["payload"]["template"] == {"kind": "barycentric_boundary", "n": 1}

    def test_singleton_has_no_witness(self, tmp_path):
        p = tmp_path / "single.cls"
        p.write_text("-+-\n")
        out = run_cli("witness", str(p))
        assert out.returncode == 2


class TestSd:
    def test_interval(self, threshold3):
        out = run_cli("sd", threshold3)
        assert out.returncode == 0
        assert "sd interval [0, 0]" in out.stdout


class TestExtremal:
    @staticmethod
    def extremal_of_cube(n, tmp_path):
        path = tmp_path / f"cube{n}.cls"
        assert run_cli("family", "cube", str(n), "-o", str(path)).returncode == 0
        return run_cli("extremal", str(path))

    def test_cube_5_face_counts(self, tmp_path):
        out = self.extremal_of_cube(5, tmp_path)
        assert out.returncode == 0
        assert "barycentric face counts (243, 2882, 10800, 17760, 13440, 3840)\n" in out.stdout

    def test_cube_6_finishes(self, tmp_path):
        out = self.extremal_of_cube(6, tmp_path)
        assert out.returncode == 0
        assert (
            "barycentric face counts (729, 14896, 87128, 224640, 289920, 184320, 46080)\n"
            in out.stdout
        )

    def test_cube_7_exceeds_face_cap(self, tmp_path):
        # 17,121,893 chains of cubes, over the 10**7 face cap
        out = self.extremal_of_cube(7, tmp_path)
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == "budget exceeded: face enumeration cap exceeded\n"


class TestClassify:
    def test_threshold(self, threshold3):
        out = run_cli("--json", "classify", threshold3)
        payload = json.loads(out.stdout)["payload"]
        assert payload["bucket"] == "threshold_like"
        assert payload["order"] == [0, 1, 2]

    def test_hexagon_bucket(self, tmp_path):
        p = tmp_path / "three.cls"
        p.write_text("+--\n-+-\n--+\n")
        out = run_cli("--json", "classify", str(p))
        payload = json.loads(out.stdout)["payload"]
        assert payload["bucket"] == "vc1_non_threshold"
        assert len(payload["hexagon"]) == 6


class TestProduct:
    def test_product_of_files(self, tmp_path):
        a = tmp_path / "a.cls"
        a.write_text("-\n+\n")
        out = run_cli("product", str(a), str(a))
        assert out.returncode == 0
        assert out.stdout.splitlines() == ["--", "-+", "+-", "++"]


class TestErrors:
    def test_missing_file(self):
        out = run_cli("report", "/nonexistent/file.cls")
        assert out.returncode == 1

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.cls"
        p.write_text("+-\n+\n")
        out = run_cli("report", str(p))
        assert out.returncode == 1

    def test_cap_exceeded(self, cube3):
        out = run_cli("--max-hypotheses", "4", "report", cube3)
        assert out.returncode == 3

    @pytest.mark.parametrize("flag", [
        "--barycentric", "--collapse-budget", "--max-domain", "--max-hypotheses",
    ])
    def test_negative_count_is_usage_error(self, cube3, flag):
        argv = {
            "--barycentric": ("complex", flag, "-1"),
            "--collapse-budget": (flag, "-1", "extremal"),
            "--max-domain": (flag, "-1", "dims"),
            "--max-hypotheses": (flag, "-1", "dims"),
        }[flag]
        out = run_cli(*argv, cube3)
        assert out.returncode == 1
        assert out.stderr == f"usage error: {flag} must be >= 0, got -1\n"
        assert out.stdout == ""

    def test_zero_workers_is_usage_error(self, cube3):
        out = run_cli("--workers", "0", "dims", cube3)
        assert out.returncode == 1
        assert out.stderr == "usage error: --workers must be >= 1, got 0\n"
        assert out.stdout == ""

    @pytest.mark.parametrize("target", ["missing/x", "."])
    def test_unwritable_output_is_usage_error(self, tmp_path, target):
        out = run_cli("family", "cube", "2", "-o", str(tmp_path / target))
        assert out.returncode == 1
        assert out.stderr.startswith(f"usage error: cannot write {tmp_path / target}: ")
        assert out.stdout == ""

    def test_undecodable_class_file_is_input_error(self, tmp_path):
        p = tmp_path / "bad.cls"
        p.write_bytes(b"\xff\xfe+-\n")
        out = run_cli("dims", str(p))
        assert out.returncode == 1
        assert out.stderr.startswith(f"input error: cannot decode {p}: ")
        assert out.stdout == ""

    def test_diagnostics_on_stderr(self, tmp_path):
        p = tmp_path / "bad.cls"
        p.write_text("xx\n")
        out = run_cli("report", str(p))
        assert out.stdout == ""
        assert out.stderr


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, cube3, threshold3):
        commands = [
            ("--json", "report", cube3),
            ("dims", cube3),
            ("--json", "classify", threshold3),
            ("complex", cube3, "--antipodal"),
            ("witness", cube3),
            ("sd", threshold3),
            ("extremal", threshold3),
        ]
        for cmd in commands:
            outputs = set()
            for workers in ("1", "4"):
                for _ in range(2):
                    out = run_cli("--workers", workers, *cmd)
                    assert out.returncode == 0
                    outputs.add(out.stdout)
            assert len(outputs) == 1, cmd


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_carries_between_calls(self, cube3, tmp_path, monkeypatch, capsys):
        out = tmp_path / "witness.json"
        calls = [
            ["dims"],
            ["--json", "dims", cube3],
            ["dims", "--variant", "dual", cube3],
            ["dims", cube3],
            ["witness", cube3, "-o", str(out)],
            ["witness", "--method", "barycentric", cube3],
            ["witness", cube3],
        ]

        def run_all():
            results = []
            for argv in calls:
                out.unlink(missing_ok=True)
                code = cli.main(argv)
                stdout, stderr = capsys.readouterr()
                written = out.read_text() if out.exists() else None
                results.append((argv, code, stdout, stderr, written))
            return results

        shared = run_all()
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = run_all()
        assert shared == fresh
        # the sequence reaches what leaked state would change
        assert shared[0][1] == 1 and shared[0][3].startswith("usage error:")
        assert shared[4][2] == "" and shared[4][4] == shared[6][2] != ""
