"""End-to-end tests for the command-line interface."""

import hashlib
import json
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from spheredim import cli
from spheredim.concepts import ConceptClass, PartialHypothesis, family_class, format_class
from spheredim.spheres import ClassAnalysis

from oracles import flip_string

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
CI_EXTREMAL_FAMILIES = ("subsets_leq 6", "threshold 12", "threshold 16", "cube 7")


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

    @pytest.mark.parametrize("name, n", [("subsets_leq", "40"), ("threshold", "100000")])
    def test_uncapped_size_is_budget_exceeded(self, name, n):
        out = run_cli("family", name, n)
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr.startswith("budget exceeded: ")

    def test_domain_cap_is_checked_before_any_product(self, capsys, monkeypatch):
        argv = ["--max-domain", "100", "family", "universal", "1", "-m"]
        assert cli.main(argv + ["50"]) == 0
        assert capsys.readouterr().out == "-+" * 50 + "\n"

        def refuse(cls, m):
            raise AssertionError(f"power {m} built past the domain cap")

        monkeypatch.setattr(cli, "power_class", refuse)
        assert cli.main(argv + ["51"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "budget exceeded: domain size 102 exceeds --max-domain 100\n"

    def test_universal_18_is_written_in_one_pass(self, tmp_path):
        # 18 rows of 262,144 points; the digest is that of the rows written
        # one character per bit test, which took about 20 s on Python 3.11
        path = tmp_path / "universal18.cls"
        assert cli.main(["family", "universal", "18", "-o", str(path)]) == 0
        data = path.read_bytes()
        assert len(data) == 4_718_610
        assert hashlib.sha256(data).hexdigest() == (
            "cae2a781a086ffa82d6070656c0783be53612b8edd4eb5e9aaa832b6e425ddc7"
        )

    def test_domain_cap_is_checked_before_the_family_is_built(self, capsys, monkeypatch):
        def refuse(name, n):
            raise AssertionError(f"family {name} {n} built past the domain cap")

        monkeypatch.setattr(cli, "family_class", refuse)
        assert cli.main(["--max-domain", "100", "family", "universal", "18"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "budget exceeded: domain size 262144 exceeds --max-domain 100\n"
        # the family caps come first, with their own messages
        assert cli.main(["--max-domain", "1", "family", "threshold", "100000"]) == 3
        assert capsys.readouterr().err == "budget exceeded: threshold cap is d <= 4096\n"

    def test_hypothesis_cap_is_checked_on_the_result(self, capsys):
        argv = ["family", "cube", "2", "-m", "2"]
        assert cli.main(["--max-hypotheses", "16", *argv]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 16
        assert cli.main(["--max-hypotheses", "15", *argv]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "budget exceeded: 16 hypotheses exceed --max-hypotheses 15\n"

    def test_negative_cap_is_usage_error(self, capsys):
        assert cli.main(["--max-domain", "-1", "family", "cube", "2"]) == 1
        assert capsys.readouterr().err.startswith("usage error: --max-domain must be >= 0")

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

    @staticmethod
    def ci_pinned_outputs():
        """The families that the workflow's "Extremal on large families"
        step runs, and the stdout it pins for each, read from its heredocs:
        file stem -> text."""
        step = WORKFLOW.read_text().split("- name: Extremal on large families", 1)[1]
        step = step.split("- name:", 1)[0]
        loop = re.search(r"for family in (.*); do", step).group(1)
        assert re.findall(r'"([^"]+)"', loop) == list(CI_EXTREMAL_FAMILIES)
        bodies = re.findall(
            r'cat > "\$RUNNER_TEMP/(\w+)\.out" <<\'OUT\'\n(.*?\n) *OUT\n', step, re.S
        )
        return {stem: textwrap.dedent(body) for stem, body in bodies}

    @pytest.mark.parametrize("family", CI_EXTREMAL_FAMILIES)
    def test_large_families_match_ci(self, family, tmp_path, capsys):
        # the same runs as the workflow step, in-process, so a wrong count
        # or step number fails locally too
        pinned = self.ci_pinned_outputs()
        assert sorted(pinned) == sorted(f.replace(" ", "_") for f in CI_EXTREMAL_FAMILIES)
        name, n = family.split()
        path = tmp_path / "family.cls"
        path.write_text(format_class(family_class(name, int(n))))
        assert cli.main(["extremal", str(path)]) == 0
        assert capsys.readouterr().out == pinned[family.replace(" ", "_")]

    def test_cube_7_answers_and_cube_8_exceeds_cube_cap(self, tmp_path):
        # cube 7 has 17,121,893 chains of cubes, which are counted, not
        # listed; cube 8 has 6,561 cubes, over the cube cap
        out = self.extremal_of_cube(7, tmp_path)
        assert out.returncode == 0
        assert out.stderr == ""
        assert out.stdout == (
            "hypotheses 128\n"
            "shattered sets 128\n"
            "extremal true\n"
            "cube counts (128, 448, 672, 560, 280, 84, 14, 1)\n"
            "barycentric face counts (2187, 75938, 669480, 2544528, 4986240, 5295360,"
            " 2903040, 645120)\n"
            "collapsible yes in 1093 steps\n"
            "embedding reversed case: the subdivided realizable complex sits inside"
            " the cube poset\n"
        )
        out = self.extremal_of_cube(8, tmp_path)
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == "budget exceeded: cube cap 4096 exceeded\n"


class TestClassify:
    def test_threshold(self, threshold3):
        out = run_cli("--json", "classify", threshold3)
        payload = json.loads(out.stdout)["payload"]
        assert payload["bucket"] == "threshold_like"
        assert payload["order"] == [0, 1, 2]

    def test_flip_row_matches_the_writer_by_character(self):
        # thresholds on 1-64 points under seeded flips and point orders: the
        # payload writes the certificate's flip mask '-' at each flipped point
        rng = random.Random(42)
        for _ in range(150):
            d = rng.randint(1, 64)
            flip = rng.getrandbits(d)
            order = rng.sample(range(d), d)
            prefixes = [sum(1 << x for x in order[:i]) for i in range(d + 1)]
            cls = ConceptClass(
                d, tuple(PartialHypothesis.total(d, p ^ flip) for p in prefixes)
            )
            analysis = ClassAnalysis(cls)
            payload = cli._classification_payload(analysis)
            assert payload["bucket"] == "threshold_like"
            assert payload["flip"] == flip_string(analysis.classification.flip_mask, d)

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
