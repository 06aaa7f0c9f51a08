"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spheredim.cli import main as cli_main
from spheredim.concepts import (
    ConceptClass,
    DimensionVariant,
    PartialHypothesis,
    dimension,
    family_class,
    format_class,
    power_class,
    shattered_family,
)
from spheredim.complexes import AntipodalComplex
from spheredim.disamb import (
    check_disambiguates,
    is_antipodal_class,
    pullback_disambiguation,
    sphere_from_disambiguation,
)
from spheredim.extremal import (
    ThresholdLike,
    Vc1NonThreshold,
    classify_low_vc,
    collapse_certificate,
    cubical_complex,
    cubical_face_counts,
    full_subcomplex_embedding_check,
    is_extremal,
)
from spheredim.signrank import (
    product_representation,
    universal_representation,
    verify_representation,
)
from spheredim.spheres import (
    SphereTemplate,
    SphereWitness,
    barycentric_witness,
    crosspolytope_witness,
    join_witness,
    verify_witness,
)

from oracles import (
    cubical_barycentric,
    euler_characteristic,
    face_counts,
    realizable_partial,
    restriction,
    strongly_shattered_family,
)

V = DimensionVariant
SRC = str(Path(__file__).resolve().parents[1] / "src")


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [FAIL] {desc}")
        raise
    else:
        print(f"criterion {num:2d} [PASS] {desc}")


def cube(n):
    return family_class("cube", n)


def universal(n):
    return family_class("universal", n)


def run_report(path_text: str, tmp_path: Path, name: str) -> dict:
    src = tmp_path / f"{name}.cls"
    src.write_text(path_text)
    out = tmp_path / f"{name}.json"
    code = cli_main(["--json", "report", str(src), "-o", str(out)])
    assert code == 0
    return json.loads(out.read_text())["payload"]


def random_total_class(rng, max_n=6, max_size=20, min_size=1):
    n = rng.randint(1, max_n)
    size = rng.randint(min_size, min(max_size, 2**n))
    masks = rng.sample(range(2**n), size)
    return ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks))


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(20250808)
    return [random_total_class(rng) for _ in range(1000)]


def test_criterion_01_dimension_table(tmp_path):
    with criterion(1, "cube and universal family dimension table, n = 1..6"):
        start = time.monotonic()
        for n in range(1, 7):
            payload = run_report(format_class(cube(n)), tmp_path, f"cube{n}")
            assert payload["dimensions"]["vc"] == n
            assert payload["dimensions"]["vc_dual"] == n.bit_length() - 1
            assert payload["sd"]["lower"] == n - 1
            assert payload["sd"]["upper"] == n - 1
            payload = run_report(format_class(universal(n)), tmp_path, f"uni{n}")
            assert payload["dimensions"]["vc"] == n.bit_length() - 1
            assert payload["dimensions"]["vc_dual"] == n
            assert payload["sd"]["lower"] == (n - 2 if n >= 2 else -1)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_02_figure_counts():
    with criterion(2, "cubical complex and barycentric subdivision figure counts"):
        cls = ConceptClass.from_strings(["---", "-+-", "++-", "+--", "--+"])
        cc = cubical_complex(cls)
        assert cc.counts() == (5, 5, 1)
        sub = cubical_barycentric(cc)
        # One vertex per cube (11); one edge per nested pair (5*2 + 4 + 4 = 18);
        # one triangle per flag vertex < edge < square (4 vertices * 2 edges = 8).
        assert face_counts(sub) == (11, 18, 8)
        assert cubical_face_counts(cc) == (11, 18, 8)
        chi_cubes = sum((-1) ** d * c for d, c in enumerate(cc.counts()))
        assert euler_characteristic(sub) == chi_cubes == 1


def test_criterion_03_pajor_suite(random_suite):
    with criterion(3, "Pajor inequality and equality characterization, 1000 classes"):
        start = time.monotonic()
        for cls in random_suite:
            shat = {m for level in shattered_family(cls) for m in level}
            strong = {m for level in strongly_shattered_family(cls) for m in level}
            assert len(cls) <= len(shat)
            assert (len(cls) == len(shat)) == (shat == strong)
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_04_assouad_chain(random_suite):
    with criterion(4, "antipodal Assouad chain plus sharpness witnesses"):
        for cls in random_suite:
            vc = dimension(cls, V.PRIMAL)
            vca = dimension(cls, V.PRIMAL_ANTIPODAL)
            vcd = dimension(cls, V.DUAL)
            vcda = dimension(cls, V.DUAL_ANTIPODAL)
            assert vca.bit_length() - 1 <= vcd
            assert vcd <= vcda
            assert vcda <= min(2 ** (vc + 1) - 1, 2 * vcd + 1)
        for d in (1, 2, 3):
            cls = family_class("subsets_leq", d)
            assert dimension(cls, V.PRIMAL) == d
            assert dimension(cls, V.PRIMAL_ANTIPODAL) == d + 1


def _family_witnesses():
    witnesses = []
    for n in range(1, 7):
        witnesses.append(crosspolytope_witness(cube(n), tuple(range(n))))
    for n in range(2, 7):
        witnesses.append(barycentric_witness(universal(n), tuple(range(n))))
    w_u2 = barycentric_witness(universal(2), (0, 1))
    w_u3 = barycentric_witness(universal(3), (0, 1, 2))
    w_c2 = crosspolytope_witness(cube(2), (0, 1))
    witnesses.append(join_witness(w_u2, w_u2)[0])
    witnesses.append(join_witness(w_u3, w_u3)[0])
    witnesses.append(join_witness(w_c2, w_c2)[0])
    return witnesses


def _flip_mutation(w, vertex):
    vmap = list(w.vertex_map)
    vmap[vertex] = w.target.involution[vmap[vertex]]
    return SphereWitness(w.template, tuple(vmap), w.cls, w.embedded)


def _drop_mutation(w, which):
    tc = w.template.complex
    maximal = list(tc.maximal)
    drop = maximal[which % len(maximal)]
    partner = tc.map_simplex(drop)
    kept = tuple(s for s in maximal if s not in (drop, partner))
    mutated = AntipodalComplex(tc.vertices, kept, tc.involution)
    labels = [
        tuple(tc.vertices[i] for i in range(len(tc.vertices)) if s & (1 << i))
        for s in (drop, partner)
    ]
    template = SphereTemplate(w.template.kind, mutated)
    return SphereWitness(template, w.vertex_map, w.cls, w.embedded), labels


def test_criterion_05_witness_validity_and_mutations():
    with criterion(5, "constructed witnesses verify; 100 mutations all localized"):
        witnesses = _family_witnesses()
        for w in witnesses:
            assert verify_witness(w)
        mutations = 0
        counter = 0
        while mutations < 100:
            w = witnesses[counter % len(witnesses)]
            tc = w.template.complex
            n_vertices = len(tc.vertices)
            if counter % 2 == 0:
                vertex = (counter // 2) % n_vertices
                mutated = _flip_mutation(w, vertex)
                report = verify_witness(mutated)
                assert not report
                assert report.check in ("simplicial", "equivariance")
                lab = tc.vertices[vertex]
                partner = tc.vertices[tc.involution[vertex]]
                assert lab in report.detail or partner in report.detail
            else:
                if len(tc.maximal) <= 2:
                    counter += 1
                    continue
                mutated, dropped_labels = _drop_mutation(w, counter)
                report = verify_witness(mutated)
                assert not report
                assert report.check == "template"
                assert "missing maximal simplex" in report.detail
                assert any(str(lab) in report.detail for lab in dropped_labels)
            mutations += 1
            counter += 1


def test_criterion_06_product_identities():
    with criterion(6, "universal power VC identity and join witness dimension"):
        for n, m in itertools.product((2, 3), repeat=2):
            p = power_class(universal(n), m)
            assert dimension(p, V.PRIMAL) == m * (n.bit_length() - 1)
            w = barycentric_witness(universal(n), tuple(range(n)))
            joined = w
            for _ in range(m - 1):
                joined, _cls = join_witness(joined, w)
            assert verify_witness(joined)
            assert joined.dimension >= m * (n - 1) - 1


def _oracle_threshold_embeddable(cls):
    n = cls.domain_size
    for flip in range(1 << n):
        plus_sets = [h.plus ^ flip for h in cls.hypotheses]
        if all(
            (a & ~b) == 0 or (b & ~a) == 0
            for a, b in itertools.combinations(plus_sets, 2)
        ):
            return True
    return False


def _oracle_threshold_literal(cls):
    n = cls.domain_size
    for flip in range(1 << n):
        for perm in itertools.permutations(range(n)):
            ok = True
            for h in cls.hypotheses:
                flipped = h.plus ^ flip
                seen_minus = False
                for x in perm:
                    if flipped & (1 << x):
                        if seen_minus:
                            ok = False
                            break
                    else:
                        seen_minus = True
                if not ok:
                    break
            if ok:
                return True
    return False


def test_criterion_07_classification_oracle():
    with criterion(7, "threshold classification matches the flip/order oracle, 500 classes"):
        rng = random.Random(424242)
        collected = 0
        while collected < 500:
            n = rng.randint(1, 6)
            size = rng.randint(2, min(6, 2**n))
            cls = ConceptClass(
                n,
                tuple(
                    PartialHypothesis.total(n, m) for m in rng.sample(range(2**n), size)
                ),
            )
            if dimension(cls, V.PRIMAL) > 1:
                continue
            collected += 1
            got = classify_low_vc(cls)
            embeddable = _oracle_threshold_embeddable(cls)
            if n <= 4:
                assert embeddable == _oracle_threshold_literal(cls)
            assert isinstance(got, ThresholdLike) == embeddable
            if isinstance(got, Vc1NonThreshold):
                assert verify_witness(got.witness)
                assert got.witness.dimension == 1


NAMED_EXTREMAL = [
    ["---", "-+-", "++-", "+--", "--+"],
    ["---", "--+", "-++", "+++"],
    ["+-", "++"],
    ["--", "-+", "+-", "++"],
    ["---", "+--", "++-", "+++"],
]


def test_criterion_08_extremal_suite():
    with criterion(8, "extremal classes: restrictions, embedding, collapse, dual bound"):
        rng = random.Random(777)
        classes = [ConceptClass.from_strings(rows) for rows in NAMED_EXTREMAL]
        while len(classes) < 25:
            cls = random_total_class(rng, max_n=4, max_size=12)
            if is_extremal(cls).extremal:
                classes.append(cls)
        for cls in classes:
            assert is_extremal(cls).extremal
            n = cls.domain_size
            for defined in range(1 << n):
                for plus in range(1 << n):
                    if plus & ~defined:
                        continue
                    h = PartialHypothesis(n, plus, defined)
                    if realizable_partial(cls, h):
                        assert is_extremal(restriction(cls, h)).extremal
            assert full_subcomplex_embedding_check(cls).ok
            assert collapse_certificate(cubical_complex(cls)) is not None
            vc = dimension(cls, V.PRIMAL)
            assert dimension(cls, V.DUAL) <= 2 * vc + 1


def test_criterion_09_disambiguation_roundtrip():
    with criterion(9, "witness -> disambiguation -> witness round trip"):
        cases = [
            crosspolytope_witness(cube(2), (0, 1)),
            crosspolytope_witness(cube(3), (0, 1, 2)),
            barycentric_witness(universal(3), (0, 1, 2)),
            barycentric_witness(universal(4), (0, 1, 2, 3)),
        ]
        for w in cases:
            d = pullback_disambiguation(w)
            assert is_antipodal_class(d.cls, d.template.complex.involution)
            assert check_disambiguates(d).ok
            back = sphere_from_disambiguation(d)
            assert back.embedded
            assert back.dimension == w.dimension
            assert verify_witness(back)
            assert len(d.cls) >= w.dimension + 2


def test_criterion_10_sign_rank_certificates():
    with criterion(10, "sign-rank certificates for universal classes and products"):
        for n in range(1, 7):
            rep = universal_representation(n)
            assert rep.dimension == n
            assert rep.is_exact
            assert verify_representation(universal(n), rep)
        rep3 = universal_representation(3)
        rep, product = product_representation(universal(3), rep3, universal(3), rep3)
        assert rep.dimension == 6
        assert verify_representation(product, rep)


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical outputs across reruns and worker counts"):
        c2 = tmp_path / "c2.cls"
        c2.write_text(format_class(cube(2)))
        u3 = tmp_path / "u3.cls"
        u3.write_text(format_class(universal(3)))
        t3 = tmp_path / "t3.cls"
        t3.write_text(format_class(family_class("threshold", 3)))
        fig = tmp_path / "fig.cls"
        fig.write_text("---\n-+-\n++-\n+--\n--+\n")
        commands = [
            ("family", "cube", "3"),
            ("--json", "report", str(c2)),
            ("dims", str(u3)),
            ("--json", "classify", str(t3)),
            ("witness", str(c2)),
            ("sd", str(t3)),
            ("extremal", str(fig)),
            ("complex", str(c2), "--antipodal"),
            ("product", str(c2), str(c2)),
        ]
        for cmd in commands:
            outputs = set()
            for workers in ("1", "4"):
                for _ in range(3):
                    run = subprocess.run(
                        [sys.executable, "-m", "spheredim.cli", "--workers", workers, *cmd],
                        capture_output=True,
                        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
                    )
                    assert run.returncode == 0, (cmd, run.stderr)
                    outputs.add(run.stdout)
            assert len(outputs) == 1, cmd
