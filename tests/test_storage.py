"""Round-trip and validation tests for artifact storage."""

import dataclasses
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spheredim import cli, spheres, storage
from spheredim.concepts import CapExceededError, ClassFormatError, ConceptClass, family_class
from spheredim.complexes import (
    AntipodalComplex,
    SimplicialComplex,
    antipodal_subcomplex,
    complex_to_payload,
    label_flip,
    point_label,
    realizable_complex,
)
from spheredim.disamb import pullback_disambiguation, sphere_from_disambiguation
from spheredim.extremal import CubicalComplex, classify_low_vc, cubical_complex
from spheredim.signrank import (
    SignRepresentation,
    product_representation,
    representation_from_payload,
    universal_representation,
    verify_representation,
)
from spheredim.spheres import (
    SphereWitness,
    barycentric_witness,
    build_template,
    crosspolytope_witness,
    join_witness,
    kind_from_payload,
    make_crosspolytope,
    subdivide_template,
    verify_witness,
)
from spheredim.storage import (
    StorageError,
    _template_face_counts,
    _template_vertex_count,
    canonical_json,
    load,
    store,
)

from oracles import bench_corpus, face_counts


class TestClassRoundtrip:
    def test_cube_3(self, tmp_path):
        cls = family_class("cube", 3)
        p = tmp_path / "c3.cls"
        store(cls, p)
        assert load("class", p) == cls

    def test_bytes_stable(self, tmp_path):
        cls = family_class("threshold", 3)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        store(cls, p1)
        store(load("class", p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestComplexRoundtrip:
    def test_antipodal(self, tmp_path):
        ant = antipodal_subcomplex(family_class("cube", 2))
        p = tmp_path / "ant.json"
        store(ant, p)
        back = load("complex", p)
        assert isinstance(back, AntipodalComplex)
        assert back == ant

    def test_empty_antipodal(self, tmp_path):
        # a class with one concept has an empty antipodal subcomplex, whose
        # empty involution is total
        ant = antipodal_subcomplex(ConceptClass.from_strings(["+-"]))
        p = tmp_path / "ant.json"
        store(ant, p)
        assert load("complex", p) == ant

    def test_delta_with_partial_involution(self, tmp_path):
        delta = realizable_complex(
            ConceptClass.from_strings(["---", "-+-", "+--", "++-"])
        )
        p = tmp_path / "delta.json"
        store(delta, p)
        back = load("complex", p)
        assert type(back) is SimplicialComplex
        assert back == delta

    def test_delta_in_which_every_point_takes_both_labels(self, tmp_path):
        # the involution is total, but the flip of a concept is no concept
        delta = realizable_complex(ConceptClass.from_strings(["--", "-+", "+-"]))
        p = tmp_path / "delta.json"
        store(delta, p)
        back = load("complex", p)
        assert type(back) is SimplicialComplex
        assert back == delta

    def test_failed_antipodal_attempt_costs_no_pairwise_check(self, tmp_path, monkeypatch):
        # the involution is total, so the load tries the antipodal form first;
        # its axioms fail before the pairwise check of maximal simplices runs
        delta = realizable_complex(ConceptClass.from_strings(["--", "-+", "+-"]))
        p = tmp_path / "delta.json"
        store(delta, p)
        calls = []
        pairwise = SimplicialComplex.__post_init__

        def counted(self):
            calls.append(type(self))
            pairwise(self)

        monkeypatch.setattr(SimplicialComplex, "__post_init__", counted)
        assert load("complex", p) == delta
        assert calls == [SimplicialComplex]

    def test_delta_whose_flip_is_antipodal_loads_as_its_antipodal_form(self, tmp_path):
        cls = ConceptClass.from_strings(["--", "++"])
        delta = realizable_complex(cls)
        ant = antipodal_subcomplex(cls)
        p, q = tmp_path / "delta.json", tmp_path / "ant.json"
        store(delta, p)
        store(ant, q)
        assert p.read_bytes() == q.read_bytes()
        assert load("complex", p) == ant

    @pytest.mark.parametrize("involution", [[1, 0, 3, 3], [1, 0, 2, 7], [1, 0, 3, "2"]])
    def test_involution_must_pair_distinct_vertices(self, tmp_path, involution):
        payload = {
            "vertices": ["0-", "0+", "1-", "1+"],
            "maximal_simplices": [[0, 2], [1, 3]],
            "involution": involution,
        }
        p = tmp_path / "k.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "complex", "payload": payload}))
        with pytest.raises(StorageError, match="pair distinct vertices"):
            load("complex", p)

    def test_delta_of_one_hypothesis(self, tmp_path):
        # no point takes both labels, so the label flip is all null
        delta = realizable_complex(ConceptClass.from_strings(["+-"]))
        p = tmp_path / "delta.json"
        store(delta, p)
        assert json.loads(p.read_text())["payload"]["involution"] == [None, None]
        assert load("complex", p) == delta

    def test_every_delta_on_at_most_three_points_round_trips(self, tmp_path):
        p = tmp_path / "delta.json"
        antipodal = 0
        for n in (1, 2, 3):
            for chosen in range(1, 1 << (1 << n)):
                rows = [
                    "".join("-+"[m >> x & 1] for x in range(n))
                    for m in range(1 << n)
                    if chosen >> m & 1
                ]
                cls = ConceptClass.from_strings(rows)
                delta = realizable_complex(cls)
                store(delta, p)
                back = load("complex", p)
                # the label flip is total, simplicial and free (no concept
                # graph holds both labels of a point) iff the flip of every
                # concept is a concept
                negated = {row.translate(str.maketrans("+-", "-+")) for row in rows}
                if negated == set(rows):
                    # the documented exception: it loads as its antipodal form
                    antipodal += 1
                    assert None not in label_flip(delta)
                    assert back == antipodal_subcomplex(cls)
                else:
                    assert type(back) is SimplicialComplex
                    assert back == delta
        # nonempty unions of antipodal pairs of rows: 1 + 3 + 15
        assert antipodal == 19

    def test_partial_involution_other_than_the_label_flip_rejected(self, tmp_path):
        # the figure class's realizable complex with 0- paired to 1-, not 0+
        payload = complex_to_payload(
            realizable_complex(ConceptClass.from_strings(["---", "-+-", "+--", "++-"]))
        )
        assert payload["vertices"][:4] == ["0-", "0+", "1-", "1+"]
        assert payload["involution"][:4] == [1, 0, 3, 2]
        payload["involution"][:4] = [2, 3, 0, 1]
        p = tmp_path / "k.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "complex", "payload": payload}))
        with pytest.raises(StorageError, match="not the label flip"):
            load("complex", p)

    @pytest.mark.parametrize("involution", [[None, None], [1, 0]], ids=["simplicial", "antipodal"])
    def test_vertex_labels_must_be_strings(self, tmp_path, involution):
        payload = {"vertices": [1, 2], "maximal_simplices": [[0], [1]], "involution": involution}
        p = tmp_path / "k.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "complex", "payload": payload}))
        with pytest.raises(StorageError, match="string labels"):
            load("complex", p)

    @pytest.mark.parametrize(
        "involution", ["missing", None, [], 0, False], ids=["missing", "null", "empty", "zero", "false"]
    )
    def test_involution_must_list_every_vertex(self, tmp_path, involution):
        payload = {"vertices": ["a", "b"], "maximal_simplices": [[0, 1]]}
        if involution != "missing":
            payload["involution"] = involution
        p = tmp_path / "k.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "complex", "payload": payload}))
        with pytest.raises(StorageError):
            load("complex", p)

    def test_plain_complex(self, tmp_path):
        k = SimplicialComplex(("a", "b", "c"), (0b011, 0b110))
        p = tmp_path / "k.json"
        store(k, p)
        assert load("complex", p) == k

    def test_overlapping_maximal_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "kind": "complex",
                    "payload": {
                        "vertices": ["a", "b"],
                        "maximal_simplices": [[0], [0, 1]],
                        "involution": [None, None],
                    },
                }
            )
        )
        with pytest.raises(ValueError):
            load("complex", p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(
            json.dumps({"schema_version": "99", "kind": "complex", "payload": {}})
        )
        with pytest.raises(StorageError):
            load("complex", p)

    def test_kind_mismatch(self, tmp_path):
        k = SimplicialComplex(("a",), (0b1,))
        p = tmp_path / "k.json"
        store(k, p)
        with pytest.raises(StorageError):
            load("witness", p)


class TestWitnessRoundtrip:
    def test_cube_2_witness(self, tmp_path):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        back = load("witness", p)
        assert back == w
        assert verify_witness(back)

    def test_tampered_target_rejected(self, tmp_path, monkeypatch):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        data["payload"]["target"]["maximal_simplices"] = [[0, 2]]
        p.write_text(json.dumps(data))

        def no_build(kind):
            raise AssertionError("template built before the target check")

        # the target is checked before the template, which can be exponential
        monkeypatch.setattr(storage, "build_template", no_build)
        with pytest.raises(StorageError, match="stored target does not match"):
            load("witness", p)

    def test_loaded_witness_keeps_the_target_it_checked(self, tmp_path, monkeypatch):
        # the first store builds the witness's target and the load builds
        # one to check the file against; the loaded witness keeps that one,
        # so storing it again builds none
        calls = []

        def counted(cls):
            calls.append(cls)
            return antipodal_subcomplex(cls)

        for module in (spheres, storage):
            monkeypatch.setattr(module, "antipodal_subcomplex", counted)
        w = crosspolytope_witness(family_class("cube", 3), (0, 1, 2))
        p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
        store(w, p1)
        back = load("witness", p1)
        store(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(calls) == 2
        assert back.target == antipodal_subcomplex(back.cls)
        assert "target" not in {f.name for f in dataclasses.fields(back)}

    def test_tampered_vertex_map_rejected(self, tmp_path):
        # e0- and e1- trade targets: every label still names a target
        # vertex, but the edge {e0+, e1-} now maps onto the pair {0+, 0-}
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        vmap = data["payload"]["vertex_map"]
        vmap[0][1], vmap[2][1] = vmap[2][1], vmap[0][1]
        p.write_text(json.dumps(data))
        with pytest.raises(StorageError, match=r"simplicial check: simplex \('e0\+', 'e1-'\)"):
            load("witness", p)


def cross(n):
    return {"kind": "crosspolytope", "n": n}


def bary(n):
    return {"kind": "barycentric_boundary", "n": n}


def join(*parts):
    return {"kind": "join", "parts": list(parts)}


def sd(base, depth=1):
    return {"kind": "subdivided", "base": base, "depth": depth}


KIND_TREES = (
    cross(0), cross(1), cross(2), cross(3), bary(0), bary(1), bary(2), bary(3),
    join(cross(0), cross(0)), join(cross(1), bary(1)), join(cross(0), cross(0), cross(0)),
    sd(cross(0), 3), sd(cross(1)), sd(cross(1), 2), sd(cross(2)), sd(bary(1)),
    sd(join(cross(0), cross(1))), join(sd(cross(1)), cross(0)), sd(sd(cross(1))),
)


class TestTemplateSize:
    """Face and vertex counts read from a kind tree, without building it."""

    @pytest.mark.parametrize("kind", KIND_TREES, ids=json.dumps)
    def test_counts_agree_with_built_template(self, kind):
        kind = kind_from_payload(kind)
        built = build_template(kind).complex
        f = list(face_counts(built))
        vertices = len(built.vertices)
        assert _template_face_counts(kind, 10**9) == f
        assert _template_face_counts(kind, sum(f)) == f
        assert _template_face_counts(kind, sum(f) - 1) is None
        assert _template_vertex_count(kind, 10**9) == vertices
        assert _template_vertex_count(kind, vertices) == vertices
        assert _template_vertex_count(kind, vertices - 1) is None

    @pytest.mark.parametrize(
        "kind",
        [bary(10**9), cross(10**9), sd(bary(10**9)), sd(cross(10**9), 10**9),
         sd(cross(3), 10**12), join(cross(1), bary(10**9))],
        ids=json.dumps,
    )
    def test_huge_kinds_stop_at_the_limit(self, kind):
        start = time.monotonic()
        assert _template_vertex_count(kind_from_payload(kind), 10**6) is None
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize(
        "template",
        [bary(7), bary(10**9), cross(2), sd(cross(1), 10**12), join(cross(0), cross(0), cross(0))],
        ids=json.dumps,
    )
    def test_witness_with_oversized_template_rejected_before_building(self, tmp_path, template):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        data["payload"]["template"] = template
        p.write_text(json.dumps(data))
        start = time.monotonic()
        with pytest.raises(StorageError, match="vertices but the vertex map lists 4"):
            load("witness", p)
        assert time.monotonic() - start < 1

    def test_small_witness_naming_a_large_sphere(self, tmp_path):
        payload = {
            "class": ["--", "-+", "+-", "++"],
            "template": bary(7),
            "vertex_map": [],
            "embedded": True,
            "target": {},
        }
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "witness", "payload": payload}))
        assert p.stat().st_size < 200
        start = time.monotonic()
        with pytest.raises(StorageError, match="more vertices"):
            load("witness", p)
        assert time.monotonic() - start < 1

    def test_crosspolytope_past_the_face_cap_rejected_before_building(self, tmp_path):
        # 30 vertices match the vertex map, but crosspolytope 14 has
        # 2^15 maximal simplices and 3^15 - 1 faces
        payload = {
            "class": ["-", "+"],
            "template": cross(14),
            "vertex_map": [[f"e{i}{s}", "0-"] for i in range(15) for s in "-+"],
            "embedded": False,
            "target": {},
        }
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "witness", "payload": payload}))
        start = time.monotonic()
        with pytest.raises(CapExceededError, match="DEFAULT_FACE_CAP = 10000000"):
            load("witness", p)
        assert time.monotonic() - start < 1

    def test_face_cap_on_a_loaded_template(self, tmp_path, monkeypatch):
        # crosspolytope 2 has 3^3 - 1 = 26 faces
        w = crosspolytope_witness(family_class("cube", 3), (0, 1, 2))
        p = tmp_path / "w.json"
        store(w, p)
        monkeypatch.setattr("spheredim.complexes.DEFAULT_FACE_CAP", 25)
        with pytest.raises(CapExceededError, match="DEFAULT_FACE_CAP = 25"):
            load("witness", p)
        monkeypatch.setattr("spheredim.complexes.DEFAULT_FACE_CAP", 26)
        assert load("witness", p) == w

    def test_deep_subdivision_of_a_0_sphere_rejected_by_its_labels(self, tmp_path):
        # a subdivision of a 0-dimensional template keeps its two vertices,
        # so the vertex count matches at any depth
        cls = family_class("threshold", 1)
        payload = {
            "class": list(cls.rows()),
            "template": sd(cross(0), 10**12),
            "vertex_map": [["[e0-]", "0-"], ["[e0+]", "0+"]],
            "embedded": True,
            "target": complex_to_payload(antipodal_subcomplex(cls)),
        }
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "witness", "payload": payload}))
        assert p.stat().st_size < 400
        start = time.monotonic()
        with pytest.raises(StorageError, match="subdivided deeper"):
            load("witness", p)
        assert time.monotonic() - start < 1

    def test_depth_2_subdivided_witness_loads(self, tmp_path):
        cls = family_class("threshold", 1)
        template = subdivide_template(make_crosspolytope(0), 2)
        assert template.complex.vertices == ("[[e0-]]", "[[e0+]]")
        w = SphereWitness(template, (0, 1), cls, embedded=True)
        assert verify_witness(w)
        p = tmp_path / "w.json"
        store(w, p)
        back = load("witness", p)
        assert back == w
        assert verify_witness(back)

    @pytest.mark.parametrize("n", [-1, 1.5, "2", None, [1]])
    def test_template_parameter_must_be_a_natural_number(self, tmp_path, n):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        data["payload"]["template"] = cross(n)
        p.write_text(json.dumps(data))
        with pytest.raises(StorageError):
            load("witness", p)

    @staticmethod
    def edited_threshold_1_witness(tmp_path, template, edit):
        cls = family_class("threshold", 1)
        p = tmp_path / "w.json"
        store(SphereWitness(template, (0, 1), cls, embedded=True), p)
        data = json.loads(p.read_text())
        edit(data["payload"])
        p.write_text(json.dumps(data))
        return p

    # a bool where an int belongs (or the reverse) would load as an equal
    # witness that stores back as other bytes than the canonical ones
    def test_template_n_must_not_be_a_bool(self, tmp_path):
        p = self.edited_threshold_1_witness(
            tmp_path, make_crosspolytope(0), lambda d: d["template"].update(n=False)
        )
        with pytest.raises(StorageError, match="template n must be an integer"):
            load("witness", p)

    def test_template_depth_must_not_be_a_bool(self, tmp_path):
        p = self.edited_threshold_1_witness(
            tmp_path, subdivide_template(make_crosspolytope(0)),
            lambda d: d["template"].update(depth=True),
        )
        with pytest.raises(StorageError, match="template depth must be an integer"):
            load("witness", p)

    def test_embedded_must_be_a_bool(self, tmp_path):
        p = self.edited_threshold_1_witness(
            tmp_path, make_crosspolytope(0), lambda d: d.update(embedded=1)
        )
        with pytest.raises(StorageError, match="embedded must be true or false"):
            load("witness", p)


class TestCubicalRoundtrip:
    def test_figure_complex(self, tmp_path):
        cc = cubical_complex(
            ConceptClass.from_strings(["---", "-+-", "++-", "+--", "--+"])
        )
        p = tmp_path / "cc.json"
        store(cc, p)
        back = load("cubical", p)
        assert isinstance(back, CubicalComplex)
        assert set(back.rows()) == set(cc.rows())
        assert back == cc

    def test_unsorted_cubes(self, tmp_path):
        # the cubes are kept in (dimension, label) order, so a complex given
        # them in another order stores and loads back as an equal value
        cc = cubical_complex(
            ConceptClass.from_strings(["---", "-+-", "++-", "+--", "--+"])
        )
        shuffled = CubicalComplex(tuple(reversed(cc.cubes)))
        assert shuffled == cc
        p = tmp_path / "cc.json"
        store(shuffled, p)
        assert load("cubical", p) == shuffled

    def test_empty_complex_counts(self, tmp_path):
        # an empty complex has no cube of any dimension, before and after a
        # round trip
        empty = CubicalComplex(())
        assert empty.counts() == ()
        p = tmp_path / "empty.json"
        store(empty, p)
        assert json.loads(p.read_text())["payload"] == {"cubes": []}
        back = load("cubical", p)
        assert back == empty and back.counts() == ()

    def test_closure_violation_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "kind": "cubical",
                    "payload": {"cubes": ["*-"]},
                }
            )
        )
        with pytest.raises(ValueError):
            load("cubical", p)

    def test_cubes_of_different_lengths_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        payload = {"cubes": ["+", "-+"]}
        p.write_text(json.dumps({"schema_version": "1", "kind": "cubical", "payload": payload}))
        with pytest.raises(StorageError, match="same length"):
            load("cubical", p)


class TestRepresentationRoundtrip:
    def test_universal(self, tmp_path):
        cls = family_class("universal", 3)
        rep = universal_representation(3)
        p = tmp_path / "rep.json"
        store(rep, p, cls=cls)
        back = load("representation", p, cls=cls)
        assert back == rep
        assert verify_representation(cls, back)

    @pytest.mark.parametrize(
        "edit",
        [
            ("d", True),
            ("d", 1.0),
            ("d", "1"),
            ("entry", True),
            ("entry", "1"),
            ("entry", None),
            ("entry", [1, True]),
            ("entry", [1.5, 2]),
            ("entry", [1, 2, 3]),
            ("entry", [1]),
            ("entry", [2, 4]),
            ("entry", [3, 1]),
            ("entry", [1, -2]),
            ("entry", [0, 2]),
            ("vector", "1"),
        ],
        ids=repr,
    )
    def test_edited_file_rejected(self, tmp_path, edit):
        # a bool is no number here: "d": true used to load as an equal
        # representation that stored back as true
        cls = family_class("threshold", 1)
        payload = {"d": 1, "phi": {"0": [1]}, "w": {"-": [-1], "+": [1]}}
        rep = representation_from_payload(cls, payload)
        assert verify_representation(cls, rep)
        p = tmp_path / "rep.json"
        store(rep, p, cls=cls)
        data = json.loads(p.read_text())
        where, value = edit
        if where == "d":
            data["payload"]["d"] = value
        elif where == "entry":
            data["payload"]["phi"]["0"] = [value]
        else:
            data["payload"]["phi"]["0"] = value
        p.write_text(json.dumps(data))
        with pytest.raises(StorageError):
            load("representation", p, cls=cls)

    @pytest.mark.parametrize(
        "payload",
        [
            {"d": 1, "phi": {"0": [1.0], "1": [float("nan")]}, "w": {"--": [-1.0], "+-": [1.0]}},
            {
                "d": 2,
                "phi": {"0": [1.0, 1.0], "1": [float("inf"), -1.0]},
                "w": {"--": [-1.0, 0.0], "+-": [0.0, 1.0]},
            },
        ],
        ids=["nan-entry", "inf-times-zero"],
    )
    def test_nan_inner_product_rejected(self, tmp_path, payload):
        # json reads NaN and Infinity; a NaN inner product has no sign
        cls = ConceptClass.from_strings(["--", "+-"])
        p = tmp_path / "rep.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": "representation", "payload": payload}))
        with pytest.raises(StorageError, match="fails its class: ambiguous sign"):
            load("representation", p, cls=cls)

    def test_representation_failing_its_class_rejected(self, tmp_path):
        # well formed, but w(-) = [1] gives the '-' hypothesis a '+' at point 0
        cls = family_class("threshold", 1)
        payload = {"d": 1, "phi": {"0": [1]}, "w": {"-": [-1], "+": [1]}}
        p = tmp_path / "rep.json"
        store(representation_from_payload(cls, payload), p, cls=cls)
        data = json.loads(p.read_text())
        data["payload"]["w"]["-"] = [1]
        p.write_text(json.dumps(data))
        with pytest.raises(StorageError, match="wrong sign at hypothesis 0, point 0"):
            load("representation", p, cls=cls)

    @staticmethod
    def written_by_the_library():
        """(class, representation) pairs as the library builds them: the
        certificate of universal n, the |H|-dimensional standard one
        (w(h_j) = e_j, phi(x)_j = h_j(x)), a product of two, and a product
        with exact fractions and a float, so every entry form
        ``representation_payload`` writes is covered."""
        out = [(family_class("universal", n), universal_representation(n)) for n in (1, 2, 3)]
        cls = ConceptClass.from_strings(["-+-", "++-", "--+", "+++"])
        m = len(cls)
        standard = SignRepresentation(
            m,
            tuple(tuple(1 if h.plus >> x & 1 else -1 for h in cls.hypotheses)
                  for x in range(cls.domain_size)),
            tuple(tuple(int(i == j) for i in range(m)) for j in range(m)),
        )
        assert verify_representation(cls, standard)
        out.append((cls, standard))
        u2 = family_class("universal", 2)
        rep, product = product_representation(
            u2, universal_representation(2), u2, universal_representation(2)
        )
        out.append((product, rep))
        t1 = family_class("threshold", 1)
        rational = SignRepresentation(
            2, ((Fraction(1, 2), 0.25),), ((Fraction(-3, 2), Fraction(-7, 3)), (Fraction(4, 2), 1.5))
        )
        assert verify_representation(t1, rational)
        rep, product = product_representation(t1, rational, u2, universal_representation(2))
        out.append((product, rep))
        return out

    def test_library_representations_store_back_to_the_same_bytes(self, tmp_path):
        for i, (cls, rep) in enumerate(self.written_by_the_library()):
            first, again = tmp_path / f"rep{i}.json", tmp_path / f"again{i}.json"
            store(rep, first, cls=cls)
            back = load("representation", first, cls=cls)
            assert back == rep
            store(back, again, cls=cls)
            assert again.read_bytes() == first.read_bytes()

    def test_exact_and_float_entries_load(self, tmp_path):
        cls = family_class("threshold", 1)
        payload = {"d": 2, "phi": {"0": [[1, 2], 0.5]}, "w": {"-": [-1, -1], "+": [1, 1]}}
        p = tmp_path / "rep.json"
        envelope = {"schema_version": "1", "kind": "representation", "payload": payload}
        p.write_text(json.dumps(envelope))
        back = load("representation", p, cls=cls)
        assert back.point_vectors == ((Fraction(1, 2), 0.5),)
        assert verify_representation(cls, back)
        store(back, tmp_path / "again.json", cls=cls)
        assert json.loads((tmp_path / "again.json").read_text())["payload"] == payload

    def test_class_required(self, tmp_path):
        rep = universal_representation(2)
        with pytest.raises(StorageError):
            store(rep, tmp_path / "rep.json")


class TestStrictPayloads:
    """An edited file that would load as an equal value and then store back
    other bytes is rejected: each payload must have exactly the keys its
    writer writes, and a witness its own transcript."""

    @staticmethod
    def edited(tmp_path, value, edit, cls=None):
        p = tmp_path / "artifact.json"
        store(value, p, cls=cls)
        data = json.loads(p.read_text())
        edit(data["payload"])
        p.write_text(json.dumps(data))
        return p

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d.update(note="x"), "witness payload must have exactly the keys"),
            (lambda d: d["template"].update(note="x"), "template kind tree must have exactly"),
            (lambda d: d.pop("transcript"), "witness payload must have exactly the keys"),
            (lambda d: d["transcript"].append("x: ok"), "stored transcript does not match"),
            (lambda d: d["transcript"].__setitem__(0, "template: fine"), "stored transcript"),
            (lambda d: d["vertex_map"][0].append("x"), "list of two vertex labels"),
        ],
        ids=["payload-key", "template-key", "no-transcript", "longer-transcript",
             "edited-transcript", "vertex-map-entry"],
    )
    def test_edited_witness_rejected(self, tmp_path, edit, error):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        assert w.template.kind_payload() == {"kind": "crosspolytope", "n": 1}
        with pytest.raises(StorageError, match=error):
            load("witness", self.edited(tmp_path, w, edit))

    @pytest.mark.parametrize(
        "value",
        [
            antipodal_subcomplex(family_class("cube", 2)),
            realizable_complex(family_class("threshold", 2)),
        ],
        ids=["antipodal", "realizable"],
    )
    def test_complex_with_extra_key_rejected(self, tmp_path, value):
        p = self.edited(tmp_path, value, lambda d: d.update(note="x"))
        with pytest.raises(StorageError, match="complex payload must have exactly the keys"):
            load("complex", p)

    def test_cubical_with_extra_key_rejected(self, tmp_path):
        cc = cubical_complex(family_class("cube", 2))
        p = self.edited(tmp_path, cc, lambda d: d.update(note="x"))
        with pytest.raises(StorageError, match="cubical payload must have exactly the keys"):
            load("cubical", p)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(note="x"),
            lambda d: d["phi"].update({"1": [1]}),
            lambda d: d["w"].update({"x": [1]}),
        ],
        ids=["payload-key", "phi-key", "w-key"],
    )
    def test_representation_with_extra_key_rejected(self, tmp_path, edit):
        cls = family_class("threshold", 1)
        rep = representation_from_payload(cls, {"d": 1, "phi": {"0": [1]}, "w": {"-": [-1], "+": [1]}})
        p = self.edited(tmp_path, rep, edit, cls=cls)
        with pytest.raises(StorageError, match="keys other than representation_payload writes"):
            load("representation", p, cls=cls)


class TestMalformedPayloads:
    """Malformed payloads raise StorageError, not a bare KeyError or ValueError."""

    @staticmethod
    def write(tmp_path, kind, payload):
        p = tmp_path / f"{kind}.json"
        p.write_text(json.dumps({"schema_version": "1", "kind": kind, "payload": payload}))
        return p

    def test_empty_complex_payload(self, tmp_path):
        with pytest.raises(StorageError):
            load("complex", self.write(tmp_path, "complex", {}))

    def test_witness_without_template(self, tmp_path):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        del data["payload"]["template"]
        p.write_text(json.dumps(data))
        with pytest.raises(StorageError):
            load("witness", p)

    @pytest.mark.parametrize("kind, error", [("witness", StorageError), ("class", ClassFormatError)])
    def test_undecodable_file(self, tmp_path, kind, error):
        p = tmp_path / "bad"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(error, match="cannot decode"):
            load(kind, p)

    def test_out_of_range_simplex(self, tmp_path):
        payload = {"vertices": ["a", "b"], "maximal_simplices": [[0, 5]], "involution": [None, None]}
        with pytest.raises(StorageError, match="not one of the 2 vertex indices"):
            load("complex", self.write(tmp_path, "complex", payload))

    @pytest.mark.parametrize(
        "vertices, simplices, error",
        [
            (["a", "b"], [[0, 0], [1]], "strictly increasing"),
            (["a", "b"], [[1, 0]], "strictly increasing"),
            (["a", "b"], [[1], [0]], "sorted order"),
            ([], "", "list of index lists"),
            ([], {}, "list of index lists"),
            ([], [""], "list of index lists"),
        ],
        ids=["repeated index", "decreasing indices", "unsorted simplices", "string", "object", "string simplex"],
    )
    def test_maximal_simplices_only_as_written(self, tmp_path, vertices, simplices, error):
        # each of these once loaded, and stored back other bytes or none
        payload = {"vertices": vertices, "maximal_simplices": simplices, "involution": [None] * len(vertices)}
        with pytest.raises(StorageError, match=error):
            load("complex", self.write(tmp_path, "complex", payload))

    def test_empty_cubical_payload(self, tmp_path):
        with pytest.raises(StorageError):
            load("cubical", self.write(tmp_path, "cubical", {}))


    @pytest.mark.parametrize("index", [10**12, 10**30, -1, True, 1.0, "0"])
    def test_simplex_index_not_a_vertex(self, tmp_path, index):
        payload = {"vertices": ["a", "b"], "maximal_simplices": [[0, index]], "involution": [None, None]}
        with pytest.raises(StorageError, match="not one of the 2 vertex indices"):
            load("complex", self.write(tmp_path, "complex", payload))

    def test_deeply_nested_json(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        with pytest.raises(StorageError):
            load("complex", p)

    def test_deeply_nested_template(self, tmp_path):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        depth = 5000
        data["payload"]["template"] = "TEMPLATE"
        text = json.dumps(data).replace(
            '"TEMPLATE"',
            '{"kind": "subdivided", "depth": 1, "base": ' * depth
            + json.dumps(w.template.kind_payload())
            + "}" * depth,
        )
        p.write_text(text)
        with pytest.raises(StorageError):
            load("witness", p)

    def test_zero_denominator(self, tmp_path):
        cls = family_class("threshold", 1)
        payload = {"d": 1, "phi": {"0": [[1, 0]]}, "w": {"-": [1], "+": [1]}}
        with pytest.raises(StorageError):
            load("representation", self.write(tmp_path, "representation", payload), cls=cls)


# --- fuzzing --------------------------------------------------------------

# Integers stay small except for a few huge values, and dictionary keys in
# free-form JSON stay short.  Template parameters range wider: a template
# whose vertex count differs from its vertex map's length is rejected before
# it is built, and a vertex map holds at most four entries here.
SMALL_INTS = st.integers(-2, 4)
HUGE_INTS = st.sampled_from([10**12, 10**30, -(10**12), 2**64])
ROWS = st.text(alphabet="-+*", max_size=3)
LEAVES = (
    st.none() | st.booleans() | SMALL_INTS | HUGE_INTS | st.floats()
    | st.text(max_size=4) | ROWS
)
JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


def _or_json(strategy):
    return strategy | JSON


TEMPLATE_LEAF = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["crosspolytope", "barycentric_boundary", "nonsense"]),
        "n": _or_json(st.integers(-1, 12) | HUGE_INTS),
    }
)
TEMPLATES = st.recursive(
    TEMPLATE_LEAF,
    lambda children: st.fixed_dictionaries(
        {"kind": st.just("join"), "parts": st.lists(children, max_size=2)}
    )
    | st.fixed_dictionaries(
        {"kind": st.just("subdivided"), "base": children, "depth": st.integers(-1, 3)}
    ),
    max_leaves=2,
)
INDICES = st.lists(SMALL_INTS | HUGE_INTS | st.booleans() | st.text(max_size=1), max_size=3)
NUMBERS = SMALL_INTS | HUGE_INTS | st.floats() | st.lists(SMALL_INTS | HUGE_INTS, max_size=3)
VECTORS = st.lists(NUMBERS, max_size=2)
FUZZ_CLASS = family_class("threshold", 2)
TWO_POINT_CLASSES = st.lists(st.sampled_from(["--", "-+", "+-", "++"]), min_size=1, max_size=4)

PAYLOADS = {
    "complex": st.fixed_dictionaries(
        {
            "vertices": _or_json(st.lists(st.sampled_from(["0-", "0+", "1-", "1+", "a"]), max_size=4)),
            "maximal_simplices": _or_json(st.lists(INDICES, max_size=4)),
        },
        optional={"involution": _or_json(st.lists(st.none() | SMALL_INTS, max_size=4))},
    ),
    "witness": st.fixed_dictionaries(
        {
            "class": _or_json(TWO_POINT_CLASSES | st.lists(ROWS, max_size=4)),
            "template": _or_json(TEMPLATES),
            "vertex_map": _or_json(st.lists(st.lists(st.text(max_size=4), max_size=3), max_size=4)),
            "embedded": _or_json(st.booleans()),
            "target": JSON,
        }
    ),
    "cubical": st.fixed_dictionaries({"cubes": _or_json(st.lists(ROWS, max_size=6))}),
    "representation": st.fixed_dictionaries(
        {
            "d": _or_json(SMALL_INTS | HUGE_INTS),
            "phi": _or_json(
                st.fixed_dictionaries({"0": VECTORS, "1": VECTORS})
                | st.dictionaries(st.sampled_from(["0", "1", "2"]), VECTORS)
            ),
            "w": _or_json(
                st.fixed_dictionaries({row: VECTORS for row in FUZZ_CLASS.rows()})
                | st.dictionaries(st.sampled_from(list(FUZZ_CLASS.rows())), VECTORS)
            ),
        }
    ),
    "report": JSON,
}


def _load_text(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "artifact"
        p.write_text(text)
        return load(kind, p, cls=FUZZ_CLASS)


class TestLoadFuzz:
    """Any payload of any kind either loads or raises a typed input error."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(sorted(PAYLOADS)), data=st.data())
    def test_payload_loads_or_raises_typed(self, kind, data):
        payload = data.draw(PAYLOADS[kind] | JSON)
        text = json.dumps({"schema_version": "1", "kind": kind, "payload": payload})
        try:
            _load_text(kind, text)
        except (StorageError, ClassFormatError):
            pass

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["class", "complex", "witness", "cubical", "representation", "report"]), doc=JSON)
    def test_any_document_loads_or_raises_typed(self, kind, doc):
        try:
            _load_text(kind, json.dumps(doc))
        except (StorageError, ClassFormatError):
            pass


class TestCanonicalBytes:
    def test_store_load_store_stable(self, tmp_path):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
        store(w, p1)
        store(load("witness", p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_construction_reloads_byte_identically(self, tmp_path):
        hexagon = classify_low_vc(ConceptClass.from_strings(["+--", "-+-", "--+"]))
        w_u3 = barycentric_witness(family_class("universal", 3), (0, 1, 2))
        witnesses = [
            crosspolytope_witness(family_class("cube", 3), (0, 1, 2)),
            w_u3,
            join_witness(w_u3, crosspolytope_witness(family_class("cube", 1), (0,)))[0],
            hexagon.witness,
            sphere_from_disambiguation(pullback_disambiguation(w_u3)),
        ]
        p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
        for w in witnesses:
            store(w, p1)
            back = load("witness", p1)
            assert back == w
            store(back, p2)
            assert p1.read_bytes() == p2.read_bytes()
            # the stored vertex map names the antipodal subcomplex's vertices,
            # which are the class's label columns in the same order
            payload = json.loads(p1.read_text())["payload"]
            assert payload["target"] == complex_to_payload(antipodal_subcomplex(w.cls))
            assert [v for _, v in payload["vertex_map"]] == [
                point_label(x, s) for x, s in w.pairs
            ]


def json_oracle(envelope) -> str:
    """The canonical bytes as ``json`` writes them: the writer's oracle."""
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


# JSON documents with tuples beside lists, which json writes as lists
TUPLE_JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestCanonicalJson:
    """``canonical_json`` writes the bytes of ``json.dumps`` with sorted
    keys and a two-space indent, plus a newline."""

    def test_hand_built_envelope(self):
        payload = {
            "empty": [[], {}, [[]], [{}], {"inner": []}, {"inner": {}}, ()],
            "tuples": (1, (2, 3), ("a", (None,)), [(), ()]),
            "ints": [0, -1, 7, 10**30, -(2**64), True, False, None],
            "only ints": [3, -2, 10**40],
            "bools": [True, False],
            "floats": [0.0, -0.0, 0.1, 1e300, 1.5e-10, float("nan"), float("inf"), -float("inf")],
            "strings": ["", 'q"uote', "back\\slash", "\x00\x1f\n\t\x7f", "é中\U0001f600", "/"],
            "scalars": {"none": None, "true": True, "int": 5, "float": 2.5, "string": "s"},
            "keys": {"b": 1, "a": 2, "": 3, "B": 4, "é": 5, "a\"b": 6},
            "other keys": {3: "three", 1: {"z": [1]}},
            "nested": {"deep": {"deeper": [{"deepest": (1, [2, {"x": ()}])}]}},
        }
        doc = storage.envelope("report", payload)
        assert canonical_json(doc) == json_oracle(doc)
        for value in ({}, [], (), "", 0, None, [[[]]], {"a": {"b": {}}}):
            assert canonical_json(value) == json_oracle(value)

    @settings(max_examples=300, deadline=None)
    @given(doc=TUPLE_JSON)
    def test_any_document(self, doc):
        assert canonical_json(doc) == json_oracle(doc)

    def test_every_payload_of_the_bench_corpora(self, tmp_path, monkeypatch, capsys):
        """Every CLI op of the steady workloads, seeds 1 and 2, with each
        envelope the CLI writes checked against ``json.dumps``."""
        corpus = bench_corpus()
        kinds = []

        def checked(envelope):
            text = canonical_json(envelope)
            assert text == json_oracle(envelope)
            kinds.append(envelope["kind"])
            return text

        monkeypatch.setattr(cli, "canonical_json", checked)
        monkeypatch.setattr(storage, "canonical_json", checked)
        path = tmp_path / "class.cls"
        done = set()
        for workload in corpus.STEADY_WORKLOADS:
            for seed in (1, 2):
                built = corpus.build(workload, seed)
                for op in built.ops:
                    text = built.corpus[op.classes[0]]
                    if op.command == "roundtrip" or (op.args, text) in done:
                        continue
                    done.add((op.args, text))
                    path.write_text(text)
                    code = cli.main(list(op.args) + [str(path)])
                    stdout = capsys.readouterr().out
                    if op.command == "witness" and code == 0:
                        # a stored witness loads and stores again
                        (tmp_path / "w.json").write_text(stdout)
                        store(load("witness", tmp_path / "w.json"), tmp_path / "again.json")
                        assert (tmp_path / "again.json").read_text() == stdout
        counts = {kind: kinds.count(kind) for kind in set(kinds)}
        assert set(counts) == {"complex", "witness", "report"}
        assert min(counts.values()) > 20, counts
