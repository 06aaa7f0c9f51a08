"""Round-trip and validation tests for artifact storage."""

import json

import pytest

from spheredim.concepts import ConceptClass, family_class
from spheredim.complexes import AntipodalComplex, DeltaComplex, SimplicialComplex, realizable_complex
from spheredim.extremal import CubicalComplex, cubical_complex
from spheredim.signrank import universal_representation, verify_representation
from spheredim.spheres import crosspolytope_witness, verify_witness
from spheredim.storage import StorageError, load, store


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
        from spheredim.complexes import antipodal_subcomplex

        ant = antipodal_subcomplex(realizable_complex(family_class("cube", 2)))
        p = tmp_path / "ant.json"
        store(ant, p)
        back = load("complex", p)
        assert isinstance(back, AntipodalComplex)
        assert back == ant

    def test_delta_with_partial_involution(self, tmp_path):
        delta = realizable_complex(
            ConceptClass.from_strings(["---", "-+-", "+--", "++-"])
        )
        p = tmp_path / "delta.json"
        store(delta, p)
        back = load("complex", p)
        assert isinstance(back, DeltaComplex)
        assert back == delta

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

    def test_tampered_target_rejected(self, tmp_path):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p = tmp_path / "w.json"
        store(w, p)
        data = json.loads(p.read_text())
        data["payload"]["target"]["maximal_simplices"] = [[0, 2]]
        p.write_text(json.dumps(data))
        with pytest.raises(StorageError):
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


class TestRepresentationRoundtrip:
    def test_universal(self, tmp_path):
        cls = family_class("universal", 3)
        rep = universal_representation(3)
        p = tmp_path / "rep.json"
        store(rep, p, cls=cls)
        back = load("representation", p, cls=cls)
        assert back == rep
        assert verify_representation(cls, back)

    def test_class_required(self, tmp_path):
        rep = universal_representation(2)
        with pytest.raises(StorageError):
            store(rep, tmp_path / "rep.json")


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

    def test_out_of_range_simplex(self, tmp_path):
        payload = {"vertices": ["a", "b"], "maximal_simplices": [[0, 5]]}
        with pytest.raises(StorageError):
            load("complex", self.write(tmp_path, "complex", payload))

    def test_empty_cubical_payload(self, tmp_path):
        with pytest.raises(StorageError):
            load("cubical", self.write(tmp_path, "cubical", {}))


class TestCanonicalBytes:
    def test_store_load_store_stable(self, tmp_path):
        w = crosspolytope_witness(family_class("cube", 2), (0, 1))
        p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
        store(w, p1)
        store(load("witness", p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
