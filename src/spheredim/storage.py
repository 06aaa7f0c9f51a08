"""Shared parsing and serialization with a single envelope for all artifacts.

Class files are plain text (one row per line, '#' comments).  Every other
artifact is JSON wrapped in {"schema_version", "kind", "payload"} with
canonical formatting: sorted keys, two-space indent, sorted simplex indices,
one trailing newline.  Store-then-load returns an equal value; witnesses are
reloaded against a recomputed target so a tampered file cannot smuggle in an
inconsistent complex.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from spheredim.concepts import ClassFormatError, ConceptClass, format_class, parse_class
from spheredim.complexes import (
    AntipodalComplex,
    DeltaComplex,
    SimplicialComplex,
    complex_to_payload,
)
from spheredim.concepts import mask_of
from spheredim.extremal import CubicalComplex
from spheredim.signrank import (
    SignRepresentation,
    representation_from_payload,
    representation_payload,
)
from spheredim.spheres import (
    SphereWitness,
    WitnessError,
    delta_ant,
    template_from_payload,
    verify_witness,
)

SCHEMA_VERSION = "1"
KINDS = ("class", "complex", "witness", "cubical", "representation", "report")


class StorageError(ValueError):
    """Malformed artifact file, unknown kind, or version mismatch."""


def canonical_json(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def envelope(kind: str, payload) -> dict:
    if kind not in KINDS:
        raise StorageError(f"unknown artifact kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def open_envelope(text: str, kind: str) -> dict:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an over-long integer literal, or nesting too deep
        raise StorageError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"schema_version", "kind", "payload"}:
        raise StorageError("artifact must carry schema_version, kind, and payload")
    if data["schema_version"] != SCHEMA_VERSION:
        raise StorageError(f"unsupported schema version {data['schema_version']!r}")
    if data["kind"] not in KINDS:
        raise StorageError(f"unknown artifact kind {data['kind']!r}")
    if data["kind"] != kind:
        raise StorageError(f"expected kind {kind!r}, found {data['kind']!r}")
    return data["payload"]


def _parse_point_label(label: str) -> Optional[tuple[int, int]]:
    if len(label) >= 2 and label[-1] in "+-" and label[:-1].isdigit():
        return int(label[:-1]), +1 if label[-1] == "+" else -1
    return None


def _simplex_mask(indices, size: int) -> int:
    """Bitmask of a stored simplex, each index checked to be a vertex index
    first, so that a huge index cannot reach the shift."""
    indices = list(indices)
    for i in indices:
        if type(i) is not int or not 0 <= i < size:
            raise StorageError(f"a simplex index is not one of the {size} vertex indices")
    return mask_of(indices)


def complex_from_payload(payload: dict):
    """Rebuild a complex, preserving total or partial involutions."""
    vertices = tuple(payload["vertices"])
    maximal = tuple(
        sorted(_simplex_mask(s, len(vertices)) for s in payload["maximal_simplices"])
    )
    base = SimplicialComplex(vertices, maximal)
    inv = payload.get("involution") or [None] * len(vertices)
    if len(inv) != len(vertices):
        raise StorageError("involution length does not match the vertex list")
    points = tuple(_parse_point_label(v) for v in vertices)
    have_points = all(p is not None for p in points)
    if all(j is None for j in inv):
        return base
    if all(j is not None for j in inv):
        return AntipodalComplex(base, tuple(inv), points if have_points else None)
    if not have_points:
        raise StorageError("a partial involution requires point-pair vertex labels")
    return DeltaComplex(base, tuple(inv), points)


ComplexLike = Union[SimplicialComplex, AntipodalComplex, DeltaComplex]


def witness_payload(w: SphereWitness) -> dict:
    report = verify_witness(w)
    return {
        "class": list(w.cls.rows()),
        "template": w.template.kind_payload(),
        "vertex_map": [
            [w.template.complex.complex.vertices[i], w.target.complex.vertices[v]]
            for i, v in enumerate(w.vertex_map)
        ],
        "embedded": w.embedded,
        "target": complex_to_payload(w.target),
        "transcript": list(report.transcript)
        + ([] if report.ok else [f"FAILED {report.check}: {report.detail}"]),
    }


def witness_from_payload(payload: dict) -> SphereWitness:
    cls = ConceptClass.from_strings(payload["class"])
    template = template_from_payload(payload["template"])
    target = delta_ant(cls)
    if complex_to_payload(target) != payload["target"]:
        raise StorageError("stored target does not match the class's antipodal complex")
    target_index = target.complex.vertex_index()
    tpl_vertices = template.complex.complex.vertices
    if [pair[0] for pair in payload["vertex_map"]] != list(tpl_vertices):
        raise StorageError("vertex map does not cover the template vertices in order")
    vmap = tuple(target_index[pair[1]] for pair in payload["vertex_map"])
    return SphereWitness(template, vmap, target, cls, payload["embedded"])


def store(value, path: Union[str, Path], kind: Optional[str] = None, cls: Optional[ConceptClass] = None) -> None:
    """Serialize an artifact; the kind is inferred from the value type unless
    given (a report dict requires kind="report")."""
    path = Path(path)
    if isinstance(value, ConceptClass):
        path.write_text(format_class(value))
        return
    if isinstance(value, (SimplicialComplex, AntipodalComplex, DeltaComplex)):
        payload = complex_to_payload(value)
        kind = "complex"
    elif isinstance(value, SphereWitness):
        payload = witness_payload(value)
        kind = "witness"
    elif isinstance(value, CubicalComplex):
        payload = {"cubes": sorted(value.rows())}
        kind = "cubical"
    elif isinstance(value, SignRepresentation):
        if cls is None:
            raise StorageError("storing a representation requires its class")
        payload = representation_payload(cls, value)
        kind = "representation"
    elif isinstance(value, dict) and kind == "report":
        payload = value
    else:
        raise StorageError(f"cannot store value of type {type(value).__name__}")
    path.write_text(canonical_json(envelope(kind, payload)))


def load(kind: str, path: Union[str, Path], cls: Optional[ConceptClass] = None):
    """Load a typed artifact; representations need their companion class."""
    path = Path(path)
    text = path.read_text()
    if kind == "class":
        return parse_class(text)
    payload = open_envelope(text, kind)
    try:
        return _decode(kind, payload, cls)
    except (StorageError, ClassFormatError, WitnessError):
        raise
    except (
        KeyError, IndexError, TypeError, AttributeError, ValueError,
        ArithmeticError, RecursionError,
    ) as exc:
        raise StorageError(f"malformed {kind} payload: {exc!r}") from exc


def _decode(kind: str, payload, cls: Optional[ConceptClass]):
    if kind == "complex":
        return complex_from_payload(payload)
    if kind == "witness":
        return witness_from_payload(payload)
    if kind == "cubical":
        return CubicalComplex.from_strings(payload["cubes"])
    if kind == "representation":
        if cls is None:
            raise StorageError("loading a representation requires its class")
        return representation_from_payload(cls, payload)
    if kind == "report":
        return payload
    raise StorageError(f"unknown artifact kind {kind!r}")
