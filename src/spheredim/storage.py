"""Shared parsing and serialization with a single envelope for all artifacts.

Class files are plain text (one row per line, '#' comments).  Every other
artifact is JSON wrapped in {"schema_version", "kind", "payload"} with
canonical formatting: sorted keys, two-space indent, sorted simplex indices,
one trailing newline.  ``canonical_json`` writes these bytes itself, in one
pass; they are those of ``json.dumps`` with sorted keys and an indent of 2,
which the tests keep as its oracle.  A stored complex's maximal simplices
load only in the form ``complex_to_payload`` writes: a list, in sorted
order, of strictly increasing vertex-index lists.  Every complex is a ``SimplicialComplex``;
one other than an ``AntipodalComplex`` stores its label flip as its
involution (``complexes.label_flip``, read from its point labels; all null
when no two labels name one point), and a stored involution loads only as
an antipodal one or as that label flip.
Store-then-load returns an equal value, with two exceptions.  A complex
whose label flip is total, simplicial and free of antipodal pairs, such as
the realizable complex of {--, ++}, stores the same bytes as the
``AntipodalComplex`` with that involution and loads as it.  And a witness's
template is built only when the vertex map lists its vertices and it has at
most ``complexes.DEFAULT_FACE_CAP`` faces, both read from the kind tree
first; past the face cap ``load`` raises ``CapExceededError``, so a witness
on a larger template stores but does not load.
Witnesses are reloaded against a target recomputed from the class alone
(``antipodal_subcomplex``), so a tampered file cannot smuggle in an
inconsistent complex; the loaded witness keeps that target, so storing it
again builds none.  A loaded witness must pass ``verify_witness``, so a
tampered vertex map or embedded flag is rejected too.
A loaded sign representation must pass ``verify_representation`` against its
class, so an edited vector that flips a sign is rejected.  Every payload
loads only with exactly the keys its writer writes, and a witness only with
its own transcript and two-label vertex map entries.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Union

from spheredim import complexes
from spheredim.concepts import (
    CapExceededError,
    ClassFormatError,
    ConceptClass,
    format_class,
    mask_of,
    parse_class,
)
from spheredim.complexes import (
    AntipodalComplex,
    SimplicialComplex,
    antipodal_subcomplex,
    complex_to_payload,
    label_flip,
)
from spheredim.extremal import CubicalComplex
from spheredim.signrank import (
    SignRepresentation,
    representation_from_payload,
    representation_payload,
    verify_representation,
)
from spheredim.spheres import (
    BarycentricBoundaryKind,
    CrosspolytopeKind,
    JoinKind,
    SphereWitness,
    SubdividedKind,
    TemplateKind,
    WitnessError,
    build_template,
    kind_from_payload,
    verify_witness,
)

SCHEMA_VERSION = "1"
KINDS = ("class", "complex", "witness", "cubical", "representation", "report")


class StorageError(ValueError):
    """Malformed artifact file, unknown kind, or version mismatch."""


def canonical_json(envelope: dict) -> str:
    """The bytes of ``json.dumps(envelope, sort_keys=True, indent=2)`` and a
    newline, written in one pass: with an indent, json always takes its
    pure-Python encoder, which stays only for the scalars written here."""
    out: list[str] = []
    _write_json(envelope, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` as json writes it with sorted keys and a two-space
    indent, its lines after the first starting with ``newline``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        if all(type(x) is int for x in value):  # bools are written by json
            out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
            return
        out.append("[")
        for i, item in enumerate(value):
            out.append("," + inner if i else inner)
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict) and value and all(type(k) is str for k in value):
        inner = newline + "  "
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(("," + inner if i else inner) + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
        out.append(newline + "}")
    else:  # a scalar, an empty container or a dict with other keys
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


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


def _maximal_masks(simplices, size: int) -> tuple[int, ...]:
    """The sorted masks of stored maximal simplices, held to the form the
    module docstring gives; each index is checked to be a vertex index
    first, so that a huge index cannot reach the shift."""
    if type(simplices) is not list or any(type(s) is not list for s in simplices):
        raise StorageError("maximal_simplices must be a list of index lists")
    for indices in simplices:
        for i in indices:
            if type(i) is not int or not 0 <= i < size:
                raise StorageError(f"a simplex index is not one of the {size} vertex indices")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise StorageError("a simplex must list its vertex indices strictly increasing")
    if simplices != sorted(simplices):
        raise StorageError("maximal_simplices must be in sorted order")
    return tuple(sorted(map(mask_of, simplices)))


def complex_from_payload(payload: dict):
    """Rebuild a complex: an ``AntipodalComplex`` when the stored involution
    is total and passes its axioms, else a ``SimplicialComplex``, whose
    stored involution must be the ``label_flip`` of its vertex labels."""
    vertices, inv = payload["vertices"], payload["involution"]
    if type(vertices) is not list or not all(type(v) is str for v in vertices):
        raise StorageError("vertices must be a list of string labels")
    if type(inv) is not list or len(inv) != len(vertices):
        raise StorageError("involution must be a list with one entry per vertex")
    for i, j in enumerate(inv):
        valid = type(j) is int and 0 <= j < len(inv) and j != i and inv[j] == i
        if j is not None and not valid:
            raise StorageError("involution entries must pair distinct vertices")
    vertices = tuple(vertices)
    maximal = _maximal_masks(payload["maximal_simplices"], len(vertices))
    # every key has been read by now, so a missing one fails as it did before
    _require_keys(payload, {"vertices", "involution", "maximal_simplices"}, "complex")
    reason = "it is partial"
    if None not in inv:
        try:
            return AntipodalComplex(vertices, maximal, tuple(inv))
        except ValueError as exc:
            reason = str(exc)  # such as a realizable complex whose flip is not simplicial
    base = SimplicialComplex(vertices, maximal)
    if tuple(inv) != label_flip(base):
        raise StorageError(f"involution is not the label flip of the vertex labels, and {reason}")
    return base


def _require_keys(payload: dict, keys: set[str], what: str) -> None:
    """Reject a payload whose keys are not exactly those its writer writes."""
    if set(payload) != keys:
        raise StorageError(f"{what} payload must have exactly the keys {sorted(keys)}")


def witness_payload(w: SphereWitness) -> dict:
    report = verify_witness(w)
    return {
        "class": list(w.cls.rows()),
        "template": w.template.kind_payload(),
        "vertex_map": [
            [w.template.complex.vertices[i], w.target.vertices[v]]
            for i, v in enumerate(w.vertex_map)
        ],
        "embedded": w.embedded,
        "target": complex_to_payload(w.target),
        "transcript": list(report.transcript)
        + ([] if report.ok else [f"FAILED {report.check}: {report.detail}"]),
    }


def _template_face_counts(kind: TemplateKind, limit: int) -> Optional[list[int]]:
    """Face counts by dimension of the template a kind tree names, or None
    once their total exceeds ``limit``; nothing is built.  A complex with
    at most ``limit`` faces has dimension below log2(limit + 1), so every
    list here stays that short."""
    if isinstance(kind, CrosspolytopeKind):
        n = kind.n
        if 2 * (n + 1) > limit:
            return None
        f: list[int] = []
        for i in range(n + 1):
            f.append(math.comb(n + 1, i + 1) << (i + 1))
            if sum(f) > limit:
                return None
        return f
    depth = 0
    if isinstance(kind, BarycentricBoundaryKind):
        n = kind.n
        if n + 2 > limit.bit_length() + 1:  # 2^(n+2) - 2 vertices
            return None
        # the boundary of the (n+1)-simplex, subdivided once below
        f = [math.comb(n + 2, i + 1) for i in range(n + 1)]
        depth = 1
    elif isinstance(kind, JoinKind):
        # the face polynomial 1 + sum f_i t^(i+1) is multiplicative
        poly = [1]
        for part in kind.parts:
            g = _template_face_counts(part, limit)
            if g is None:
                return None
            product = [0] * (len(poly) + len(g))
            for a, x in enumerate(poly):
                for b, y in enumerate([1] + g):
                    product[a + b] += x * y
            poly = product
            if sum(poly) - 1 > limit:
                return None
        f = poly[1:]
    else:
        depth = kind.depth
        f = _template_face_counts(kind.base, limit)
    # below dimension 1 a subdivision only relabels; above it every
    # subdivision adds faces, so the loop ends by the limit
    while depth and f is not None and len(f) > 1:
        f = complexes.subdivision_face_counts(f, lambda j, i: math.comb(j + 1, i + 1))
        depth -= 1
        if sum(f) > limit:
            return None
    return None if f is None or sum(f) > limit else f


def _template_vertex_count(kind: TemplateKind, limit: int) -> Optional[int]:
    """Vertex count of the template a kind tree names, or None once it
    exceeds ``limit``; nothing is built."""
    if isinstance(kind, CrosspolytopeKind):
        count = 2 * (kind.n + 1)
    elif isinstance(kind, BarycentricBoundaryKind):
        n = kind.n
        count = (1 << (n + 2)) - 2 if n + 2 <= limit.bit_length() + 1 else None
    elif isinstance(kind, JoinKind):
        count = 0
        for part in kind.parts:
            c = _template_vertex_count(part, limit - count)
            if c is None:
                return None
            count += c
    else:
        # a subdivision's vertices are the faces of the complex it subdivides
        inner = kind.base if kind.depth == 1 else SubdividedKind(kind.base, kind.depth - 1)
        f = _template_face_counts(inner, limit)
        count = None if f is None else sum(f)
    return None if count is None or count > limit else count


def _subdivision_depth(kind: TemplateKind) -> int:
    """The largest total subdivision depth on a path of a kind tree."""
    if isinstance(kind, JoinKind):
        return max(_subdivision_depth(p) for p in kind.parts)
    if isinstance(kind, SubdividedKind):
        return kind.depth + _subdivision_depth(kind.base)
    return 0


def witness_from_payload(payload: dict) -> SphereWitness:
    # the template is checked against the vertex map before it is built,
    # since a few bytes of kind tree can name an exponentially large sphere
    kind = kind_from_payload(payload["template"])
    size = len(payload["vertex_map"])
    count = _template_vertex_count(kind, size)
    if count != size:
        found = "more" if count is None else str(count)
        raise StorageError(f"template has {found} vertices but the vertex map lists {size}")
    # a subdivision of a 0-dimensional template keeps its vertex count but
    # wraps every label in one more pair of brackets, so the labels bound
    # the depth that can match them
    longest = max((len(pair[0]) for pair in payload["vertex_map"]), default=0)
    if 2 * _subdivision_depth(kind) > longest:
        raise StorageError(f"template is subdivided deeper than labels of {longest} characters allow")
    # a crosspolytope's vertex count is linear in n but its face count is
    # exponential, so the vertex map alone does not bound the build
    cap = complexes.DEFAULT_FACE_CAP
    if _template_face_counts(kind, cap) is None:
        raise CapExceededError(f"template has more faces than complexes.DEFAULT_FACE_CAP = {cap}")
    if type(payload["embedded"]) is not bool:
        raise StorageError("embedded must be true or false")
    # the checks that read only the class come before the template, whose
    # build can take exponential time, so a tampered target builds nothing
    cls = ConceptClass.from_strings(payload["class"])
    target = antipodal_subcomplex(cls)
    if complex_to_payload(target) != payload["target"]:
        raise StorageError("stored target does not match the class's antipodal complex")
    target_index = target.vertex_index()
    vmap = tuple(target_index[pair[1]] for pair in payload["vertex_map"])
    template = build_template(kind)
    tpl_vertices = template.complex.vertices
    if [pair[0] for pair in payload["vertex_map"]] != list(tpl_vertices):
        raise StorageError("vertex map does not cover the template vertices in order")
    witness = SphereWitness(template, vmap, cls, payload["embedded"])
    vars(witness)["target"] = target  # the checked target fills the cached property
    report = verify_witness(witness)
    if not report:
        raise StorageError(f"witness fails the {report.check} check: {report.detail}")
    # each pair's labels were matched above, so only its length is left
    if any(type(pair) is not list or len(pair) != 2 for pair in payload["vertex_map"]):
        raise StorageError("each vertex_map entry must be a list of two vertex labels")
    keys = {"class", "template", "vertex_map", "embedded", "target", "transcript"}
    _require_keys(payload, keys, "witness")
    if payload["template"] != template.kind_payload():
        raise StorageError("template kind tree must have exactly the keys store writes")
    if payload["transcript"] != list(report.transcript):
        raise StorageError("stored transcript does not match the witness's checks")
    return witness


def store(value, path: Union[str, Path], cls: Optional[ConceptClass] = None) -> None:
    """Serialize an artifact, of the kind its value type names; a sign
    representation needs its class."""
    path = Path(path)
    if isinstance(value, ConceptClass):
        path.write_text(format_class(value))
        return
    if isinstance(value, SimplicialComplex):
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
    else:
        raise StorageError(f"cannot store value of type {type(value).__name__}")
    path.write_text(canonical_json(envelope(kind, payload)))


def load(kind: str, path: Union[str, Path], cls: Optional[ConceptClass] = None):
    """Load a typed artifact; representations need their companion class,
    against which they are verified."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        error = ClassFormatError if kind == "class" else StorageError
        raise error(f"cannot decode {path}: {exc}") from exc
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
        value = CubicalComplex.from_strings(payload["cubes"])
        _require_keys(payload, {"cubes"}, "cubical")
        return value
    if kind == "representation":
        if cls is None:
            raise StorageError("loading a representation requires its class")
        rep = representation_from_payload(cls, payload)
        report = verify_representation(cls, rep)
        if not report:
            raise StorageError(f"representation fails its class: {report.reason}")
        return rep
    if kind == "report":
        return payload
    raise StorageError(f"unknown artifact kind {kind!r}")
