"""Disambiguations of sphere templates and the disambiguation <-> sphere
equivalence.

A class on the vertex set of a sphere template disambiguates the template when
every maximal simplex s (and so every face of s) has a hypothesis that is
constantly positive on s and constantly negative on -s.  The antipodes are
the template's involution: a class is antipodal when h(-v) = -h(v) for every
hypothesis h and vertex v, and each pair is represented by its smaller
vertex.  Pulling a verified sphere witness back along its vertex map, one
transpose of the class's label columns, produces an antipodal
disambiguation; conversely an antipodal disambiguation yields an embedded
witness of the same dimension for the restriction of the disambiguation to
representatives.  Both constructions are machine-checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from spheredim.concepts import ConceptClass, PartialHypothesis, bits, columns, transpose
from spheredim.spheres import (
    SphereTemplate,
    SphereWitness,
    WitnessError,
    verify_witness,
    witness_on,
)


def is_antipodal_class(cls: ConceptClass, involution: tuple[int, ...]) -> bool:
    """True when every hypothesis satisfies h(-x) = -h(x) for the given
    involution: when the columns at the two points of each pair are
    complementary."""
    if len(involution) != cls.domain_size:
        raise ValueError("domain size mismatch")
    full = (1 << len(cls)) - 1
    cols = columns(cls.domain_size, cls.hypotheses)
    return all(cols[x] ^ cols[y] == full for x, y in enumerate(involution) if x < y)


@dataclass(frozen=True)
class Disambiguation:
    """A total class on the vertex set of a sphere template."""

    cls: ConceptClass
    template: SphereTemplate

    def __post_init__(self) -> None:
        if self.cls.domain_size != len(self.template.complex.vertices):
            raise ValueError("vertex sets of class and template must match")


@dataclass(frozen=True)
class DisambiguationReport:
    ok: bool
    antipodal: bool
    simplices_checked: int
    failing_simplex: Optional[tuple[str, ...]]

    def __bool__(self) -> bool:
        return self.ok


def check_disambiguates(d: Disambiguation) -> DisambiguationReport:
    """Check that every template simplex is covered sign-consistently, on the
    maximal simplices: a hypothesis positive on s and negative on s's image
    covers each face f of s too, since f's image lies inside s's image."""
    tc = d.template.complex
    antipodal = is_antipodal_class(d.cls, tc.involution)
    for checked, s in enumerate(tc.maximal, 1):
        neg = tc.map_simplex(s)
        if not any((h.plus & s) == s and (h.plus & neg) == 0 for h in d.cls.hypotheses):
            labels = tuple(tc.vertices[i] for i in bits(s))
            return DisambiguationReport(False, antipodal, checked, labels)
    return DisambiguationReport(True, antipodal, len(tc.maximal), None)


def pullback_disambiguation(witness: SphereWitness) -> Disambiguation:
    """Pull the witness's class back along the witness map, yielding an
    antipodal disambiguation of the template.

    Concept j is positive at template vertex v iff it carries the labelled
    point that v maps to, so the pulled concepts are one transpose of the
    class's label columns; repeats collapse in concept order.
    """
    report = verify_witness(witness)
    if not report:
        raise WitnessError(f"pullback requires a verified witness: {report.detail}")
    masks = witness.cls.label_columns.masks
    n = len(witness.template.complex.vertices)
    pulled = dict.fromkeys(transpose(len(witness.cls), (masks[u] for u in witness.vertex_map)))
    cls = ConceptClass(n, tuple(PartialHypothesis.total(n, plus) for plus in pulled))
    d = Disambiguation(cls, witness.template)
    check = check_disambiguates(d)
    if not check.antipodal:
        raise AssertionError("pullback produced a non-antipodal class")
    if not check:
        raise AssertionError(
            f"pullback failed to disambiguate simplex {check.failing_simplex}"
        )
    return d


def sphere_from_disambiguation(d: Disambiguation) -> SphereWitness:
    """Turn an antipodal disambiguation into an embedded witness of the same
    dimension for its restriction to the representatives: the vertices v
    below their antipode inv[v], in increasing order.

    The vertex map sends v to (r, +) when v is the representative r of its
    pair and to (r, -) when its antipode is.  The template's complex has
    already checked that its involution pairs the vertices without fixed
    points.
    """
    check = check_disambiguates(d)
    if not check.antipodal:
        raise WitnessError("sphere extraction requires an antipodal disambiguation")
    if not check:
        raise WitnessError(
            f"class does not disambiguate the template at {check.failing_simplex}"
        )
    inv = d.template.complex.involution
    reps = [v for v, u in enumerate(inv) if v < u]
    rep_pos = {v: j for j, v in enumerate(reps)}
    pairs = [(rep_pos[min(v, u)], +1 if v < u else -1) for v, u in enumerate(inv)]
    return witness_on(d.template, pairs, d.cls.restrict(reps), True, "extracted sphere")
