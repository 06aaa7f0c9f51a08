"""Antipodal domains and the disambiguation <-> sphere equivalence.

An antipodal domain is a point set with a fixed-point-free involution and a
representation map choosing one point per antipodal pair.  Symmetrization
forces every hypothesis to be antipodal (h(-x) = -h(x)) by flipping values at
non-representative points of non-antipodal pairs; antipodal extension doubles
the domain with flipped labels, turning any class into an antipodal one
losslessly, and restriction to representatives undoes it.

A class on the vertex set of a sphere template disambiguates the template when
every maximal simplex s (and so every face of s) has a hypothesis that is
constantly positive on s and constantly negative on -s.  Pulling a verified
sphere witness back along its vertex map, one transpose of the class's label
columns, produces such a disambiguation; conversely an antipodal
disambiguation yields an embedded witness of the same dimension for the
restriction of the disambiguation to representatives.  Both constructions are
machine-checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from spheredim.concepts import ConceptClass, PartialHypothesis, bits, columns, transpose
from spheredim.spheres import (
    SphereTemplate,
    SphereWitness,
    WitnessError,
    verify_witness,
    witness_on,
)


@dataclass(frozen=True)
class AntipodalDomain:
    """Points with a fixed-point-free involution and a representation map.

    ``representative[x]`` equals ``representative[pairing[x]]`` and is one of
    the two points of the pair.
    """

    size: int
    pairing: tuple[int, ...]
    representative: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.pairing) != self.size or len(self.representative) != self.size:
            raise ValueError("maps must cover the whole domain")
        for x, y in enumerate(self.pairing):
            if not 0 <= y < self.size or y == x or self.pairing[y] != x:
                raise ValueError("pairing must be a fixed-point-free involution")
            r = self.representative[x]
            if r not in (x, y) or self.representative[y] != r:
                raise ValueError("representation must pick one point per pair")

    @classmethod
    def standard(cls, n: int) -> "AntipodalDomain":
        """The doubled domain (x, +) at x and (x, -) at n + x."""
        pairing = tuple((x + n) % (2 * n) for x in range(2 * n))
        rep = tuple(x % n for x in range(2 * n))
        return cls(2 * n, pairing, rep)

    @classmethod
    def from_pairing(cls, pairing: tuple[int, ...]) -> "AntipodalDomain":
        """The domain whose representative of each pair is its smaller point."""
        representative = tuple(min(x, pairing[x]) for x in range(len(pairing)))
        return cls(len(pairing), pairing, representative)

    def representatives(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.representative)))


def is_antipodal_class(cls: ConceptClass, domain: AntipodalDomain) -> bool:
    """True when every hypothesis satisfies h(-x) = -h(x): when the columns
    at the two points of each pair are complementary."""
    if domain.size != cls.domain_size:
        raise ValueError("domain size mismatch")
    full = (1 << len(cls)) - 1
    cols = columns(cls.domain_size, cls.hypotheses)
    return all(cols[x] ^ cols[y] == full for x, y in enumerate(domain.pairing) if x < y)


def symmetrize(cls: ConceptClass, domain: AntipodalDomain) -> ConceptClass:
    """Symmetrization by the domain's representation map, duplicates collapsed:
    each point takes its representative's value, flipped unless it is the
    representative, so values already antipodal on their pair are kept."""
    cls.require_total("symmetrize")
    if domain.size != cls.domain_size:
        raise ValueError("domain size mismatch")
    out: list[PartialHypothesis] = []
    seen: set[int] = set()
    for h in cls.hypotheses:
        plus = 0
        for x, r in enumerate(domain.representative):
            if bool(h.plus >> r & 1) == (r == x):
                plus |= 1 << x
        if plus not in seen:
            seen.add(plus)
            out.append(PartialHypothesis.total(domain.size, plus))
    result = ConceptClass(domain.size, tuple(out))
    if not is_antipodal_class(result, domain):
        raise AssertionError("symmetrization produced a non-antipodal class")
    return result


def antipodal_extension(cls: ConceptClass) -> tuple[ConceptClass, AntipodalDomain]:
    """Double the domain with flipped labels: h^a(x, y) = y * h(x)."""
    cls.require_total("antipodal_extension")
    n = cls.domain_size
    full = (1 << n) - 1
    domain = AntipodalDomain.standard(n)
    hyps = tuple(
        PartialHypothesis.total(2 * n, h.plus | ((full & ~h.plus) << n))
        for h in cls.hypotheses
    )
    out = ConceptClass(2 * n, hyps)
    if not is_antipodal_class(out, domain):
        raise AssertionError("antipodal extension produced a non-antipodal class")
    return out, domain


def representatives_restriction(
    cls: ConceptClass, domain: AntipodalDomain
) -> tuple[ConceptClass, tuple[int, ...]]:
    """Restriction of an antipodal class to the representative points.

    Returns the restricted class together with the representative points in
    the order used for the new domain.  Antipodal hypotheses are determined
    by their representative values, so no duplicates can arise.
    """
    if not is_antipodal_class(cls, domain):
        raise WitnessError("restriction to representatives requires an antipodal class")
    reps = domain.representatives()
    return cls.restrict(reps), reps


# --- disambiguations ------------------------------------------------------


@dataclass(frozen=True)
class Disambiguation:
    """A total class on the vertex set of a sphere template."""

    cls: ConceptClass
    template: SphereTemplate

    def __post_init__(self) -> None:
        if self.cls.domain_size != len(self.template.complex.vertices):
            raise ValueError("vertex sets of class and template must match")

    @cached_property
    def domain(self) -> AntipodalDomain:
        """The template's involution, each pair represented by its smaller vertex."""
        return AntipodalDomain.from_pairing(self.template.complex.involution)


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
    antipodal = is_antipodal_class(d.cls, d.domain)
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
    dimension for its restriction to the representatives of its domain.

    The vertex map sends v to (r(v), +) when v is its own representative and
    to (r(v), -) otherwise.
    """
    check = check_disambiguates(d)
    if not check.antipodal:
        raise WitnessError("sphere extraction requires an antipodal disambiguation")
    if not check:
        raise WitnessError(
            f"class does not disambiguate the template at {check.failing_simplex}"
        )
    reps = d.domain.representatives()
    rep_pos = {x: j for j, x in enumerate(reps)}
    pairs = [(rep_pos[r], +1 if r == v else -1) for v, r in enumerate(d.domain.representative)]
    return witness_on(d.template, pairs, d.cls.restrict(reps), True, "extracted sphere")
