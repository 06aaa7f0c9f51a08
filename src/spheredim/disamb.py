"""Antipodal domains and the disambiguation <-> sphere equivalence.

An antipodal domain is a point set with a fixed-point-free involution and a
representation map choosing one point per antipodal pair.  Symmetrization
forces every hypothesis to be antipodal (h(-x) = -h(x)) by flipping values at
non-representative points of non-antipodal pairs; antipodal extension doubles
the domain with flipped labels, turning any class into an antipodal one
losslessly, and restriction to representatives undoes it.

A class on the vertex set of a simplicial sphere template disambiguates the
template when every simplex s has a hypothesis that is constantly positive on
s and constantly negative on -s.  Pulling a verified sphere witness back
along its vertex map produces such a disambiguation; conversely an antipodal
disambiguation yields an embedded witness of the same dimension for the
restriction of the disambiguation to representatives.  Both constructions are
machine-checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from spheredim.concepts import ConceptClass, PartialHypothesis, bits
from spheredim.spheres import (
    SphereTemplate,
    SphereWitness,
    WitnessError,
    verify_witness,
    witness_on,
)

DEFAULT_SIMPLEX_CAP = 10**6


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
    """True when every hypothesis satisfies h(-x) = -h(x)."""
    if domain.size != cls.domain_size:
        raise ValueError("domain size mismatch")
    for h in cls.hypotheses:
        for x, y in enumerate(domain.pairing):
            if bool(h.plus & (1 << x)) == bool(h.plus & (1 << y)):
                return False
    return True


def symmetrize(cls: ConceptClass, domain: AntipodalDomain) -> ConceptClass:
    """Symmetrization by the domain's representation map, duplicates collapsed.

    Values already antipodal on their pair are kept; otherwise the
    representative keeps its value and the other point is flipped.
    """
    cls.require_total("symmetrize")
    if domain.size != cls.domain_size:
        raise ValueError("domain size mismatch")
    out: list[PartialHypothesis] = []
    seen: set[int] = set()
    for h in cls.hypotheses:
        plus = 0
        for x in range(domain.size):
            y = domain.pairing[x]
            value = bool(h.plus & (1 << x))
            opposite = bool(h.plus & (1 << y))
            if value != opposite:
                keep = value
            elif domain.representative[x] == x:
                keep = value
            else:
                keep = not value
            if keep:
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
    domain: AntipodalDomain
    template: SphereTemplate

    def __post_init__(self) -> None:
        n = len(self.template.complex.vertices)
        if self.domain.size != n or self.cls.domain_size != n:
            raise ValueError("vertex sets of class, domain, and template must match")
        if self.domain.pairing != self.template.complex.involution:
            raise ValueError("domain pairing must equal the template antipodality")


@dataclass(frozen=True)
class DisambiguationReport:
    ok: bool
    antipodal: bool
    simplices_checked: int
    failing_simplex: Optional[tuple[str, ...]]

    def __bool__(self) -> bool:
        return self.ok


def check_disambiguates(d: Disambiguation) -> DisambiguationReport:
    """Check that every template simplex is covered sign-consistently.

    For an antipodal class the maximal simplices suffice, since a hypothesis
    positive on a simplex restricts to its faces; otherwise the full closure
    is enumerated under ``DEFAULT_SIMPLEX_CAP``.
    """
    tc = d.template.complex
    antipodal = is_antipodal_class(d.cls, d.domain)
    if antipodal:
        simplices = list(tc.maximal)
    else:
        simplices = sorted(tc.all_simplices(DEFAULT_SIMPLEX_CAP))
    checked = 0
    for s in simplices:
        neg = tc.map_simplex(s)
        good = any(
            (h.plus & s) == s and (h.plus & neg) == 0 for h in d.cls.hypotheses
        )
        checked += 1
        if not good:
            labels = tuple(tc.vertices[i] for i in bits(s))
            return DisambiguationReport(False, antipodal, checked, labels)
    return DisambiguationReport(True, antipodal, checked, None)


def pullback_disambiguation(witness: SphereWitness) -> Disambiguation:
    """Pull the antipodal extension of the witness's class back along the
    witness map, yielding an antipodal disambiguation of the template."""
    report = verify_witness(witness)
    if not report:
        raise WitnessError(f"pullback requires a verified witness: {report.detail}")
    source = witness.cls
    n = source.domain_size
    ext, _ext_domain = antipodal_extension(source)
    tc = witness.template.complex
    num_vertices = len(tc.vertices)

    ext_index = [x if s > 0 else n + x for x, s in witness.pairs]

    pulled: list[PartialHypothesis] = []
    seen: set[int] = set()
    for h in ext.hypotheses:
        plus = 0
        for i, j in enumerate(ext_index):
            if h.plus & (1 << j):
                plus |= 1 << i
        if plus not in seen:
            seen.add(plus)
            pulled.append(PartialHypothesis.total(num_vertices, plus))
    domain = AntipodalDomain.from_pairing(tc.involution)
    d = Disambiguation(ConceptClass(num_vertices, tuple(pulled)), domain, witness.template)
    if not is_antipodal_class(d.cls, d.domain):
        raise AssertionError("pullback produced a non-antipodal class")
    check = check_disambiguates(d)
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
    if not is_antipodal_class(d.cls, d.domain):
        raise WitnessError("sphere extraction requires an antipodal disambiguation")
    check = check_disambiguates(d)
    if not check:
        raise WitnessError(
            f"class does not disambiguate the template at {check.failing_simplex}"
        )
    restricted, reps = representatives_restriction(d.cls, d.domain)
    rep_pos = {x: j for j, x in enumerate(reps)}
    pairs = [(rep_pos[r], +1 if r == v else -1) for v, r in enumerate(d.domain.representative)]
    return witness_on(d.template, pairs, restricted, True, "extracted sphere")
