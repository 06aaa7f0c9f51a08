"""Sign-rank certificate verification and product combination.

A d-dimensional sign representation assigns a real vector to every domain
point and every hypothesis so that the sign of each inner product reproduces
the hypothesis value.  Only verification and the direct-sum product
construction are provided; searching for representations is out of scope.

Integer and rational certificates are checked with exact arithmetic and any
zero inner product is a violation; floating-point certificates use an
ambiguity threshold below which a sign is considered indeterminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional, Union

from spheredim.concepts import ConceptClass, product_class

Number = Union[int, Fraction, float]

AMBIGUITY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class SignRepresentation:
    """Vectors phi (per domain point) and w (per hypothesis), all of length d."""

    dimension: int
    point_vectors: tuple[tuple[Number, ...], ...]
    hyp_vectors: tuple[tuple[Number, ...], ...]

    def __post_init__(self) -> None:
        for vec in self.point_vectors + self.hyp_vectors:
            if len(vec) != self.dimension:
                raise ValueError("vector length does not match the dimension")

    @property
    def is_exact(self) -> bool:
        return all(
            not isinstance(entry, float)
            for vec in self.point_vectors + self.hyp_vectors
            for entry in vec
        )

    @cached_property
    def reports(self) -> dict[ConceptClass, "RepresentationReport"]:
        """The report of ``verify_representation`` for each class it has
        checked this representation against, kept with the instance: every
        field is frozen, so a report cannot change.  Not a field, so it
        stays out of eq, hash and repr; a modified copy is a new object and
        is checked afresh."""
        return {}


@dataclass(frozen=True)
class RepresentationReport:
    ok: bool
    hypothesis: Optional[int]
    point: Optional[int]
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def verify_representation(
    cls: ConceptClass, rep: SignRepresentation
) -> RepresentationReport:
    """Check sign<w(h), phi(x)> = h(x) for every pair, reporting the first
    violation.  Ambiguous signs (zero, or tiny for float input) violate.
    The checks run once per representation object and class; later calls
    return the report ``rep.reports`` kept."""
    report = rep.reports.get(cls)
    if report is None:
        report = rep.reports[cls] = _check_representation(cls, rep)
    return report


def _check_representation(
    cls: ConceptClass, rep: SignRepresentation
) -> RepresentationReport:
    cls.require_total("verify_representation")
    if len(rep.point_vectors) != cls.domain_size or len(rep.hyp_vectors) != len(cls):
        raise ValueError("representation does not match the class shape")
    for j, h in enumerate(cls.hypotheses):
        wv = rep.hyp_vectors[j]
        for x, pv in enumerate(rep.point_vectors):
            dot = sum(map(mul, wv, pv))
            # only a nonzero sum below the threshold depends on exactness
            if dot == 0 or (abs(dot) < AMBIGUITY_THRESHOLD and not rep.is_exact):
                return RepresentationReport(
                    False, j, x, f"ambiguous sign at hypothesis {j}, point {x}"
                )
            if (dot > 0) != bool(h.plus >> x & 1):
                return RepresentationReport(
                    False, j, x, f"wrong sign at hypothesis {j}, point {x}"
                )
    return RepresentationReport(True, None, None, "verified")


def product_representation(
    a_cls: ConceptClass,
    a_rep: SignRepresentation,
    b_cls: ConceptClass,
    b_rep: SignRepresentation,
) -> tuple[SignRepresentation, ConceptClass]:
    """Direct-sum representation for the product class, dimension dA + dB.

    Points of the first factor get (phi1(x), 0), points of the second
    (0, phi2(x)); the hypothesis h1 x h2 gets (w1(h1), w2(h2)).  Both inputs
    must verify, and the result is verified before it is returned.
    """
    for cls, rep in ((a_cls, a_rep), (b_cls, b_rep)):
        report = verify_representation(cls, rep)
        if not report:
            raise ValueError(f"unverified input representation: {report.reason}")
    da, db = a_rep.dimension, b_rep.dimension
    zeros_a = (0,) * da
    zeros_b = (0,) * db
    points = tuple(tuple(v) + zeros_b for v in a_rep.point_vectors) + tuple(
        zeros_a + tuple(v) for v in b_rep.point_vectors
    )
    hyps = tuple(
        tuple(wa) + tuple(wb)
        for wa in a_rep.hyp_vectors
        for wb in b_rep.hyp_vectors
    )
    product = product_class(a_cls, b_cls)
    rep = SignRepresentation(da + db, points, hyps)
    report = verify_representation(product, rep)
    if not report:
        raise AssertionError(f"product representation failed: {report.reason}")
    return rep, product


def universal_representation(n: int) -> SignRepresentation:
    """The standard-basis certificate for the universal class: w(h_i) = e_i
    and phi(S) has entry +1 at members of S, -1 elsewhere."""
    if n < 1:
        raise ValueError("n must be >= 1")
    points = tuple(
        tuple(1 if s & (1 << i) else -1 for i in range(n)) for s in range(1 << n)
    )
    hyps = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    return SignRepresentation(n, points, hyps)


def representation_payload(cls: ConceptClass, rep: SignRepresentation) -> dict:
    """Canonical JSON payload keyed by point index and hypothesis row."""
    def encode(v: Number):
        if isinstance(v, Fraction):
            return [v.numerator, v.denominator] if v.denominator != 1 else v.numerator
        return v

    return {
        "d": rep.dimension,
        "phi": {
            str(x): [encode(v) for v in rep.point_vectors[x]]
            for x in range(cls.domain_size)
        },
        "w": {
            str(h): [encode(v) for v in rep.hyp_vectors[j]]
            for j, h in enumerate(cls.hypotheses)
        },
    }


def representation_from_payload(cls: ConceptClass, payload: dict) -> SignRepresentation:
    """The representation a stored payload names.  Raises ValueError unless
    ``d`` is an int and every entry is an int, a float or a ``[num, den]``
    pair of ints in lowest terms with ``den > 1`` (the form
    ``representation_payload`` writes), a bool counting as none of these, so
    that an edited file cannot load as an equal value that stores other
    bytes."""
    def decode(v) -> Number:
        if type(v) is list and len(v) == 2 and all(type(e) is int for e in v):
            num, den = v
            if den <= 1 or gcd(num, den) != 1:
                raise ValueError(f"vector entry {v!r} is not a fraction in lowest terms")
            return Fraction(num, den)
        if type(v) in (int, float):
            return v
        raise ValueError(f"vector entry {v!r} is not an int, a float or an [int, int] pair")

    if type(payload["d"]) is not int:
        raise ValueError("representation dimension d must be an integer")

    points = tuple(
        tuple(decode(v) for v in payload["phi"][str(x)])
        for x in range(cls.domain_size)
    )
    hyps = tuple(
        tuple(decode(v) for v in payload["w"][str(h)]) for h in cls.hypotheses
    )
    return SignRepresentation(payload["d"], points, hyps)
