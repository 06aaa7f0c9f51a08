"""Certified simplicial-sphere templates and equivariant witness maps.

A witness is a pair: a sphere template from a closed family (crosspolytope
boundaries, barycentric boundaries of simplex boundaries, joins, and
barycentric subdivisions of these, each certified by construction) and a
vertex map into the antipodal subcomplex of a class's realizable complex.
Verification checks, in order: the template invariants, simpliciality of the
map on maximal simplices, equivariance on every vertex, and agreement of the
embedded flag with injectivity.  The map is checked against the class's own
label columns (``ConceptClass.label_columns``), which index the antipodal
subcomplex's vertices and answer its simplex queries, so no complex is built
to verify a witness.  General sphere recognition is deliberately not
attempted.

Lower bounds on the spherical dimension come from three constructions: a
shattered m-set yields a crosspolytope witness of dimension m-1; a dually
antipodally shattered k-set of hypotheses yields a barycentric witness of
dimension k-2; and witnesses for two factors join to a witness for their
product of dimension d1+d2+1.  Sound upper bounds come from the dimension of
the antipodal subcomplex (the largest Hamming distance between two
hypotheses, minus one), extremality, the VC<=1 theorem, and the threshold
classification.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from spheredim.concepts import (
    CapExceededError,
    ConceptClass,
    bits,
    dual_antipodal_witnesses,
    dual_class,
    mask_of,
    max_hamming_distance,
    max_shattered_set,
    popcount,
    product_class,
    shatters,
)
from spheredim.complexes import (
    AntipodalComplex,
    SimplicialComplex,
    antipodal_subcomplex,
    barycentric_subdivision,
    cross_label,
    join_complex,
    subset_label,
)
from spheredim.signrank import SignRepresentation, verify_representation

if TYPE_CHECKING:
    from spheredim.extremal import ExtremalityReport, LowVcClassification


class WitnessError(ValueError):
    """A witness constructor's precondition failed."""


# --- templates ----------------------------------------------------------


@dataclass(frozen=True)
class CrosspolytopeKind:
    n: int


@dataclass(frozen=True)
class BarycentricBoundaryKind:
    n: int


@dataclass(frozen=True)
class JoinKind:
    parts: tuple["TemplateKind", ...]


@dataclass(frozen=True)
class SubdividedKind:
    base: "TemplateKind"
    depth: int


TemplateKind = Union[CrosspolytopeKind, BarycentricBoundaryKind, JoinKind, SubdividedKind]


@dataclass(frozen=True)
class SphereTemplate:
    """A simplicial n-sphere from the certified closed family."""

    kind: TemplateKind
    complex: AntipodalComplex

    @property
    def dimension(self) -> int:
        return _kind_dimension(self.kind)

    def kind_payload(self) -> dict:
        return _kind_payload(self.kind)


def _kind_dimension(kind: TemplateKind) -> int:
    if isinstance(kind, (CrosspolytopeKind, BarycentricBoundaryKind)):
        return kind.n
    if isinstance(kind, JoinKind):
        return sum(_kind_dimension(p) for p in kind.parts) + len(kind.parts) - 1
    return _kind_dimension(kind.base)


def _kind_payload(kind: TemplateKind) -> dict:
    if isinstance(kind, CrosspolytopeKind):
        return {"kind": "crosspolytope", "n": kind.n}
    if isinstance(kind, BarycentricBoundaryKind):
        return {"kind": "barycentric_boundary", "n": kind.n}
    if isinstance(kind, JoinKind):
        return {"kind": "join", "parts": [_kind_payload(p) for p in kind.parts]}
    return {"kind": "subdivided", "base": _kind_payload(kind.base), "depth": kind.depth}


def kind_from_payload(payload: dict) -> TemplateKind:
    """The kind tree a stored dict names, without building it.  Raises
    ValueError on an unknown kind, an empty join, or an ``n`` or ``depth``
    that is not an int (a bool is not one) of at least its least value."""

    def param(key: str, least: int) -> int:
        value = payload[key]
        if type(value) is not int or value < least:
            raise ValueError(f"template {key} must be an integer >= {least}")
        return value

    kind = payload["kind"]
    if kind == "crosspolytope":
        return CrosspolytopeKind(param("n", 0))
    if kind == "barycentric_boundary":
        return BarycentricBoundaryKind(param("n", 0))
    if kind == "join":
        parts = tuple(kind_from_payload(p) for p in payload["parts"])
        if not parts:
            raise ValueError("template join must have parts")
        return JoinKind(parts)
    if kind == "subdivided":
        return SubdividedKind(kind_from_payload(payload["base"]), param("depth", 1))
    raise ValueError(f"unknown template kind {kind!r}")


# Every template ``build_template`` built, under its kind, for as long as
# something else holds it.  The values are weak references, so a template
# lives no longer than its last holder and nothing is kept between calls.
_TEMPLATES: weakref.WeakValueDictionary[TemplateKind, SphereTemplate] = (
    weakref.WeakValueDictionary()
)


def build_template(kind: TemplateKind) -> SphereTemplate:
    """The certified template a kind tree names.  While some object holds a
    template built for an equal kind, that template is returned; otherwise
    it is built from its leaves and recorded."""
    template = _TEMPLATES.get(kind)
    if template is None:
        template = _build_template(kind)
        _TEMPLATES[kind] = template
    return template


def _build_template(kind: TemplateKind) -> SphereTemplate:
    """The template a kind tree names, its parts obtained through
    ``build_template``; the parts of a join are joined from the left."""
    if isinstance(kind, CrosspolytopeKind):
        return make_crosspolytope(kind.n)
    if isinstance(kind, BarycentricBoundaryKind):
        return make_barycentric_boundary(kind.n)
    if isinstance(kind, JoinKind):
        joined = reduce(join_templates, [build_template(p) for p in kind.parts])
        # a join of other than two parts comes out nested (or bare), so it
        # is given the kind asked for
        return joined if joined.kind == kind else SphereTemplate(kind, joined.complex)
    return subdivide_template(build_template(kind.base), kind.depth)


def make_crosspolytope(n: int) -> SphereTemplate:
    """Boundary of the (n+1)-dimensional crosspolytope: vertices (i, +-),
    simplices the sign-consistent subsets, antipodality the sign swap."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    labels = []
    for i in range(n + 1):
        labels.append(cross_label(i, -1))
        labels.append(cross_label(i, +1))
    maximal = []
    for signs in itertools.product((0, 1), repeat=n + 1):
        maximal.append(mask_of(2 * i + s for i, s in enumerate(signs)))
    inv = tuple(i ^ 1 for i in range(2 * (n + 1)))
    complex_ = AntipodalComplex(tuple(labels), tuple(sorted(maximal)), inv)
    return SphereTemplate(CrosspolytopeKind(n), complex_)


def make_barycentric_boundary(n: int) -> SphereTemplate:
    """Barycentric subdivision of the boundary of an (n+1)-simplex: vertices
    are the nontrivial subsets of an (n+2)-set, simplices the chains,
    antipodality the complementation."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    u = n + 2
    full = (1 << u) - 1
    subsets = _proper_subsets(u)
    index = {m: i for i, m in enumerate(subsets)}
    labels = tuple(subset_label(m) for m in subsets)
    maximal = set()
    for perm in itertools.permutations(range(u)):
        chain = 0
        acc = 0
        for x in perm[:-1]:
            acc |= 1 << x
            chain |= 1 << index[acc]
        maximal.add(chain)
    inv = tuple(index[full & ~m] for m in subsets)
    complex_ = AntipodalComplex(labels, tuple(sorted(maximal)), inv)
    return SphereTemplate(BarycentricBoundaryKind(n), complex_)


def _proper_subsets(k: int) -> list[int]:
    """The nonempty proper subsets of a k-set, by size and then by mask:
    the vertex order of the barycentric boundary on k points."""
    return sorted(range(1, (1 << k) - 1), key=lambda m: (popcount(m), m))


def join_templates(a: SphereTemplate, b: SphereTemplate) -> SphereTemplate:
    joined = join_complex(a.complex, b.complex)
    return SphereTemplate(JoinKind((a.kind, b.kind)), joined)


def subdivide_template(t: SphereTemplate, depth: int = 1) -> SphereTemplate:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    c = t.complex
    for _ in range(depth):
        c = barycentric_subdivision(c)
    return SphereTemplate(SubdividedKind(t.kind, depth), c)


# --- witnesses ----------------------------------------------------------


@dataclass(frozen=True)
class SphereWitness:
    """A template plus a vertex map into the antipodal subcomplex of ``cls``.

    The map indexes the vertices of that subcomplex, which are the class's
    two-label points in the order of ``cls.label_columns``."""

    template: SphereTemplate
    vertex_map: tuple[int, ...]
    cls: ConceptClass
    embedded: bool

    @property
    def dimension(self) -> int:
        return self.template.dimension

    @cached_property
    def target(self) -> AntipodalComplex:
        """The antipodal subcomplex of ``cls``, built on first read and kept
        (not a field); only printing or comparing it needs it."""
        return antipodal_subcomplex(self.cls)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (point, sign) pair each template vertex maps to."""
        points = self.cls.label_columns.points
        return tuple(points[v] for v in self.vertex_map)

    @cached_property
    def report(self) -> WitnessReport:
        """The four witness checks, run on first use and kept: every field
        is frozen, so the outcome cannot change.  Not a field, so it stays
        out of eq, hash and repr; a modified copy is a new object and is
        checked afresh."""
        return _run_checks(self)


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    check: Optional[str]
    detail: str
    transcript: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _simplex_labels(c: SimplicialComplex, mask: int) -> tuple[str, ...]:
    return tuple(c.vertices[i] for i in bits(mask))


def verify_witness(w: SphereWitness) -> WitnessReport:
    """The four witness checks in order, reporting the first violation.
    They run once per witness object; later calls return the kept report."""
    return w.report


def _run_checks(w: SphereWitness) -> WitnessReport:
    lines: list[str] = []

    # (a) template invariants: a witness whose template came from
    # ``build_template`` gets that very object back
    try:
        reference = build_template(w.template.kind)
    except Exception as exc:  # malformed kind tree
        return WitnessReport(False, "template", f"kind tree invalid: {exc}", tuple(lines))
    got, want = w.template.complex, reference.complex
    if got != want:
        missing = set(want.maximal) - set(got.maximal)
        extra = set(got.maximal) - set(want.maximal)
        if missing:
            detail = f"missing maximal simplex {_simplex_labels(want, min(missing))}"
        elif extra:
            detail = f"unexpected maximal simplex {_simplex_labels(got, min(extra))}"
        else:
            detail = "vertex set or involution differs from the certified construction"
        return WitnessReport(False, "template", detail, tuple(lines))
    lines.append("template: ok")

    tc = w.template.complex
    n = len(tc.vertices)
    target = w.cls.label_columns
    if len(w.vertex_map) != n or any(
        not 0 <= v < len(target.points) for v in w.vertex_map
    ):
        return WitnessReport(False, "simplicial", "vertex map is not total into the target", tuple(lines))

    # (b) simpliciality on maximal simplices (faces follow by downward closure)
    for s in tc.maximal:
        image = mask_of(w.vertex_map[i] for i in bits(s))
        if not target.has_simplex(image):
            detail = f"simplex {_simplex_labels(tc, s)} maps outside the target"
            return WitnessReport(False, "simplicial", detail, tuple(lines))
    lines.append("simplicial: ok")

    # (c) equivariance on every vertex: the target's antipode of i is i ^ 1
    for i in range(n):
        if w.vertex_map[tc.involution[i]] != w.vertex_map[i] ^ 1:
            detail = f"vertex {tc.vertices[i]} breaks equivariance"
            return WitnessReport(False, "equivariance", detail, tuple(lines))
    lines.append("equivariance: ok")

    # (d) embedded flag must match injectivity
    injective = len(set(w.vertex_map)) == n
    if injective != w.embedded:
        detail = (
            "map is injective but not flagged embedded"
            if injective
            else "embedded flag set but the map identifies vertices"
        )
        return WitnessReport(False, "embedding", detail, tuple(lines))
    lines.append("embedding: ok")

    return WitnessReport(True, None, "", tuple(lines))


def witness_on(
    template: SphereTemplate,
    pairs: Iterable[tuple[int, int]],
    cls: ConceptClass,
    embedded: bool,
    what: str,
) -> SphereWitness:
    """The witness that sends template vertex v to the vertex of the class's
    antipodal subcomplex at the v-th (point, sign) pair of ``pairs``; a
    WitnessError naming ``what`` unless ``verify_witness`` passes it."""
    index = {p: i for i, p in enumerate(cls.label_columns.points)}
    vmap = [index.get(pair) for pair in pairs]
    if None in vmap:
        raise WitnessError(f"vertex {vmap.index(None)} has no image in the target")
    witness = SphereWitness(template, tuple(vmap), cls, embedded)
    report = verify_witness(witness)
    if not report:
        raise WitnessError(f"{what} failed verification: {report.detail}")
    return witness


def crosspolytope_witness(cls: ConceptClass, S: Sequence[int]) -> SphereWitness:
    """Witness of dimension |S|-1 from a shattered set S.

    The restriction of the class to S realizes every pattern, so the vertex
    pairs (x, +-) for x in S span a crosspolytope boundary inside the
    antipodal subcomplex of the full class.
    """
    points = tuple(sorted(S))
    if not points:
        raise WitnessError("the shattered set must be nonempty")
    if not shatters(cls, points):
        raise WitnessError(f"set {points} is not shattered")
    pairs = [(x, s) for x in points for s in (-1, +1)]
    template = build_template(CrosspolytopeKind(len(points) - 1))
    return witness_on(template, pairs, cls, True, "construction")


def barycentric_witness(cls: ConceptClass, hyp_indices: Sequence[int]) -> SphereWitness:
    """Witness of dimension k-2 from a dually antipodally shattered k-set.

    Each nontrivial dual pattern on the chosen hypotheses is realized at a
    witness point, positively or negatively; the subset vertex for a pattern
    maps to that point with the corresponding label.  Chains map to simplices
    because any hypothesis indexed in the smallest subset of the chain
    realizes the whole image.
    """
    hyp_indices = tuple(hyp_indices)
    k = len(hyp_indices)
    if k < 2:
        raise WitnessError("need at least two hypotheses")
    found = dual_antipodal_witnesses(cls, hyp_indices)
    if found is None:
        raise WitnessError(
            f"hypotheses {hyp_indices} are not dually antipodally shattered"
        )
    realized = (found[pattern] for pattern in _proper_subsets(k))
    pairs = [(x, +1 if positively else -1) for x, positively in realized]
    template = build_template(BarycentricBoundaryKind(k - 2))
    return witness_on(template, pairs, cls, True, "construction")


def join_witness(a: SphereWitness, b: SphereWitness) -> tuple[SphereWitness, ConceptClass]:
    """Join two witnesses into one for the product class, of dimension
    dim(a) + dim(b) + 1.  Returns the witness together with the product."""
    for w in (a, b):
        if not verify_witness(w):
            raise WitnessError("join requires verified witnesses")
    product = product_class(a.cls, b.cls)
    shift = a.cls.domain_size
    pairs = list(a.pairs) + [(x + shift, s) for x, s in b.pairs]
    template = build_template(JoinKind((a.template.kind, b.template.kind)))
    embedded = a.embedded and b.embedded
    return witness_on(template, pairs, product, embedded, "construction"), product


# --- bounds -------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    name: str
    value: int
    witness: Optional[SphereWitness] = None


@dataclass(frozen=True)
class SdBounds:
    lower: int
    upper: int
    lower_certificates: tuple[BoundCertificate, ...]
    upper_certificates: tuple[BoundCertificate, ...]


class ClassAnalysis:
    """What the commands read about one total class.

    Each part is computed when first read and kept, so one analysis computes
    nothing twice: the dual, the four maximum (antipodally) shattered sets
    as masks, the two witnesses built on them, the extremality report and
    the low-VC classification.  None of them builds the antipodal
    subcomplex.  An analysis belongs to one call and is not shared between
    calls.
    """

    def __init__(self, cls: ConceptClass):
        cls.require_total("class analysis")
        self.cls = cls

    @cached_property
    def dual(self) -> ConceptClass:
        return dual_class(self.cls)[0]

    @cached_property
    def shattered(self) -> int:
        """The lexicographically least maximum shattered point set."""
        return max_shattered_set(self.cls)

    @cached_property
    def antipodally_shattered(self) -> int:
        return max_shattered_set(self.cls, antipodal=True)

    @cached_property
    def dual_shattered(self) -> int:
        return max_shattered_set(self.dual)

    @cached_property
    def dual_antipodally_shattered(self) -> int:
        """The least maximum dually antipodally shattered hypothesis set."""
        return max_shattered_set(self.dual, antipodal=True)

    @cached_property
    def crosspolytope(self) -> Optional[SphereWitness]:
        """The witness on ``shattered``; None when that set is empty."""
        points = tuple(bits(self.shattered))
        if not points:
            return None
        return crosspolytope_witness(self.cls, points)

    @cached_property
    def barycentric(self) -> Optional[SphereWitness]:
        """The witness on ``dual_antipodally_shattered``; None below two
        hypotheses."""
        hyps = tuple(bits(self.dual_antipodally_shattered))
        if len(hyps) < 2:
            return None
        return barycentric_witness(self.cls, hyps)

    def witness(self, method: str = "auto") -> Optional[SphereWitness]:
        """The witness of largest dimension, the crosspolytope on a tie, among
        the constructions ``method`` allows ("auto" allows both).  Only the
        chosen witness is built; None when no allowed construction applies."""
        dims = {
            "crosspolytope": popcount(self.shattered) - 1,
            "barycentric": popcount(self.dual_antipodally_shattered) - 2,
        }
        allowed = [m for m, d in dims.items() if d >= 0 and method in ("auto", m)]
        if not allowed:
            return None
        best = max(allowed, key=lambda m: (dims[m], m == "crosspolytope"))
        return self.crosspolytope if best == "crosspolytope" else self.barycentric

    @cached_property
    def extremality(self) -> Optional[ExtremalityReport]:
        """The Pajor counts of ``extremal.is_extremal``, or None past its
        cap on the number of points."""
        from spheredim import extremal

        try:
            return extremal.is_extremal(self.cls)
        except CapExceededError:
            return None

    @cached_property
    def classification(self) -> LowVcClassification:
        """The bucket of ``extremal.classify_low_vc``."""
        from spheredim import extremal

        return extremal.classify_low_vc(self.cls)


def sd_bounds(
    analysis: Union[ClassAnalysis, ConceptClass],
    sign_representation: Optional[SignRepresentation] = None,
) -> SdBounds:
    """Certified lower and sound upper bounds on the spherical dimension.

    Lower bounds are witnessed: a crosspolytope witness on a maximum
    shattered set, a barycentric witness on a maximum dually antipodally
    shattered hypothesis set, and, for VC=1 classes that do not embed into
    thresholds, the verified hexagon from the classification.  Upper bounds:
    the dimension of the antipodal subcomplex (the coindex of a free complex
    never exceeds its dimension), 2*VC-1 for extremal classes, 1 when VC<=1,
    0 for threshold-like classes, and optionally d-1 from a d-dimensional
    sign representation of the class, which must pass
    ``signrank.verify_representation`` (else ValueError naming its reason).
    Given a bare class, it analyses it.
    """
    from spheredim import extremal as _extremal

    a = analysis if isinstance(analysis, ClassAnalysis) else ClassAnalysis(analysis)
    if sign_representation is not None:
        check = verify_representation(a.cls, sign_representation)
        if not check:
            raise ValueError(f"unverified sign representation: {check.reason}")
    # two distinct hypotheses disagree somewhere, so the antipodal subcomplex
    # is empty iff there is one hypothesis
    if len(a.cls) == 1:
        cert = (BoundCertificate("empty antipodal subcomplex", -1),)
        return SdBounds(-1, -1, cert, cert)

    # a nonempty antipodal subcomplex has a point with both labels, so the
    # maximum shattered set is nonempty
    w = a.crosspolytope
    lower_certs = [BoundCertificate("crosspolytope", w.dimension, w)]
    if a.barycentric is not None:
        bw = a.barycentric
        lower_certs.append(BoundCertificate("barycentric", bw.dimension, bw))

    # the maximal simplices of the antipodal subcomplex are the sets on
    # which two hypotheses disagree, labelled by the first
    upper_certs = [BoundCertificate("dimension bound", max_hamming_distance(a.cls) - 1)]
    vc = popcount(a.shattered)
    if vc <= 1:
        upper_certs.append(BoundCertificate("low VC bound", 1))
        classification = a.classification
        if isinstance(classification, _extremal.ThresholdLike):
            upper_certs.append(BoundCertificate("threshold classification", 0))
        elif isinstance(classification, _extremal.Vc1NonThreshold):
            lower_certs.append(
                BoundCertificate("hexagon", 1, classification.witness)
            )
    if a.extremality is not None and a.extremality.extremal:
        upper_certs.append(BoundCertificate("extremal bound", 2 * vc - 1))
    if sign_representation is not None:
        upper_certs.append(
            BoundCertificate("sign-rank bound", sign_representation.dimension - 1)
        )

    lower = max(c.value for c in lower_certs)
    upper = min(c.value for c in upper_certs)
    if lower > upper:
        raise AssertionError(
            f"bound inversion: lower {lower} exceeds upper {upper}"
        )
    return SdBounds(lower, upper, tuple(lower_certs), tuple(upper_certs))
