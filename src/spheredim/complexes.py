"""Abstract simplicial complexes and the realizable-distribution complex.

A complex is stored by its maximal simplices only (vertex-index bitmasks over
an ordered list of opaque string labels); the downward closure is implicit.
There is one complex type: an ``AntipodalComplex`` (a free Z2-complex) is a
``SimplicialComplex`` plus a checked vertex involution, which subdivision
and join carry through when every input has one.
A simplex query is answered by incidence: the transpose of the maximal list
gives, per vertex, the bitmask of the maximal simplices containing it, and a
set is a simplex iff the AND of those masks over its vertices is nonzero.
The realizable complex of a total class is a plain ``SimplicialComplex``
with a vertex for every point-label pair occurring in some concept graph,
labelled by ``point_label``, and one maximal simplex per concept, the
transpose of its vertex columns (per vertex, the mask of the concepts
carrying that label).  Its label flip is read from the labels:
``label_flip`` pairs the vertices that label one point both ways, through
``parse_point_label``, the one reader of point labels.
The antipodal subcomplex keeps exactly the simplices realizable together
with their flips.  It is built from the class's label columns alone, not
from the realizable complex: its vertices are the two-label points, on
which the flip is the total involution i ^ 1, the masks of concepts per
vertex answer whether a labelled set and its flip are both realizable, and
its maximal simplices are the disagreement sets G - H of concept pairs
g != h (G, H their vertex sets) whose only carrier is g and whose flip
H - G has h as its only carrier, with no pairwise comparison of
candidates.  Another carrier k of G - H differs from g where g and h agree,
and its label there extends the set; conversely a vertex extending it lies
where g and h disagree, so already in it.

Barycentric subdivision, joins and the face counts of a subdivision, read
from the face counts of its base, round out the toolbox.  Face enumeration
is explicitly capped: a complex on n points stores at most |H| maximal
simplices but can hide exponentially many faces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from spheredim.concepts import (
    CapExceededError,
    ConceptClass,
    bits,
    columns,
    mask_of,
    popcount,
    transpose,
)

DEFAULT_FACE_CAP = 10**7
DEFAULT_CHAIN_CAP = 10**6


def point_label(x: int, sign: int) -> str:
    """Label for a domain-point vertex (x, y) of a realizable complex."""
    return f"{x}{'+' if sign > 0 else '-'}"


def parse_point_label(label: str) -> Optional[tuple[int, int]]:
    """The (x, sign) pair that ``point_label`` writes as ``label``, or None
    when ``point_label`` writes no such label."""
    head = label[:-1]
    if label[-1:] in ("+", "-") and head.isascii() and head.isdigit():
        try:
            x = int(head)
        except ValueError:  # more digits than ``str`` writes for an int
            return None
        sign = +1 if label[-1] == "+" else -1
        if point_label(x, sign) == label:
            return x, sign
    return None


def cross_label(i: int, sign: int) -> str:
    """Label for a crosspolytope pole (i, +-)."""
    return f"e{i}{'+' if sign > 0 else '-'}"


def subset_label(bitmask: int) -> str:
    """Label for a subset vertex of a barycentric sphere."""
    return "{" + ",".join(str(i) for i in bits(bitmask)) + "}"


def chain_label(member_labels: Iterable[str]) -> str:
    """Label for a subdivision vertex, i.e. a simplex of the base complex."""
    return "[" + "|".join(sorted(member_labels)) + "]"


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex labels plus mutually incomparable maximal simplices (bitmasks)."""

    vertices: tuple[str, ...]
    maximal: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        full = (1 << len(self.vertices)) - 1
        covered = 0
        for i, s in enumerate(self.maximal):
            if s & ~full:
                raise ValueError("simplex refers to a missing vertex")
            covered |= s
            for j, t in enumerate(self.maximal):
                if i != j and (s & ~t) == 0:
                    raise ValueError("maximal simplices must be incomparable")
        if self.vertices and covered != full:
            raise ValueError("every vertex must lie in some maximal simplex")

    @classmethod
    def from_maximal(
        cls, vertices: Sequence[str], simplices: Iterable[int]
    ) -> "SimplicialComplex":
        """Build a plain complex from an arbitrary simplex list, keeping only
        maximal ones; on a subclass too, as the list carries no involution."""
        sims = sorted(set(simplices))
        keep = [
            s
            for s in sims
            if not any(s != t and (s & ~t) == 0 for t in sims)
        ]
        return SimplicialComplex(tuple(vertices), tuple(sorted(keep)))

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """For each vertex, the mask of the positions in ``maximal`` of the
        maximal simplices containing it: the transpose of ``maximal``, built
        on first read and kept with the instance (not a field)."""
        return tuple(transpose(len(self.vertices), self.maximal))

    def has_simplex(self, mask: int) -> bool:
        """Whether ``mask`` lies in some maximal simplex: the empty mask iff
        the complex has a simplex, never a mask past the last vertex."""
        if mask >> len(self.vertices):
            return False
        incidence = self.incidence
        common = (1 << len(self.maximal)) - 1
        while mask:  # bits(mask), inlined on the hot path of verification
            low = mask & -mask
            common &= incidence[low.bit_length() - 1]
            mask ^= low
        return common != 0

    def all_simplices(self, cap: int) -> set[int]:
        """The downward closure, nonempty simplices only, at most ``cap`` of them."""
        out: set[int] = set()
        for s in self.maximal:
            idx = list(bits(s))
            for r in range(1, len(idx) + 1):
                for combo in itertools.combinations(idx, r):
                    out.add(mask_of(combo))
                    if len(out) > cap:
                        raise CapExceededError("face enumeration cap exceeded")
        return out

    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}


def subdivision_face_counts(f: Sequence[int], faces: Callable[[int, int], int]) -> list[int]:
    """Face counts of the barycentric subdivision of a complex whose face
    counts are ``f`` and whose every j-face has ``faces(j, i)`` faces of
    dimension i: C(j+1, i+1) for a simplex, C(j, i)*2^(j-i) for a cube.
    A k-face of the subdivision is a chain of k+1 faces.  Those topped by a
    j-face number c(j, 0) = 1 and c(j, k) = sum over i < j of
    faces(j, i)*c(i, k-1), so f_k is the sum of f_j*c(j, k) over j."""
    chains: list[list[int]] = []  # chains[j][k] = c(j, k), zero for k > j
    for j in range(len(f)):
        below = [faces(j, i) for i in range(j)]
        chains.append([1] + [
            sum(below[i] * chains[i][k - 1] for i in range(k - 1, j))
            for k in range(1, j + 1)
        ])
    return [sum(f[j] * chains[j][k] for j in range(k, len(f))) for k in range(len(f))]


@dataclass(frozen=True)
class AntipodalComplex(SimplicialComplex):
    """A complex with a total, simplicial, fixed-point-free vertex involution.

    The involution must map simplices to simplices and no simplex may contain
    a vertex together with its image; both axioms are machine-checked here,
    before the checks of a plain complex, so a failed axiom costs no pairwise
    comparison of maximal simplices.
    """

    involution: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if len(self.involution) != n:
            raise ValueError("involution must cover every vertex")
        for i, j in enumerate(self.involution):
            if not 0 <= j < n or self.involution[j] != i:
                raise ValueError("vertex map is not an involution")
        if any(s >> n for s in self.maximal):  # the axioms read only vertices
            raise ValueError("simplex refers to a missing vertex")
        # a simplicial involution is a bijection, so it maps maximal
        # simplices to maximal ones: membership answers all but a miss,
        # and the incidence index is built only for one
        maximal = set(self.maximal)
        for s in self.maximal:
            image = self.map_simplex(s)
            if image not in maximal and not self.has_simplex(image):
                raise ValueError("involution is not simplicial")
            if s & image:
                raise ValueError("a simplex contains an antipodal vertex pair")
        super().__post_init__()

    def map_simplex(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.involution[i]
        return out


def realizable_complex(cls: ConceptClass) -> SimplicialComplex:
    """The complex with one vertex per realized (point, label) pair, labelled
    by ``point_label``, and one maximal simplex per concept graph: the
    transpose of the vertex columns, each the mask of the concepts that
    carry its label.  ``label_flip`` reads its label flip."""
    cls.require_total("realizable_complex")
    full_h = (1 << len(cls)) - 1
    labels: list[str] = []
    vertex_columns: list[int] = []
    for x, col in enumerate(columns(cls.domain_size, cls.hypotheses)):
        if col != full_h:
            labels.append(point_label(x, -1))
            vertex_columns.append(full_h & ~col)
        if col:
            labels.append(point_label(x, +1))
            vertex_columns.append(col)
    maximal = tuple(sorted(transpose(len(cls), vertex_columns)))
    return SimplicialComplex(tuple(labels), maximal)


def label_flip(c: SimplicialComplex) -> tuple[Optional[int], ...]:
    """For each vertex, the index of the vertex labelling the same point
    with the other sign, or None: the label flip of a realizable complex,
    read from its ``point_label`` labels alone.  A vertex whose label is
    no point label, such as a chain or crosspolytope label, has None."""
    index = c.vertex_index()
    return tuple(
        None if p is None else index.get(point_label(p[0], -p[1]))
        for p in map(parse_point_label, c.vertices)
    )


def antipodal_subcomplex(cls: ConceptClass) -> AntipodalComplex:
    """The antipodal subcomplex of a total class: the labelled sets
    realizable together with their label flips, built from the class's
    label columns alone.  Empty iff the class has one concept.

    Its vertices are the two-label points in the order of
    ``cls.label_columns``, so vertex i ^ 1 is the antipode of vertex i, and
    ``masks[v]`` is the mask of the concepts that carry vertex v: a set s of
    vertices is a simplex iff the AND of ``masks`` over s and the AND over
    its flip are both nonzero.  Every such s lies in a disagreement set
    g & ~h, the vertices of concept g that concept h does not carry (where
    the two disagree, labelled by g), whose flip h & ~g concept h carries.
    For g != h, g & ~h is maximal iff g is the only concept carrying it and
    h the only one carrying its flip.  If another concept k carries it, k
    differs from g at a point x where g and h agree, and k's label at x
    extends the set, its flip still carried by h.  Conversely a vertex at
    such an x needs g and h to label x apart, which they do not.  The rule
    is symmetric in g and h, so each unordered pair keeps both sets or
    neither, with no comparison of candidates.  Every vertex is a simplex
    (two concepts label its point each way), so it lies in a kept set and
    the vertex set needs no reindexing.
    """
    cols = cls.label_columns
    masks = cols.masks

    def sole_carrier(s: int, concept: int) -> bool:
        """Whether ``concept`` is the only concept carrying every vertex of
        ``s``: the AND of ``masks`` over s, stopped once it is that bit."""
        common = -1
        while s:  # bits(s), inlined: every pair of concepts comes here
            low = s & -s
            common &= masks[low.bit_length() - 1]
            if common == concept:
                return True
            s ^= low
        return False

    concepts = transpose(len(cls), masks)
    keep = []
    for i, g in enumerate(concepts):
        for j in range(i + 1, len(concepts)):
            h = concepts[j]
            if sole_carrier(g & ~h, 1 << i) and sole_carrier(h & ~g, 1 << j):
                keep += (g & ~h, h & ~g)
    labels = tuple(point_label(x, s) for x, s in cols.points)
    involution = tuple(i ^ 1 for i in range(len(masks)))
    return AntipodalComplex(labels, tuple(sorted(keep)), involution)


def barycentric_subdivision(k):
    """First barycentric subdivision: vertices are the nonempty simplices,
    maximal simplices are the maximal chains, both under ``DEFAULT_CHAIN_CAP``.

    An antipodal input yields an antipodal output, with the involution
    extended elementwise to subdivision vertices.
    """
    sims = sorted(k.all_simplices(DEFAULT_CHAIN_CAP))
    index = {s: i for i, s in enumerate(sims)}
    labels = tuple(chain_label(k.vertices[i] for i in bits(s)) for s in sims)
    if sum(math.factorial(popcount(m)) for m in k.maximal) > DEFAULT_CHAIN_CAP:
        raise CapExceededError("chain enumeration cap exceeded")

    chains: set[int] = set()
    for m in k.maximal:
        idx = list(bits(m))
        for perm in itertools.permutations(idx):
            chain_mask = 0
            acc = 0
            for v in perm:
                acc |= 1 << v
                chain_mask |= 1 << index[acc]
            chains.add(chain_mask)
    maximal = tuple(sorted(chains))
    if isinstance(k, AntipodalComplex):
        inv = tuple(index[k.map_simplex(s)] for s in sims)
        return AntipodalComplex(labels, maximal, inv)
    return SimplicialComplex(labels, maximal)


def join_complex(a, b):
    """Join of two complexes: disjoint vertices, labelled ``A;`` and ``B;``
    by side, and pairwise unions of maximal simplices.  Joining two
    antipodal complexes yields an antipodal join."""
    labels = tuple("A;" + v for v in a.vertices) + tuple("B;" + v for v in b.vertices)
    shift = len(a.vertices)
    maximal = tuple(sorted(sa | (sb << shift) for sa in a.maximal for sb in b.maximal))
    if isinstance(a, AntipodalComplex) and isinstance(b, AntipodalComplex):
        inv = tuple(a.involution) + tuple(j + shift for j in b.involution)
        return AntipodalComplex(labels, maximal, inv)
    return SimplicialComplex(labels, maximal)


def complex_to_payload(k) -> dict:
    """Canonical JSON payload shared by all complex kinds: an antipodal
    complex writes its own involution, any other complex its ``label_flip``."""
    inv = k.involution if isinstance(k, AntipodalComplex) else label_flip(k)
    return {
        "vertices": list(k.vertices),
        "maximal_simplices": sorted(list(bits(s)) for s in k.maximal),  # bits ascend
        "involution": list(inv),
    }
