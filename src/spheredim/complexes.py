"""Abstract simplicial complexes and the realizable-distribution complex.

A complex is stored by its maximal simplices only (vertex-index bitmasks over
an ordered list of opaque string labels); the downward closure is implicit.
A simplex query is answered by incidence: the transpose of the maximal list
gives, per vertex, the bitmask of the maximal simplices containing it, and a
set is a simplex iff the AND of those masks over its vertices is nonzero.
The realizable complex of a total class has a vertex for every point-label
pair occurring in some concept graph and one maximal simplex per concept,
the transpose of its vertex columns (per vertex, the mask of the concepts
carrying that label); label flipping is kept as a partial vertex involution.
The antipodal subcomplex keeps exactly the simplices realizable together
with their flips.  It is built from the class's label columns alone, not
from the realizable complex: its vertices are the two-label points, on
which the flip is the total involution i ^ 1, the masks of concepts per
vertex answer whether a labelled set and its flip are both realizable, and
its maximal simplices are the disagreement sets of concept pairs that no
vertex extends, with no pairwise comparison of candidates.

Barycentric subdivision, joins, small-instance isomorphism testing, and exact
face counting round out the toolbox.  Face enumeration is explicitly capped:
a complex on n points stores at most |H| maximal simplices but can hide
exponentially many faces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

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
DEFAULT_ISO_VERTEX_CAP = 64
DEFAULT_CHAIN_CAP = 10**6


def point_label(x: int, sign: int) -> str:
    """Label for a domain-point vertex (x, y) of a realizable complex."""
    return f"{x}{'+' if sign > 0 else '-'}"


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
        """Build from an arbitrary simplex list, keeping only maximal ones."""
        sims = sorted(set(simplices))
        keep = [
            s
            for s in sims
            if not any(s != t and (s & ~t) == 0 for t in sims)
        ]
        return cls(tuple(vertices), tuple(sorted(keep)))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def dim(self) -> int:
        if not self.maximal:
            return -1
        return max(popcount(s) for s in self.maximal) - 1

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


def face_counts(
    k: "SimplicialComplex | AntipodalComplex | DeltaComplex",
) -> tuple[int, ...]:
    """Exact simplex counts by dimension from the closure, under ``DEFAULT_FACE_CAP`` faces."""
    complex_ = _underlying(k)
    counts: dict[int, int] = {}
    for s in complex_.all_simplices(DEFAULT_FACE_CAP):
        d = popcount(s) - 1
        counts[d] = counts.get(d, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(d, 0) for d in range(max(counts) + 1))


def euler_characteristic(k) -> int:
    return sum((-1) ** d * c for d, c in enumerate(face_counts(k)))


@dataclass(frozen=True)
class DeltaComplex:
    """Realizable complex of a class, with the label involution as a partial map.

    ``involution[i]`` is the index of the opposite-label vertex when that
    vertex occurs in some concept graph, else None.  ``points[i]`` is the
    (x, sign) pair behind vertex i.
    """

    complex: SimplicialComplex
    involution: tuple[Optional[int], ...]
    points: tuple[tuple[int, int], ...]

    def dim(self) -> int:
        return self.complex.dim()


@dataclass(frozen=True)
class AntipodalComplex:
    """A complex with a total, simplicial, fixed-point-free vertex involution.

    The involution must map simplices to simplices and no simplex may contain
    a vertex together with its image; both axioms are machine-checked here.
    ``points`` carries the (x, sign) pairs when the complex arose from a
    class's realizable distributions.
    """

    complex: SimplicialComplex
    involution: tuple[int, ...]
    points: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        n = len(self.complex.vertices)
        if len(self.involution) != n:
            raise ValueError("involution must cover every vertex")
        for i, j in enumerate(self.involution):
            if not 0 <= j < n or self.involution[j] != i:
                raise ValueError("vertex map is not an involution")
        for s in self.complex.maximal:
            image = self.map_simplex(s)
            if not self.complex.has_simplex(image):
                raise ValueError("involution is not simplicial")
            if s & image:
                raise ValueError("a simplex contains an antipodal vertex pair")

    @property
    def is_empty(self) -> bool:
        return self.complex.is_empty

    def dim(self) -> int:
        return self.complex.dim()

    def map_simplex(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.involution[i]
        return out


def _underlying(k) -> SimplicialComplex:
    return k if isinstance(k, SimplicialComplex) else k.complex


def realizable_complex(cls: ConceptClass) -> DeltaComplex:
    """The complex with one vertex per realized (point, label) pair and one
    maximal simplex per concept graph: the transpose of the vertex columns,
    each the mask of the concepts that carry its label."""
    cls.require_total("realizable_complex")
    full_h = (1 << len(cls)) - 1
    present: list[tuple[int, int]] = []
    vertex_columns: list[int] = []
    for x, col in enumerate(columns(cls.domain_size, cls.hypotheses)):
        if col != full_h:
            present.append((x, -1))
            vertex_columns.append(full_h & ~col)
        if col:
            present.append((x, +1))
            vertex_columns.append(col)
    index = {p: i for i, p in enumerate(present)}
    labels = tuple(point_label(x, s) for x, s in present)
    maximal = tuple(sorted(transpose(len(cls), vertex_columns)))
    involution = tuple(index.get((x, -s)) for x, s in present)
    return DeltaComplex(SimplicialComplex(labels, maximal), involution, tuple(present))


def antipodal_subcomplex(cls: ConceptClass) -> AntipodalComplex:
    """The antipodal subcomplex of a total class: the labelled sets
    realizable together with their label flips, built from the class's
    label columns alone.  Empty iff the class has one concept.

    Its vertices are the two-label points in the order of
    ``cls.label_columns``, so vertex i ^ 1 is the antipode of vertex i, and
    ``masks[v]`` is the mask of the concepts that carry vertex v: a set s of
    vertices is a simplex iff the AND of ``masks`` over s and the AND over
    its flip are both nonzero.  Every such s lies in a candidate g & ~h, the
    vertices of concept g that concept h does not carry (where the two
    disagree, labelled by g), and a candidate is maximal iff no vertex
    outside it extends it under the same rule, which costs two ANDs per
    vertex instead of a comparison with every other candidate.  Every
    vertex lies in some candidate (g and h labelling its point each way),
    so the vertex set needs no reindexing.
    """
    cols = cls.label_columns
    masks = cols.masks
    concepts = transpose(len(cls), masks)
    candidates = {g & ~h for g in concepts for h in concepts}
    candidates.discard(0)
    # (bit, masks[v], masks[v ^ 1]) for every vertex v
    pairs = [(1 << v, m, masks[v ^ 1]) for v, m in enumerate(masks)]
    keep = []
    for s in candidates:
        a = b = -1
        for bit, cv, cw in pairs:
            if s & bit:
                a &= cv
                b &= cw
        for bit, cv, cw in pairs:
            if a & cv and b & cw and not s & bit:
                break  # s plus this vertex is still a simplex
        else:
            keep.append(s)
    labels = tuple(point_label(x, s) for x, s in cols.points)
    involution = tuple(i ^ 1 for i in range(len(masks)))
    return AntipodalComplex(
        SimplicialComplex(labels, tuple(sorted(keep))), involution, cols.points
    )


def barycentric_subdivision(k):
    """First barycentric subdivision: vertices are the nonempty simplices,
    maximal simplices are the maximal chains, both under ``DEFAULT_CHAIN_CAP``.

    An antipodal input yields an antipodal output, with the involution
    extended elementwise to subdivision vertices.
    """
    base = _underlying(k)
    sims = sorted(base.all_simplices(DEFAULT_CHAIN_CAP))
    index = {s: i for i, s in enumerate(sims)}
    labels = tuple(
        chain_label(base.vertices[i] for i in bits(s)) for s in sims
    )

    total_chains = sum(
        math.factorial(popcount(m)) for m in base.maximal
    )
    if total_chains > DEFAULT_CHAIN_CAP:
        raise CapExceededError("chain enumeration cap exceeded")

    maximal: set[int] = set()
    for m in base.maximal:
        idx = list(bits(m))
        for perm in itertools.permutations(idx):
            chain_mask = 0
            acc = 0
            for v in perm:
                acc |= 1 << v
                chain_mask |= 1 << index[acc]
            maximal.add(chain_mask)
    out = SimplicialComplex(labels, tuple(sorted(maximal)))
    if isinstance(k, AntipodalComplex):
        inv = tuple(index[k.map_simplex(s)] for s in sims)
        return AntipodalComplex(out, inv)
    return out


def join_complex(a, b):
    """Join of two complexes: disjoint vertices, labelled ``A;`` and ``B;``
    by side, and pairwise unions of maximal simplices.  Joining two
    antipodal complexes yields an antipodal join."""
    ca, cb = _underlying(a), _underlying(b)
    labels = tuple("A;" + v for v in ca.vertices) + tuple("B;" + v for v in cb.vertices)
    shift = len(ca.vertices)
    maximal = tuple(
        sorted(sa | (sb << shift) for sa in ca.maximal for sb in cb.maximal)
    )
    out = SimplicialComplex(labels, maximal)
    if isinstance(a, AntipodalComplex) and isinstance(b, AntipodalComplex):
        inv = tuple(a.involution) + tuple(j + shift for j in b.involution)
        return AntipodalComplex(out, inv)
    return out


def complexes_isomorphic(
    a,
    b,
    respect_involution: bool = False,
) -> Optional[tuple[int, ...]]:
    """Search for a vertex bijection carrying maximal simplices onto maximal
    simplices (and commuting with the involutions when asked).

    Exact backtracking with degree and simplex-size pruning; deterministic;
    returns the image tuple or None; raises past ``DEFAULT_ISO_VERTEX_CAP`` vertices.
    """
    ca, cb = _underlying(a), _underlying(b)
    if respect_involution and not (
        isinstance(a, AntipodalComplex) and isinstance(b, AntipodalComplex)
    ):
        raise ValueError("respect_involution requires antipodal complexes")
    n = len(ca.vertices)
    if max(n, len(cb.vertices)) > DEFAULT_ISO_VERTEX_CAP:
        raise CapExceededError(f"isomorphism cap is {DEFAULT_ISO_VERTEX_CAP} vertices")
    if n != len(cb.vertices) or len(ca.maximal) != len(cb.maximal):
        return None
    if sorted(map(popcount, ca.maximal)) != sorted(map(popcount, cb.maximal)):
        return None

    def profile(c: SimplicialComplex, v: int) -> tuple:
        sizes = sorted(popcount(s) for s in c.maximal if s & (1 << v))
        return tuple(sizes)

    prof_a = [profile(ca, v) for v in range(n)]
    prof_b = [profile(cb, v) for v in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    maximal_b = set(cb.maximal)
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n

    # assign vertices in order of rarest profile first for better pruning
    order = sorted(range(n), key=lambda v: (prof_a.count(prof_a[v]), v))

    def consistent(v: int, w: int) -> bool:
        if respect_involution:
            pa = a.involution[v]
            pb = b.involution[w]
            img = mapping[pa]
            if img is not None and img != pb:
                return False
            if img is None and used[pb] and mapping.index(pb) != pa:
                return False
        for s in ca.maximal:
            if not s & (1 << v):
                continue
            img_mask = 0
            complete = True
            for i in bits(s):
                m = mapping[i]
                if m is None:
                    complete = False
                else:
                    img_mask |= 1 << m
            if complete:
                if img_mask not in maximal_b:
                    return False
            elif not cb.has_simplex(img_mask):
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if used[w] or prof_b[w] != prof_a[v]:
                continue
            mapping[v] = w
            used[w] = True
            if consistent(v, w) and backtrack(pos + 1):
                return True
            mapping[v] = None
            used[w] = False
        return False

    if backtrack(0):
        return tuple(mapping)  # type: ignore[arg-type]
    return None


def complex_to_payload(k) -> dict:
    """Canonical JSON payload shared by all complex kinds."""
    c = _underlying(k)
    if isinstance(k, AntipodalComplex):
        inv: list[Optional[int]] = list(k.involution)
    elif isinstance(k, DeltaComplex):
        inv = list(k.involution)
    else:
        inv = [None] * len(c.vertices)
    return {
        "vertices": list(c.vertices),
        "maximal_simplices": sorted(sorted(bits(s)) for s in c.maximal),
        "involution": inv,
    }
