"""Extremal classes, cubical complexes, collapsibility, low-VC classification.

A finite total class is extremal when it meets Pajor's inequality |H| <=
|shatter(H)| with equality; equivalently, every shattered set is strongly
shattered.  The discrete cubes of a class (partial hypotheses whose full
completion cube lies inside the class) form a cubical complex whose dimension
equals VC for extremal classes; its barycentric subdivision is the order
complex of the cube poset and, away from the full binary cube, embeds as a
full subcomplex of the subdivided realizable complex.

Collapsibility is certified constructively: a free face is a cube with exactly
one proper coface in the current complex, and an elementary collapse removes
the pair.  A certificate is a collapse sequence ending at a single vertex,
found by greedy ordering with backtracking under a node budget.

Classes of VC at most 1 are classified into four mutually exclusive buckets:
a singleton; threshold-like (a subclass of thresholds after a per-point sign
flip, with the flip and order returned as a verified certificate); VC=1 but
not threshold-like, witnessed by a verified hexagon (a 1-sphere) in the
antipodal subcomplex; or VC >= 2 with a shattered pair.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from spheredim.concepts import (
    CapExceededError,
    ConceptClass,
    DimensionVariant,
    PartialHypothesis,
    bits,
    columns,
    dimension,
    mask_of,
    popcount,
    shattered_family,
    strongly_shattered_family,
    _shatters_mask,
)
from spheredim import complexes
from spheredim.complexes import SimplicialComplex
from spheredim.spheres import (
    BarycentricBoundaryKind,
    SphereWitness,
    WitnessError,
    build_template,
    witness_on,
)

DEFAULT_EXTREMAL_CAP = 16
DEFAULT_CUBE_CAP = 4096
DEFAULT_COLLAPSE_BUDGET = 200_000


@dataclass(frozen=True)
class ExtremalityReport:
    size: int
    shattered_count: int
    extremal: bool


def is_extremal(cls: ConceptClass) -> ExtremalityReport:
    """Pajor counts and the equality flag, up to ``DEFAULT_EXTREMAL_CAP`` points."""
    cls.require_total("is_extremal")
    if cls.domain_size > DEFAULT_EXTREMAL_CAP:
        raise CapExceededError(f"extremality cap is {DEFAULT_EXTREMAL_CAP} domain points")
    count = sum(len(level) for level in shattered_family(cls))
    return ExtremalityReport(len(cls), count, len(cls) == count)


@dataclass(frozen=True)
class CubicalComplex:
    """All discrete cubes of a class, closed under subcubes.

    ``cubes`` holds every cube as a partial hypothesis, including the
    0-cubes, which are exactly the concepts when built from a class.
    """

    cubes: tuple[PartialHypothesis, ...]
    cofaces: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Check that the cubes share one length and are closed under
        facets, and build the coface index: ``cofaces[i]`` is the bitmask
        of the positions in ``cubes`` of the codimension-one cubes that have
        ``cubes[i]`` as a facet."""
        if len({c.n for c in self.cubes}) > 1:
            raise ValueError("cubes must all have the same length")
        index = {(c.plus, c.defined): i for i, c in enumerate(self.cubes)}
        if len(index) != len(self.cubes):
            raise ValueError("duplicate cubes")
        cofaces = [0] * len(self.cubes)
        for i, c in enumerate(self.cubes):
            for facet in _facets(c):
                j = index.get((facet.plus, facet.defined))
                if j is None:
                    raise ValueError(f"cube {c} is missing its facet {facet}")
                cofaces[j] |= 1 << i
        object.__setattr__(self, "cofaces", tuple(cofaces))

    def dim(self) -> int:
        return max(c.dimension for c in self.cubes)

    def counts(self) -> tuple[int, ...]:
        out: dict[int, int] = {}
        for c in self.cubes:
            out[c.dimension] = out.get(c.dimension, 0) + 1
        return tuple(out.get(d, 0) for d in range(max(out) + 1))

    def rows(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.cubes)

    @classmethod
    def from_strings(cls, rows) -> "CubicalComplex":
        cubes = tuple(
            sorted(
                (PartialHypothesis.from_string(r) for r in rows),
                key=lambda c: (c.dimension, str(c)),
            )
        )
        return cls(cubes)


def _facets(c: PartialHypothesis) -> list[PartialHypothesis]:
    """Subcubes of codimension one: fix one free coordinate each way."""
    out = []
    free = ((1 << c.n) - 1) & ~c.defined
    for x in bits(free):
        bit = 1 << x
        out.append(PartialHypothesis(c.n, c.plus, c.defined | bit))
        out.append(PartialHypothesis(c.n, c.plus | bit, c.defined | bit))
    return out


def cubical_complex(cls: ConceptClass) -> CubicalComplex:
    """All partial hypotheses whose completion cube lies inside the class,
    at most ``DEFAULT_CUBE_CAP`` of them."""
    cls.require_total("cubical_complex")
    n = cls.domain_size
    full = (1 << n) - 1
    cubes: list[PartialHypothesis] = []
    for level in strongly_shattered_family(cls):
        for smask in level:
            target = 1 << popcount(smask)
            groups: dict[int, int] = defaultdict(int)
            for h in cls.hypotheses:
                groups[h.plus & ~smask] += 1
            for key, count in sorted(groups.items()):
                if count == target:
                    cubes.append(PartialHypothesis(n, key, full & ~smask))
                    if len(cubes) > DEFAULT_CUBE_CAP:
                        raise CapExceededError(f"cube cap {DEFAULT_CUBE_CAP} exceeded")
    cubes.sort(key=lambda c: (c.dimension, str(c)))
    return CubicalComplex(tuple(cubes))


def _cube_order(cc: CubicalComplex) -> tuple[list[int], list[int]]:
    """The positions in ``cc.cubes`` ranked by (dimension, label), and the
    rank of each position."""
    order = sorted(
        range(len(cc.cubes)), key=lambda i: (cc.cubes[i].dimension, str(cc.cubes[i]))
    )
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return order, rank


def _cube_chains(cc: CubicalComplex) -> tuple[list[PartialHypothesis], list[int]]:
    """The cubes in (dimension, label) order and the maximal chains of the
    cube poset, sorted, as bitmasks over positions in that order.

    A maximal chain is a facet-descending path from an inclusion-maximal cube
    down to a vertex.
    """
    order, rank = _cube_order(cc)
    facets: list[list[int]] = [[] for _ in order]
    for j, up in enumerate(cc.cofaces):
        for i in bits(up):
            facets[rank[i]].append(rank[j])
    maximal: list[int] = []

    def descend(r: int, chain_mask: int) -> None:
        if not facets[r]:
            maximal.append(chain_mask)
            return
        for f in facets[r]:
            descend(f, chain_mask | 1 << f)

    # a cube with a proper coface has a codimension-one coface, since the
    # complex is closed under faces; so the top cubes are those without one
    for i, up in enumerate(cc.cofaces):
        if not up:
            descend(rank[i], 1 << rank[i])
    return [cc.cubes[i] for i in order], sorted(maximal)


def cubical_barycentric(cc: CubicalComplex) -> SimplicialComplex:
    """Order complex of the cube poset: vertices are cubes, simplices chains.

    Maximal simplices are the facet-descending paths from the inclusion-
    maximal cubes down to vertices.
    """
    order, maximal = _cube_chains(cc)
    return SimplicialComplex(tuple(str(c) for c in order), tuple(maximal))


def cubical_face_counts(cc: CubicalComplex) -> tuple[int, ...]:
    """Face counts of ``cubical_barycentric(cc)``, without building it.

    A face of the order complex is a chain of cubes.  The complex is closed
    under facets, so below a j-cube sits the face lattice of a j-cube, with
    C(j, i)*2^(j-i) faces of dimension i.  The chains of k+1 cubes topped by
    a j-cube therefore number c(j, 0) = 1 and c(j, k) = sum over i < j of
    C(j, i)*2^(j-i)*c(i, k-1), and f_k is the sum of c(dim, k) over cubes.
    A total over ``complexes.DEFAULT_FACE_CAP`` raises, as in ``face_counts``.
    """
    if not cc.cubes:
        return ()
    chains: list[list[int]] = []  # chains[j][k] = c(j, k), zero for k > j
    for j in range(cc.dim() + 1):
        below = [math.comb(j, i) * 2 ** (j - i) for i in range(j)]
        chains.append([1] + [
            sum(below[i] * chains[i][k - 1] for i in range(k - 1, j))
            for k in range(1, j + 1)
        ])
    counts = cc.counts()
    out = tuple(
        sum(counts[j] * chains[j][k] for j in range(k, len(counts)))
        for k in range(len(counts))
    )
    if sum(out) > complexes.DEFAULT_FACE_CAP:
        raise CapExceededError("face enumeration cap exceeded")
    return out


def _is_chain(plus: list[int], defined: list[int], mask: int) -> bool:
    """True when the cubes at the positions in ``mask`` form a chain: in
    position order, each cube extends the next, cube i being read from
    ``plus[i]`` and ``defined[i]``.  Equivalently, the set is a simplex of
    the cube order complex, since every chain of a finite poset lies in a
    maximal chain.  One pass over the bits of ``mask``, from the top, which
    costs no negation of the mask."""
    i = mask.bit_length() - 1
    if i < 0:
        return True
    q, e = plus[i], defined[i]  # the last cube, which extends itself
    while mask:
        i = mask.bit_length() - 1
        p, d = plus[i], defined[i]
        if e & ~d or (p ^ q) & e:  # cube i does not extend the cube after it
            return False
        q, e = p, d
        mask ^= 1 << i
    return True


def realizable_partial(cls: ConceptClass, h: PartialHypothesis) -> bool:
    """True when some concept of the class extends h."""
    return any(g.extends(h) for g in cls.hypotheses)


def restriction(cls: ConceptClass, h: PartialHypothesis) -> ConceptClass:
    """The subclass of concepts extending h, on the same domain.

    Restricting an extremal class at a realizable partial hypothesis yields
    an extremal class again; this is verified when the input is small enough
    to test for extremality.
    """
    cls.require_total("restriction")
    if h.n != cls.domain_size:
        raise ValueError("length mismatch")
    kept = tuple(g for g in cls.hypotheses if g.extends(h))
    if not kept:
        raise WitnessError(f"partial hypothesis {h} is not realizable")
    out = ConceptClass(cls.domain_size, kept)
    try:
        if is_extremal(cls).extremal and not is_extremal(out).extremal:
            raise AssertionError(
                f"restriction of an extremal class at {h} is not extremal"
            )
    except CapExceededError:
        pass
    return out


@dataclass(frozen=True)
class EmbeddingReport:
    reversed_case: bool
    ok: bool
    cube_vertices: int
    chains_checked: int
    detail: str


def _chain_cube_parts(
    cls: ConceptClass, cube_bit: dict[tuple[int, int], int]
) -> tuple[set[tuple[int, int]], set[int]]:
    """Walk the maximal simplices of the subdivided realizable complex.

    That complex is the order complex of the realizable partial hypotheses
    with nonempty support; its maximal simplices are the support-dropping
    paths from a concept down to a single defined point.  Returns the vertex
    keys ``(plus, defined)`` and the distinct cube parts of the paths, where
    ``cube_bit`` maps the key of each cube to its bit.  The paths are walked
    once, with the cube parts below each vertex memoized, so the cost
    follows the vertices and their stored parts rather than the |H|*n!
    paths, which are never enumerated.  The vertices, and the vertices
    plus the cube parts the memo holds, are each capped at
    ``complexes.DEFAULT_CHAIN_CAP``.
    """
    verts: set[tuple[int, int]] = set()
    for h in cls.hypotheses:
        for defined in _submasks(h.defined):
            if defined:
                verts.add((h.plus & defined, defined))
                if len(verts) > complexes.DEFAULT_CHAIN_CAP:
                    raise CapExceededError("partial hypothesis cap exceeded")

    below: dict[tuple[int, int], set[int]] = {}
    held = 0  # memoized vertices plus the cube parts stored under them

    def parts_below(plus: int, defined: int) -> set[int]:
        # the cube parts of the paths from (plus, defined) down
        nonlocal held
        key = (plus, defined)
        out = below.get(key)
        if out is None:
            bit = cube_bit.get(key, 0)
            if not defined & (defined - 1):
                out = {bit}
            else:
                out = set()
                for x in bits(defined):
                    d2 = defined & ~(1 << x)
                    out.update(p | bit for p in parts_below(plus & d2, d2))
            held += 1 + len(out)
            if held > complexes.DEFAULT_CHAIN_CAP:
                raise CapExceededError("chain enumeration cap exceeded")
            below[key] = out
        return out

    parts: set[int] = set()
    for h in cls.hypotheses:
        parts |= parts_below(h.plus, h.defined)
    return verts, parts


def full_subcomplex_embedding_check(
    cls: ConceptClass, cc: Optional[CubicalComplex] = None
) -> EmbeddingReport:
    """Check the embedding between the subdivided cubical complex and the
    subdivided realizable complex of an extremal class.

    Away from the full binary cube, every cube is a realizable partial
    hypothesis with nonempty support, every chain of cubes is a simplex of
    the subdivided realizable complex, and fullness holds: any simplex of the
    latter whose vertices are all cube labels is a chain of cubes.  For the
    full cube the containment reverses: every realizable partial hypothesis
    with nonempty support is a cube.

    Neither subdivided complex is built.  The maximal chains of cubes come
    from one walk of the cube poset (``_cube_chains``).  The maximal simplices
    of the subdivided realizable complex (the support-dropping paths from
    each concept) are walked once, and each is kept only as its cube part:
    the set of its vertices that are cubes.  Both containments are checked
    on cube parts.  A set of cubes lies in a maximal simplex exactly when it
    lies in that simplex's cube part, so a maximal chain of cubes is a
    simplex there exactly when some cube part contains it.  Every simplex
    spanned by cubes lies in some cube part, and the cube order complex is
    closed under faces, so fullness holds exactly when every cube part is a
    chain of cubes, which is tested on the poset directly.

    A caller that has already found the class extremal passes its cubical
    complex as ``cc``; without it, extremality is checked here first.
    """
    if cc is None:
        if not is_extremal(cls).extremal:
            raise WitnessError("embedding check requires an extremal class")
        cc = cubical_complex(cls)
    n = cls.domain_size
    if len(cls) == 1 << n:
        # full binary cube: check every realizable nonempty-support partial
        # hypothesis is a cube
        count = 0
        have = {(c.plus, c.defined) for c in cc.cubes}
        for defined_mask in range(1, 1 << n):
            for plus in _submasks(defined_mask):
                h = PartialHypothesis(n, plus, defined_mask)
                if realizable_partial(cls, h):
                    count += 1
                    if (h.plus, h.defined) not in have:
                        return EmbeddingReport(True, False, count, 0, f"{h} not a cube")
        return EmbeddingReport(
            True, True, count, 0,
            "reversed case: the subdivided realizable complex sits inside the cube poset",
        )

    order, maximal = _cube_chains(cc)
    cube_bit = {(c.plus, c.defined): 1 << i for i, c in enumerate(order)}
    verts, parts = _chain_cube_parts(cls, cube_bit)

    # every cube is a vertex of the subdivided realizable complex
    for c in cc.cubes:
        if c.defined == 0 or (c.plus, c.defined) not in verts:
            return EmbeddingReport(
                False, False, len(cc.cubes), 0, f"cube {c} is not a realizable vertex"
            )

    # every chain of cubes is a simplex there; a maximal chain that is
    # itself a cube part needs no scan
    chains = 0
    for s in maximal:
        if s not in parts and not any((s & ~p) == 0 for p in parts):
            return EmbeddingReport(
                False, False, len(cc.cubes), chains,
                "a chain of cubes is not realizable as a simplex",
            )
        chains += 1

    # fullness: every cube part is a chain of cubes; a violation names the
    # least violating part, so the parts need no sorting
    plus = [c.plus for c in order]
    defined = [c.defined for c in order]
    broken = [part for part in parts if not _is_chain(plus, defined, part)]
    if broken:
        # in the order of the subdivided realizable complex's vertices
        members = sorted(
            (str(order[i]) for i in bits(min(broken))),
            key=lambda v: (len(v) - v.count("*"), v),
        )
        return EmbeddingReport(
            False, False, len(cc.cubes), chains,
            f"fullness violated on {members}",
        )
    return EmbeddingReport(
        False, True, len(cc.cubes), chains, "full subcomplex embedding verified"
    )


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def collapse_certificate(
    cc: CubicalComplex, node_budget: int = DEFAULT_COLLAPSE_BUDGET
) -> Optional[list[tuple[str, str]]]:
    """A sequence of elementary collapses down to a single vertex, or None.

    A free face has exactly one proper coface; greedy order (free face
    dimension, then label) with backtracking.  Exhausting the node budget
    raises, which is distinct from a completed search finding no sequence;
    so does a complex of more than ``DEFAULT_CUBE_CAP`` cubes.
    """
    if len(cc.cubes) > DEFAULT_CUBE_CAP:
        raise CapExceededError(f"collapse cube cap is {DEFAULT_CUBE_CAP}")
    # A state is a bitmask over the cubes ranked by (dimension, label), so a
    # scan of its bits visits candidate free faces in greedy order.
    order, rank = _cube_order(cc)
    labels = [str(cc.cubes[i]) for i in order]
    dims = [cc.cubes[i].dimension for i in order]
    cofaces = [mask_of(rank[j] for j in bits(cc.cofaces[i])) for i in order]
    state = (1 << len(order)) - 1
    dead: set[int] = set()
    moves: list[tuple[str, str]] = []
    nodes = 0

    def free_pairs(st: int) -> list[tuple[int, int]]:
        # Every state is closed under faces (an elementary collapse keeps
        # that), so a cube has exactly one proper coface iff it has exactly
        # one codimension-one coface: a coface of codimension two or more
        # has two codimension-one cofaces of the cube among its faces.
        out = []
        rest = st
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            up = cofaces[c] & st
            if up and not up & (up - 1):
                out.append((c, up.bit_length() - 1))
        return out

    # the search is depth-first, with an explicit stack of the states
    # entered and the free pairs each has left to try, so that its depth
    # (one state per collapse step) is not bounded by Python's recursion
    # limit
    stack: list[tuple[int, Iterator[tuple[int, int]]]] = []

    def enter(st: int) -> Optional[bool]:
        # the outcome of a state decided on entry, or None once it is pushed
        nonlocal nodes
        if st and not st & (st - 1):
            return dims[st.bit_length() - 1] == 0
        if st in dead:
            return False
        nodes += 1
        if nodes > node_budget:
            raise CapExceededError(f"collapse node budget {node_budget} exceeded")
        stack.append((st, iter(free_pairs(st))))
        return None

    outcome = enter(state)
    while stack and not outcome:
        st, pending = stack[-1]
        if outcome is False:  # the state the last move led to failed
            moves.pop()
        pair = next(pending, None)
        if pair is None:
            dead.add(st)
            stack.pop()
            outcome = False
        else:
            c, d = pair
            moves.append((labels[c], labels[d]))
            outcome = enter(st & ~(1 << c | 1 << d))
    return moves if outcome else None


# --- low-VC classification ----------------------------------------------


@dataclass(frozen=True)
class Singleton:
    pass


@dataclass(frozen=True)
class ThresholdLike:
    """Certificate: flipping the signs at ``flip_mask`` makes every concept a
    plus-prefix of ``order``."""

    flip_mask: int
    order: tuple[int, ...]


@dataclass(frozen=True)
class Vc1NonThreshold:
    witness: SphereWitness


@dataclass(frozen=True)
class Vc2Plus:
    shattered_pair: tuple[int, int]


LowVcClassification = Union[Singleton, ThresholdLike, Vc1NonThreshold, Vc2Plus]


def verify_threshold_certificate(
    cls: ConceptClass, flip_mask: int, order: tuple[int, ...]
) -> bool:
    """Check that every flipped concept is positive exactly on a prefix."""
    if sorted(order) != list(range(cls.domain_size)):
        return False
    for h in cls.hypotheses:
        flipped = h.plus ^ flip_mask
        seen_minus = False
        for x in order:
            if flipped & (1 << x):
                if seen_minus:
                    return False
            else:
                seen_minus = True
    return True


def _hexagon_witness(
    cls: ConceptClass, flip_mask: int, cycle: list[tuple[int, int]]
) -> SphereWitness:
    """Build the 1-sphere witness from six (point, sign) pairs in flipped
    coordinates, listed cyclically with opposite vertices antipodal."""
    unflipped = [
        (x, -s if flip_mask & (1 << x) else s) for x, s in cycle
    ]
    # template vertex order is {0},{1},{2},{01},{02},{12}; the hexagon cycle
    # visits them as {0},{01},{1},{12},{2},{02}
    cycle_position = (0, 2, 4, 1, 5, 3)
    pairs = [unflipped[pos] for pos in cycle_position]
    template = build_template(BarycentricBoundaryKind(1))
    return witness_on(template, pairs, cls, True, "hexagon")


def classify_low_vc(cls: ConceptClass) -> LowVcClassification:
    """Classify a total class per its spherical dimension regime.

    Mutually exclusive outcomes: Singleton; ThresholdLike with a verified
    (flip, order) certificate; Vc1NonThreshold with a verified hexagon
    witness; Vc2Plus with a shattered pair.
    """
    cls.require_total("classify_low_vc")
    n = cls.domain_size
    m = len(cls)
    if m == 1:
        return Singleton()
    for pair in itertools.combinations(range(n), 2):
        if _shatters_mask(cls, mask_of(pair)):
            return Vc2Plus(pair)

    # VC = 1 from here on.  Flip by the first concept so the all-plus
    # concept is present (no flip when it already is), then quotient
    # equivalent points.
    full_h = (1 << m) - 1
    full_x = (1 << n) - 1
    if any(h.plus == full_x for h in cls.hypotheses):
        flip0 = 0
    else:
        flip0 = full_x & ~cls.hypotheses[0].plus
    groups: dict[int, list[int]] = defaultdict(list)
    for x, col in enumerate(columns(n, cls.hypotheses)):
        # a flipped point's column is the complement
        groups[full_h & ~col if flip0 >> x & 1 else col].append(x)
    bottom = groups.pop(full_h, [])  # all-plus columns sit below everything
    reps = sorted(groups, key=lambda c: groups[c][0])

    def leq(cx: int, cz: int) -> bool:
        # x <= z iff (x,-),(z,+) is unrealizable iff P_z is contained in P_x
        return (cz & ~cx) == 0

    incomparable = [
        (a, b)
        for a, b in itertools.combinations(reps, 2)
        if not leq(a, b) and not leq(b, a)
    ]
    if not incomparable:
        chain = sorted(reps, key=lambda c: -popcount(c))
        order = tuple(sorted(bottom)) + tuple(
            x for c in chain for x in sorted(groups[c])
        )
        if not verify_threshold_certificate(cls, flip0, order):
            raise AssertionError("linear order failed threshold verification")
        return ThresholdLike(flip0, order)

    minimal = [c for c in reps if not any(d != c and leq(d, c) for d in reps)]

    def rep_point(c: int) -> int:
        return groups[c][0]

    if len(minimal) >= 3:
        x, z, w = (rep_point(c) for c in minimal[:3])
        cycle = [(x, +1), (z, -1), (w, +1), (x, -1), (z, +1), (w, -1)]
        return Vc1NonThreshold(_hexagon_witness(cls, flip0, cycle))

    if len(minimal) != 2:
        raise AssertionError("incomparable pair with a single minimal element")
    c1, c2 = minimal
    chain1, chain2 = [], []
    for c in reps:
        with1 = leq(c1, c) or leq(c, c1)
        with2 = leq(c2, c) or leq(c, c2)
        if with1 and with2 and c not in (c1, c2):
            # two incomparable minimals with a common upper bound
            z1, z2, x = rep_point(c1), rep_point(c2), rep_point(c)
            cycle = [(x, +1), (z2, +1), (z1, -1), (x, -1), (z2, -1), (z1, +1)]
            return Vc1NonThreshold(_hexagon_witness(cls, flip0, cycle))
        if not with1 and not with2:
            u, z1, z2 = rep_point(c), rep_point(c1), rep_point(c2)
            cycle = [(u, +1), (z1, -1), (z2, +1), (u, -1), (z1, +1), (z2, -1)]
            return Vc1NonThreshold(_hexagon_witness(cls, flip0, cycle))
        (chain1 if with1 else chain2).append(c)

    for part in (chain1, chain2):
        for a, b in itertools.combinations(part, 2):
            if not leq(a, b) and not leq(b, a):
                raise AssertionError("two-chain structure violated under VC=1")

    # flip the second chain and order: first chain ascending, then the
    # second chain from its top element downwards
    chain2_mask = mask_of(x for c in chain2 for x in groups[c])
    flip = flip0 ^ chain2_mask
    ordered1 = sorted(chain1, key=lambda c: -popcount(c))
    ordered2 = sorted(chain2, key=lambda c: popcount(c))
    order = (
        tuple(sorted(bottom))
        + tuple(x for c in ordered1 for x in sorted(groups[c]))
        + tuple(x for c in ordered2 for x in sorted(groups[c]))
    )
    if not verify_threshold_certificate(cls, flip, order):
        raise AssertionError("two-chain order failed threshold verification")
    return ThresholdLike(flip, order)


def vc_extremal_upper(cls: ConceptClass, candidate: ConceptClass) -> Optional[int]:
    """VC of a verified extremal superclass, as an upper bound certificate.

    No search is performed: the candidate must live on the same domain,
    contain every hypothesis of the class, and be extremal.
    """
    cls.require_total("vc_extremal_upper")
    candidate.require_total("vc_extremal_upper")
    if candidate.domain_size != cls.domain_size:
        raise ValueError("domain size mismatch")
    have = {h.plus for h in candidate.hypotheses}
    if any(h.plus not in have for h in cls.hypotheses):
        return None
    if not is_extremal(candidate).extremal:
        return None
    return dimension(candidate, DimensionVariant.PRIMAL)
