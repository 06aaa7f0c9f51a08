"""Extremal classes, cubical complexes, collapsibility, low-VC classification.

A finite total class is extremal when it meets Pajor's inequality |H| <=
|shatter(H)| with equality; equivalently, every shattered set is strongly
shattered: is the set of free points of a cube.  The discrete cubes of a
class (partial hypotheses whose full completion cube lies inside the class)
form a cubical complex whose dimension equals VC for extremal classes; its
barycentric subdivision is the order complex of the cube poset and, away from
the full binary cube, embeds as a full subcomplex of the subdivided
realizable complex.  Free points are shattered, so the cubes are found on the
one shattered family of the class, which the Pajor count reads too, level by
level: with x the top point of a shattered set S, a pattern k off S spans a
cube on S iff k and k | x both span one on S - x.  The
embedding is checked on the cubes alone: each must be the restriction of a
concept to a nonempty support.  A maximal chain of cubes is a facet-
descending path, and a facet extends its cube, so every such chain is an
extension chain by construction; the check counts them in closed form, j!*2^j
below each top j-cube, and walks none.  The cubes on a support-dropping path
from one concept always extend each other in turn, so fullness needs no walk
of the realizable complex (the order complex of an induced subposet is
always full).  Face counts of the subdivision are arithmetic on the cube
counts, so no face cap applies to them.

Collapsibility is certified constructively: a free face is a cube with exactly
one proper coface in the current complex, and an elementary collapse removes
the pair.  A certificate is a collapse sequence ending at a single vertex,
found by greedy ordering with backtracking under a node budget.  Each state
of the search keeps its free faces as a bitmask.  Whether a cube is free
depends only on which of its cofaces are left, and collapsing the pair
(c, d) removes only c and d, so only the facets of c and of d can change
status; the search tests those again and no other cube.

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
from typing import Optional, Union

from spheredim.concepts import (
    CapExceededError,
    ConceptClass,
    PartialHypothesis,
    columns,
    mask_of,
    popcount,
    shattered_family,
    _shatters_mask,
)
from spheredim import complexes
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
    0-cubes, which are exactly the concepts when built from a class, in
    (dimension, label) order whatever order they are given in.
    """

    cubes: tuple[PartialHypothesis, ...]
    cofaces: tuple[int, ...] = field(init=False, repr=False, compare=False)
    facets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Sort the cubes by (dimension, label), check that they share one
        length and are closed under facets, and build the incidence index:
        ``cofaces[i]`` is the bitmask of the positions in ``cubes`` of the
        codimension-one cubes that have ``cubes[i]`` as a facet, and
        ``facets[i]`` the bitmask of the facets of ``cubes[i]``.  Each cube's
        dimension and label are computed once, for the sort, ``counts`` and
        ``rows``."""
        if len({c.n for c in self.cubes}) > 1:
            raise ValueError("cubes must all have the same length")
        n = self.cubes[0].n if self.cubes else 0
        sort_keys = [(n - popcount(c.defined), str(c)) for c in self.cubes]
        order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
        cubes = tuple(self.cubes[i] for i in order)
        counts = [0] * (max((d for d, _ in sort_keys), default=-1) + 1)
        for d, _ in sort_keys:
            counts[d] += 1
        object.__setattr__(self, "cubes", cubes)
        object.__setattr__(self, "_labels", tuple(sort_keys[i][1] for i in order))
        object.__setattr__(self, "_counts", tuple(counts))
        index = {c.plus | c.defined << n: i for i, c in enumerate(cubes)}
        if len(index) != len(cubes):
            raise ValueError("duplicate cubes")
        full = (1 << n) - 1
        cofaces = [0] * len(cubes)
        facets = [0] * len(cubes)
        for i, c in enumerate(cubes):
            # a facet fixes one free point of its cube, each way
            free = full & ~c.defined
            while free:
                bit = free & -free
                free ^= bit
                defined = c.defined | bit
                for plus in (c.plus, c.plus | bit):
                    j = index.get(plus | defined << n)
                    if j is None:
                        facet = PartialHypothesis(n, plus, defined)
                        raise ValueError(f"cube {c} is missing its facet {facet}")
                    cofaces[j] |= 1 << i
                    facets[i] |= 1 << j
        object.__setattr__(self, "cofaces", tuple(cofaces))
        object.__setattr__(self, "facets", tuple(facets))

    def counts(self) -> tuple[int, ...]:
        return self._counts

    def rows(self) -> tuple[str, ...]:
        return self._labels

    @classmethod
    def from_strings(cls, rows) -> "CubicalComplex":
        return cls(tuple(PartialHypothesis.from_string(r) for r in rows))


def cubical_complex(cls: ConceptClass) -> CubicalComplex:
    """All partial hypotheses whose completion cube lies inside the class,
    at most ``DEFAULT_CUBE_CAP`` of them.

    The free points of a cube are shattered, so the cubes are found on the
    shattered family, one level after the other.  The cubes free on the
    empty set are the concepts.  With x the top point of a shattered set S,
    a pattern k off S is a cube free on S iff k and k | x are both cubes
    free on S - x, which is shattered, one level down: the completions of
    the two are the completions of k on S.  A set that is shattered but not
    strongly shattered gets no cube this way.
    """
    cls.require_total("cubical_complex")
    n = cls.domain_size
    full = (1 << n) - 1
    # free set -> the plus masks of its cubes
    found = {0: {h.plus for h in cls.hypotheses}}
    count = 0
    for level in cls.shattered_levels:
        for smask in level:
            if smask:
                x = 1 << (smask.bit_length() - 1)
                lower = found[smask ^ x]
                found[smask] = {k for k in lower if not k & x and k | x in lower}
            count += len(found[smask])
            if count > DEFAULT_CUBE_CAP:
                raise CapExceededError(f"cube cap {DEFAULT_CUBE_CAP} exceeded")
    return CubicalComplex(tuple(
        PartialHypothesis(n, k, full & ~smask) for smask, keys in found.items() for k in keys
    ))


def cubical_face_counts(cc: CubicalComplex) -> tuple[int, ...]:
    """Face counts of the barycentric subdivision of ``cc``, the order
    complex of its cube poset, without building it.

    A face of the order complex is a chain of cubes.  The complex is closed
    under facets, so below a j-cube sits the face lattice of a j-cube, with
    C(j, i)*2^(j-i) faces of dimension i, for the chain count of
    ``complexes.subdivision_face_counts``.  The count is arithmetic on
    ``cc.counts()`` and enumerates no chain, so no face cap applies; the
    cubes themselves are bounded by ``DEFAULT_CUBE_CAP``.
    """
    return tuple(complexes.subdivision_face_counts(
        cc.counts(), lambda j, i: math.comb(j, i) << (j - i)
    ))


@dataclass(frozen=True)
class EmbeddingReport:
    reversed_case: bool
    ok: bool
    cube_vertices: int
    chains_checked: int
    detail: str


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

    Neither subdivided complex is built, and the realizable one is not
    walked: only one thing can fail.  Each cube must be a realizable vertex,
    a restriction of some concept to a nonempty support.  That suffices.
    Every chain of cubes lies in a maximal one, a facet-descending path from
    a top cube (one with no coface) to a vertex; ``CubicalComplex`` builds
    its coface index from facets only, and a facet fixes one free point of
    its cube, so along the path each cube extends the one above it.  A set
    of realizable cubes in which each extends the next lies in a maximal
    simplex there: the concept extending its member of largest support
    extends them all, and a support-dropping path from that concept passes
    through their nested supports.  Conversely, the cubes on such a path are
    restrictions of one concept to nested supports, so each extends the
    next; this is fullness, which therefore holds on every input (the order
    complex of an induced subposet is a full subcomplex).  So the maximal
    chains are counted, not walked: a j-cube has 2j facets, each a
    (j-1)-cube, so j!*2^j distinct paths lead from a top j-cube down to a
    vertex.  In the full binary cube every partial hypothesis is
    realizable, so each one with nonempty support is looked up among the
    cubes.

    A caller that has already found the class extremal passes its cubical
    complex as ``cc``; without it, extremality is checked here first.
    """
    if cc is None:
        if not is_extremal(cls).extremal:
            raise WitnessError("embedding check requires an extremal class")
        cc = cubical_complex(cls)
    n = cls.domain_size
    if cc.cubes and cc.cubes[0].n != n:
        raise ValueError("length mismatch")
    if len(cls) == 1 << n:
        # full binary cube: every nonempty-support partial hypothesis is
        # realizable and must be a cube
        count = 0
        have = {(c.plus, c.defined) for c in cc.cubes}
        for defined in range(1, 1 << n):
            for plus in _submasks(defined):
                count += 1
                if (plus, defined) not in have:
                    h = PartialHypothesis(n, plus, defined)
                    return EmbeddingReport(True, False, count, 0, f"{h} not a cube")
        return EmbeddingReport(
            True, True, count, 0,
            "reversed case: the subdivided realizable complex sits inside the cube poset",
        )

    # every cube is a vertex of the subdivided realizable complex: a
    # restriction of some concept to the cube's nonempty support, so its
    # pattern is among the concepts' patterns on that support
    patterns: dict[int, set[int]] = {}
    for c in cc.cubes:
        seen = patterns.get(c.defined)
        if seen is None:
            seen = patterns[c.defined] = {
                g.plus & c.defined for g in cls.hypotheses if not c.defined & ~g.defined
            }
        if c.defined == 0 or c.plus not in seen:
            return EmbeddingReport(
                False, False, len(cc.cubes), 0, f"cube {c} is not a realizable vertex"
            )

    # every maximal chain of cubes is an extension chain, so a simplex there;
    # j!*2^j of them descend from each top j-cube
    chains = sum(
        math.factorial(c.dimension) << c.dimension
        for c, up in zip(cc.cubes, cc.cofaces)
        if not up
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

    The free faces are kept incrementally.  Whether a cube is free depends
    only on which of its cofaces are left, and collapsing the pair (c, d)
    removes only c and d, so the cubes whose status can change are the
    facets of c and of d; only those are tested again.
    """
    if len(cc.cubes) > DEFAULT_CUBE_CAP:
        raise CapExceededError(f"collapse cube cap is {DEFAULT_CUBE_CAP}")
    # A state is a bitmask over the cubes, which are in (dimension, label)
    # order, so a scan of the bits of its free mask visits the free faces in
    # greedy order.  Every state is closed under faces (an elementary collapse
    # keeps that), so a cube has exactly one proper coface iff it has exactly
    # one codimension-one coface: a coface of codimension two or more has two
    # codimension-one cofaces of the cube among its faces.
    labels = cc.rows()
    cofaces = cc.cofaces
    facets = cc.facets

    def free_among(st: int, candidates: int) -> int:
        # the free mask of ``st`` restricted to ``candidates``
        out = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            up = cofaces[low.bit_length() - 1] & st
            if up and not up & (up - 1):
                out |= low
        return out

    state = (1 << len(cc.cubes)) - 1
    dead: set[int] = set()
    moves: list[tuple[str, str]] = []
    nodes = 0
    # the search is depth-first, with an explicit stack of the states
    # entered, each with its free mask and the free faces it has left to
    # try, so that its depth (one state per collapse step) is not bounded by
    # Python's recursion limit
    stack: list[list[int]] = []

    def enter(st: int, free: int) -> Optional[bool]:
        # the outcome of a state decided on entry, or None once it is pushed
        nonlocal nodes
        if st and not st & (st - 1):
            return not facets[st.bit_length() - 1]  # a vertex has no facets
        if st in dead:
            return False
        nodes += 1
        if nodes > node_budget:
            raise CapExceededError(f"collapse node budget {node_budget} exceeded")
        stack.append([st, free, free])
        return None

    outcome = enter(state, free_among(state, state))
    while stack and not outcome:
        top = stack[-1]
        st, free, left = top
        if outcome is False:  # the state the last move led to failed
            moves.pop()
        if not left:
            dead.add(st)
            stack.pop()
            outcome = False
            continue
        low = left & -left  # the next free face c, and its one coface d
        top[2] = left ^ low
        c = low.bit_length() - 1
        up = cofaces[c] & st
        d = up.bit_length() - 1
        moves.append((labels[c], labels[d]))
        rest = st ^ low ^ up
        touched = (facets[c] | facets[d]) & rest
        outcome = enter(rest, free & rest & ~touched | free_among(rest, touched))
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
