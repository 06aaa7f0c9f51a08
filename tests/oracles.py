"""Oracles and test-only helpers shared by several test files.

None is part of the package, and no command reaches any of them:

- complex isomorphism, the Euler characteristic and exact face counts:
  certification reads only witnesses, and general sphere recognition is
  deliberately not attempted;
- the strongly shattered family: the Pajor count and the cubical complex
  both read the one shattered family of a class;
- the closure check of a disambiguation, which the check on maximal
  simplices replaced, and the pullback through the antipodal extension,
  which the one transpose of label columns replaced;
- antipodal domains with a representation map of their own, symmetrization,
  the antipodal extension and the restriction to representatives: a
  disambiguation's antipodes are its template's involution, each pair
  represented by its smaller vertex;
- the extension order on partial hypotheses, the restriction of a class at
  a partial hypothesis, and the test that one is realizable, which the
  embedding check makes on masks;
- the maximal chains of a cube poset, which the embedding check counts
  without listing them, and the order complex they span, whose face counts
  ``extremal.cubical_face_counts`` reads without building it;
- the cubes of a class found by grouping all concepts once per shattered
  set, which the level-by-level build replaced, and the collapse search that
  rescans every cube for free faces at each step, which the search keeping
  its free faces incrementally replaced;
- the loader of the benchmark's corpus, whose classes several test files
  read.
"""

import importlib.util
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from spheredim import complexes, extremal
from spheredim.complexes import AntipodalComplex, SimplicialComplex
from spheredim.concepts import (
    CapExceededError,
    ConceptClass,
    PartialHypothesis,
    _monotone_family,
    bits,
    popcount,
)
from spheredim.disamb import is_antipodal_class
from spheredim.extremal import CubicalComplex, is_extremal
from spheredim.spheres import WitnessError

ISO_VERTEX_CAP = 64
SIMPLEX_CAP = 10**6
BENCH_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def _strongly_shatters_mask(cls, mask: int) -> bool:
    """Whether some 2^k concepts agree off the k points of ``mask``: a cube
    of the class with those free points."""
    k = popcount(mask)
    groups: dict[int, int] = {}
    target = 1 << k
    for h in cls.hypotheses:
        key = h.plus & ~mask
        c = groups.get(key, 0) + 1
        if c == target:
            return True
        groups[key] = c
    return False


def strongly_shattered_family(cls) -> list[list[int]]:
    cls.require_total("strongly_shattered_family")
    return _monotone_family(cls, lambda m: _strongly_shatters_mask(cls, m))


def face_counts(k: SimplicialComplex) -> tuple[int, ...]:
    """Exact simplex counts by dimension from the closure, under
    ``complexes.DEFAULT_FACE_CAP`` faces."""
    counts: dict[int, int] = {}
    for s in k.all_simplices(complexes.DEFAULT_FACE_CAP):
        d = popcount(s) - 1
        counts[d] = counts.get(d, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(d, 0) for d in range(max(counts) + 1))


def euler_characteristic(k) -> int:
    return sum((-1) ** d * c for d, c in enumerate(face_counts(k)))


def complexes_isomorphic(
    a,
    b,
    respect_involution: bool = False,
) -> Optional[tuple[int, ...]]:
    """Search for a vertex bijection carrying maximal simplices onto maximal
    simplices (and commuting with the involutions when asked).

    Exact backtracking with degree and simplex-size pruning; deterministic;
    returns the image tuple or None; raises past ``ISO_VERTEX_CAP`` vertices.
    """
    if respect_involution and not (
        isinstance(a, AntipodalComplex) and isinstance(b, AntipodalComplex)
    ):
        raise ValueError("respect_involution requires antipodal complexes")
    n = len(a.vertices)
    if max(n, len(b.vertices)) > ISO_VERTEX_CAP:
        raise CapExceededError(f"isomorphism cap is {ISO_VERTEX_CAP} vertices")
    if n != len(b.vertices) or len(a.maximal) != len(b.maximal):
        return None
    if sorted(map(popcount, a.maximal)) != sorted(map(popcount, b.maximal)):
        return None

    def profile(c: SimplicialComplex, v: int) -> tuple:
        sizes = sorted(popcount(s) for s in c.maximal if s & (1 << v))
        return tuple(sizes)

    prof_a = [profile(a, v) for v in range(n)]
    prof_b = [profile(b, v) for v in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    maximal_b = set(b.maximal)
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
        for s in a.maximal:
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
            elif not b.has_simplex(img_mask):
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


def closure_disambiguates(d) -> bool:
    """Whether every simplex of the template's closure, at most
    ``SIMPLEX_CAP`` of them, has a hypothesis positive on it and negative on
    its image."""
    tc = d.template.complex
    for s in sorted(tc.all_simplices(SIMPLEX_CAP)):
        neg = tc.map_simplex(s)
        if not any((h.plus & s) == s and (h.plus & neg) == 0 for h in d.cls.hypotheses):
            return False
    return True


# --- antipodal domains ------------------------------------------------------


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
    if not is_antipodal_class(result, domain.pairing):
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
    if not is_antipodal_class(out, domain.pairing):
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
    if not is_antipodal_class(cls, domain.pairing):
        raise WitnessError("restriction to representatives requires an antipodal class")
    reps = domain.representatives()
    return cls.restrict(reps), reps


def extension_pullback_rows(w) -> list[int]:
    """The concept masks a witness pulls back to, read through the antipodal
    extension of its class: (x, +) is point x and (x, -) point n + x of the
    doubled class; repeats collapse in concept order."""
    ext, _domain = antipodal_extension(w.cls)
    n = w.cls.domain_size
    ext_index = [x if s > 0 else n + x for x, s in w.pairs]
    rows: list[int] = []
    for h in ext.hypotheses:
        plus = 0
        for i, j in enumerate(ext_index):
            if h.plus & (1 << j):
                plus |= 1 << i
        if plus not in rows:
            rows.append(plus)
    return rows


# --- extremal classes -------------------------------------------------------


def restriction(cls: ConceptClass, h: PartialHypothesis) -> ConceptClass:
    """The subclass of concepts extending h, on the same domain.

    Restricting an extremal class at a realizable partial hypothesis yields
    an extremal class again; this is verified when the input is small enough
    to test for extremality.
    """
    cls.require_total("restriction")
    if h.n != cls.domain_size:
        raise ValueError("length mismatch")
    kept = tuple(g for g in cls.hypotheses if extends(g, h))
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


def extends(h: PartialHypothesis, other: PartialHypothesis) -> bool:
    """True when h >= other in the extension order: h agrees with other on
    the support of other."""
    if h.n != other.n:
        raise ValueError("length mismatch")
    return (other.defined & ~h.defined) == 0 and ((h.plus ^ other.plus) & other.defined) == 0


def realizable_partial(cls: ConceptClass, h: PartialHypothesis) -> bool:
    """True when some concept of the class extends h."""
    return any(extends(g, h) for g in cls.hypotheses)


def cube_chains(cc: CubicalComplex) -> list[int]:
    """The maximal chains of the cube poset, sorted, as bitmasks over
    positions in ``cc.cubes``.

    A maximal chain is a facet-descending path from an inclusion-maximal cube
    down to a vertex.
    """
    facets: list[list[int]] = [[] for _ in cc.cubes]
    for j, up in enumerate(cc.cofaces):
        for i in bits(up):
            facets[i].append(j)
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
            descend(i, 1 << i)
    return sorted(maximal)


def cubical_barycentric(cc: CubicalComplex) -> SimplicialComplex:
    """Order complex of the cube poset: vertices are cubes, simplices chains.

    Maximal simplices are the facet-descending paths from the inclusion-
    maximal cubes down to vertices, as ``cube_chains`` lists them.
    """
    return SimplicialComplex(cc.rows(), tuple(cube_chains(cc)))


def grouped_cubical_complex(cls: ConceptClass) -> CubicalComplex:
    """``extremal.cubical_complex`` by grouping: for each shattered k-set S,
    the concepts are grouped by their pattern off S, and a group of 2^k is a
    cube.  It reads ``extremal.DEFAULT_CUBE_CAP`` at call time."""
    cls.require_total("cubical_complex")
    n = cls.domain_size
    full = (1 << n) - 1
    cubes: list[PartialHypothesis] = []
    for level in cls.shattered_levels:
        for smask in level:
            target = 1 << popcount(smask)
            groups: dict[int, int] = defaultdict(int)
            for h in cls.hypotheses:
                groups[h.plus & ~smask] += 1
            for key, count in sorted(groups.items()):
                if count == target:
                    cubes.append(PartialHypothesis(n, key, full & ~smask))
                    if len(cubes) > extremal.DEFAULT_CUBE_CAP:
                        raise CapExceededError(
                            f"cube cap {extremal.DEFAULT_CUBE_CAP} exceeded"
                        )
    return CubicalComplex(tuple(cubes))


def cube_incidence(cubes) -> tuple[tuple[PartialHypothesis, ...], list[int], list[int]]:
    """The cubes in (dimension, label) order, with the coface and the facet
    bitmask of each over positions in that order, as ``CubicalComplex``
    indexed them by building every facet as a ``PartialHypothesis`` and
    looking it up."""
    ordered = tuple(sorted(cubes, key=lambda c: (c.dimension, str(c))))
    index = {(c.plus, c.defined): i for i, c in enumerate(ordered)}
    cofaces = [0] * len(ordered)
    facets = [0] * len(ordered)
    for i, c in enumerate(ordered):
        for x in bits(((1 << c.n) - 1) & ~c.defined):
            for plus in (c.plus, c.plus | 1 << x):
                j = index[(plus, c.defined | 1 << x)]
                cofaces[j] |= 1 << i
                facets[i] |= 1 << j
    return ordered, cofaces, facets


def rescan_collapse_certificate(
    cc: CubicalComplex, node_budget: int = extremal.DEFAULT_COLLAPSE_BUDGET
) -> Optional[list[tuple[str, str]]]:
    """``extremal.collapse_certificate`` with the free faces of each state
    found by scanning every cube of it: the same depth-first search, in the
    same greedy order, under the same node budget and cube cap."""
    if len(cc.cubes) > extremal.DEFAULT_CUBE_CAP:
        raise CapExceededError(f"collapse cube cap is {extremal.DEFAULT_CUBE_CAP}")
    labels = cc.rows()
    dims = [c.dimension for c in cc.cubes]
    cofaces = cc.cofaces
    state = (1 << len(cc.cubes)) - 1
    dead: set[int] = set()
    moves: list[tuple[str, str]] = []
    nodes = 0

    def free_pairs(st: int) -> list[tuple[int, int]]:
        # a cube of a face-closed state is free iff it has exactly one
        # codimension-one coface in it
        out = []
        for c in bits(st):
            up = cofaces[c] & st
            if up and not up & (up - 1):
                out.append((c, up.bit_length() - 1))
        return out

    stack: list[tuple[int, Iterator[tuple[int, int]]]] = []

    def enter(st: int) -> Optional[bool]:
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
        if outcome is False:
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


def bench_corpus():
    """bench/corpus.py, loaded by path: it generates class files without
    importing spheredim."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
