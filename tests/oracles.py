"""Oracles shared by several test files.

None is part of the package.  Certification reads only witnesses, and
general sphere recognition is deliberately not attempted, so no command
needs a complex isomorphism or an Euler characteristic.  And no command
needs the strongly shattered family: the Pajor count and the cubical
complex both read the one shattered family of a class.  The disambiguation
check reads only maximal simplices and the pullback only the class's label
columns; the closure check and the pullback through the antipodal extension
that they replaced stay here, and so does the loader of the benchmark's
corpus, whose classes several test files read.
"""

import importlib.util
import sys
from pathlib import Path
from typing import Optional

from spheredim.complexes import AntipodalComplex, SimplicialComplex, face_counts
from spheredim.concepts import CapExceededError, _monotone_family, bits, popcount
from spheredim.disamb import antipodal_extension

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


def bench_corpus():
    """bench/corpus.py, loaded by path: it generates class files without
    importing spheredim."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
