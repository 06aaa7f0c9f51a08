"""Finite concept classes and shattering-based dimension computations.

A concept class is a duplicate-free list of hypotheses, each a vector over
{-, +} (total) or {-, +, *} (partial, with * read as "undefined") on a finite
domain of n points.  Hypotheses are stored as fixed-width bit pairs: a mask of
'+' positions and a mask of defined positions, so that pattern checks over a
point subset S reduce to word operations on masked integers.

Four dimensions are computed here.  A set S is shattered when every sign
pattern on S is realized by some hypothesis, and antipodally shattered when
every pattern is realized up to a global sign flip.  The primal dimensions are
the largest sizes of such sets; the dual dimensions are the primal ones of the
dual class (domain and hypotheses swapped).  All searches enumerate subsets in
increasing size and exit early, which is sound because both shattering notions
are downward closed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

ALPHABET = {"-", "+", "*"}

DEFAULT_PRODUCT_CAP = 1 << 20
FAMILY_CUBE_MAX = 20
FAMILY_UNIVERSAL_MAX = 20
FAMILY_THRESHOLD_MAX = 4096


class ClassFormatError(ValueError):
    """A class file or hypothesis literal violates the format invariants."""


class CapExceededError(RuntimeError):
    """A configured size cap or search budget was exceeded."""


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@dataclass(frozen=True, order=True)
class PartialHypothesis:
    """A vector over {-, +, *} of length ``n``.

    ``plus`` holds the '+' positions and ``defined`` the non-'*' positions;
    entries outside ``defined`` are undefined.  The extension order h1 <= h2
    holds when h2 agrees with h1 on all of h1's support.
    """

    n: int
    plus: int
    defined: int

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if self.defined & ~full or self.plus & ~self.defined:
            raise ClassFormatError("hypothesis masks out of range")

    @classmethod
    def from_string(cls, text: str) -> "PartialHypothesis":
        """Parse a row in linear time: character i is bit i, so the
        reversed row, rewritten as two 0/1 strings, gives both masks."""
        if not ALPHABET.issuperset(text):
            ch = next(ch for ch in text if ch not in ALPHABET)
            raise ClassFormatError(f"illegal character {ch!r} in hypothesis")
        backwards = "0" + text[::-1].replace("*", "0")  # the 0 reads an empty row
        plus = int(backwards.replace("-", "0").replace("+", "1"), 2)
        defined = int(backwards.replace("-", "1").replace("+", "1"), 2)
        return cls(len(text), plus, defined)

    @classmethod
    def total(cls, n: int, plus: int) -> "PartialHypothesis":
        return cls(n, plus, (1 << n) - 1)

    def __str__(self) -> str:
        out = []
        for i in range(self.n):
            bit = 1 << i
            if not self.defined & bit:
                out.append("*")
            else:
                out.append("+" if self.plus & bit else "-")
        return "".join(out)

    @property
    def is_total(self) -> bool:
        return self.defined == (1 << self.n) - 1

    @property
    def dimension(self) -> int:
        """Number of undefined coordinates, d(h) = n - |supp(h)|."""
        return self.n - popcount(self.defined)

    def restrict(self, points: Sequence[int]) -> "PartialHypothesis":
        """Project onto the given points, reindexed in the given order."""
        plus = 0
        defined = 0
        for j, x in enumerate(points):
            bit = 1 << x
            if self.defined & bit:
                defined |= 1 << j
                if self.plus & bit:
                    plus |= 1 << j
        return PartialHypothesis(len(points), plus, defined)


@dataclass(frozen=True)
class ConceptClass:
    """A nonempty, duplicate-free, equal-length list of hypotheses."""

    domain_size: int
    hypotheses: tuple[PartialHypothesis, ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ClassFormatError("a concept class must be nonempty")
        seen = set()
        for h in self.hypotheses:
            if h.n != self.domain_size:
                raise ClassFormatError("ragged rows: hypothesis lengths differ")
            key = (h.plus, h.defined)
            if key in seen:
                raise ClassFormatError(f"duplicate hypothesis {h}")
            seen.add(key)

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "ConceptClass":
        hyps = tuple(PartialHypothesis.from_string(r) for r in rows)
        if not hyps:
            raise ClassFormatError("a concept class must be nonempty")
        return cls(hyps[0].n, hyps)

    @cached_property
    def is_partial(self) -> bool:
        """Whether some hypothesis is partial; kept with the instance, since
        every analysis step asks ``require_total`` again."""
        return any(not h.is_total for h in self.hypotheses)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def rows(self) -> tuple[str, ...]:
        return tuple(str(h) for h in self.hypotheses)

    def require_total(self, op: str) -> None:
        if self.is_partial:
            raise ClassFormatError(f"{op} requires a total class")

    @cached_property
    def label_columns(self) -> "LabelColumns":
        """The columns at the points that carry both labels, built on first
        read and kept with the instance (not a field, so not in eq, hash or
        repr); a total class only."""
        self.require_total("label_columns")
        full = (1 << len(self.hypotheses)) - 1
        points: list[tuple[int, int]] = []
        masks: list[int] = []
        for x, col in enumerate(columns(self.domain_size, self.hypotheses)):
            if col and col != full:
                points += [(x, -1), (x, +1)]
                masks += [full & ~col, col]
        return LabelColumns(tuple(points), tuple(masks))

    @cached_property
    def shattered_levels(self) -> tuple[tuple[int, ...], ...]:
        """The shattered point sets (the family shatter(H)) as masks, level
        k holding the k-sets in increasing mask order, which is not
        lexicographic order on points (``max_shattered_set`` compares sorted
        points itself), found on first read and kept with the instance like
        ``label_columns``.  The search stops at the Sauer-Shelah cap: a
        shattered k-set needs 2^k distinct patterns, each from its own
        hypothesis, so k <= log2|H| and no set is lost."""
        levels = _monotone_family(
            self, lambda m: _shatters_mask(self, m), len(self).bit_length() - 1
        )
        return tuple(map(tuple, levels))

    def restrict(self, points: Sequence[int]) -> "ConceptClass":
        """Restriction to a point sequence, which must keep hypotheses distinct."""
        out: list[PartialHypothesis] = []
        seen: set[tuple[int, int]] = set()
        for h in self.hypotheses:
            r = h.restrict(points)
            key = (r.plus, r.defined)
            if key in seen:
                raise ClassFormatError("restriction produced duplicate hypotheses")
            seen.add(key)
            out.append(r)
        return ConceptClass(len(points), tuple(out))


def parse_class(text: str) -> ConceptClass:
    """Parse the class file format: one row per line, '#' lines ignored."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise ClassFormatError("empty class file")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ClassFormatError("ragged rows: line lengths differ")
    return ConceptClass.from_strings(rows)


def format_class(cls: ConceptClass) -> str:
    return "\n".join(cls.rows()) + "\n"


def _subset_mask(cls: ConceptClass, S: Iterable[int]) -> int:
    mask = 0
    for x in S:
        if not 0 <= x < cls.domain_size:
            raise IndexError(f"domain index {x} out of range")
        mask |= 1 << x
    return mask


def shatters(cls: ConceptClass, S: Iterable[int]) -> bool:
    """True iff every sign pattern on S is realized; the empty set qualifies."""
    mask = _subset_mask(cls, S)
    return _shatters_mask(cls, mask)


def _shatters_mask(cls: ConceptClass, mask: int) -> bool:
    """Count the distinct '+' patterns on ``mask`` of the hypotheses defined
    there, and stop as soon as all 2^k are seen."""
    target = 1 << popcount(mask)
    seen: set[int] = set()
    for h in cls.hypotheses:
        if not mask & ~h.defined:
            seen.add(h.plus & mask)
            if len(seen) == target:
                return True
    return False


def _antipodally_shatters_mask(cls: ConceptClass, mask: int) -> bool:
    """Count the patterns on ``mask`` up to flip, each named by the one of
    the pair that is '-' at the mask's lowest point, and stop at 2^(k-1)."""
    if not mask:
        return True
    low = mask & -mask
    target = 1 << (popcount(mask) - 1)
    seen: set[int] = set()
    for h in cls.hypotheses:
        if not mask & ~h.defined:
            p = h.plus & mask
            if p & low:
                p ^= mask
            seen.add(p)
            if len(seen) == target:
                return True
    return False


def _monotone_family(
    cls: ConceptClass, predicate, max_size: Optional[int] = None
) -> list[list[int]]:
    """Levels of a downward-closed family of point subsets, found by BFS.

    ``predicate(mask)`` must be monotone (true on subsets of true sets).
    Level k lists the masks of the qualifying k-subsets in increasing mask
    order, which is not lexicographic order on points: {1, 2} = 0b0110
    comes before {0, 3} = 0b1001.  The search stops at the first empty level.

    Each candidate extends a member ``smask`` of the previous level by a
    point above its top bit.  Its facet without that point is ``smask``
    itself, so only the other k-1 facets, ``cand ^ low`` for each set bit
    ``low`` of ``smask``, are looked up before the predicate runs.
    """
    n = cls.domain_size
    limit = n if max_size is None else min(n, max_size)
    levels: list[list[int]] = [[0]]
    current = [0]
    size = 0
    while size < limit and current:
        nxt = []
        prev = set(current)
        for smask in current:
            for x in range(smask.bit_length(), n):
                cand = smask | (1 << x)
                rest = smask
                while rest:  # bits(smask), inlined: every candidate comes through here
                    low = rest & -rest
                    if cand ^ low not in prev:
                        break
                    rest ^= low
                else:
                    if predicate(cand):
                        nxt.append(cand)
        nxt.sort()
        if not nxt:
            break
        levels.append(nxt)
        current = nxt
        size += 1
    return levels


def shattered_family(cls: ConceptClass) -> tuple[tuple[int, ...], ...]:
    """All shattered subsets, grouped by size: ``cls.shattered_levels``."""
    return cls.shattered_levels


def transpose(n: int, rows: Iterable[int]) -> list[int]:
    """For each of ``n`` columns, the mask of the positions of the rows
    (bitmasks over the columns) that contain it."""
    out = [0] * n
    for j, row in enumerate(rows):
        bit = 1 << j
        while row:  # bits(row), inlined: every complex and class goes through here
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def columns(n: int, hyps: Sequence[PartialHypothesis]) -> list[int]:
    """For each of the ``n`` points, the mask of the positions in ``hyps``
    of the hypotheses positive there.  ``hyps`` may repeat a hypothesis."""
    return transpose(n, (h.plus for h in hyps))


@dataclass(frozen=True)
class LabelColumns:
    """The vertices of a total class's antipodal subcomplex and their
    incidence, read from the class's columns.

    Vertex 2k is (x, -1) and vertex 2k+1 is (x, +1) for the k-th point x
    that carries both labels, so vertex i and vertex i ^ 1 are antipodal;
    ``masks[i]`` is the mask of the positions of the hypotheses that give
    vertex i's point its label.  A set of vertices is a simplex of the
    antipodal subcomplex iff some hypothesis carries all of its labels and
    some hypothesis all of the flipped ones: iff the AND of ``masks`` over
    the set and the AND over its flip are both nonzero.
    """

    points: tuple[tuple[int, int], ...]
    masks: tuple[int, ...]

    def has_simplex(self, mask: int) -> bool:
        """Whether ``mask`` spans a simplex: the empty mask iff there is a
        vertex, never a mask past the last vertex."""
        masks = self.masks
        if not masks or mask >> len(masks):
            return False
        here = flipped = -1
        while mask:  # bits(mask), inlined on the hot path of verification
            low = mask & -mask
            i = low.bit_length() - 1
            here &= masks[i]
            flipped &= masks[i ^ 1]
            mask ^= low
        return here != 0 and flipped != 0


def max_hamming_distance(cls: ConceptClass) -> int:
    """The most points on which two hypotheses of a total class differ; 0
    for a single hypothesis."""
    cls.require_total("max_hamming_distance")
    pluses = [h.plus for h in cls.hypotheses]
    return max(
        max(map(int.bit_count, map(p.__xor__, pluses[i:])))
        for i, p in enumerate(pluses)
    )


def dual_class(cls: ConceptClass) -> tuple[ConceptClass, tuple[int, ...]]:
    """The dual class, with duplicate columns collapsed.

    Returns the dual together with the collapse map sending each original
    domain point to the index of its dual hypothesis.
    """
    cls.require_total("dual_class")
    m = len(cls.hypotheses)
    dual: list[PartialHypothesis] = []
    index_of: dict[int, int] = {}
    collapse = []
    for col in columns(cls.domain_size, cls.hypotheses):
        if col not in index_of:
            index_of[col] = len(dual)
            dual.append(PartialHypothesis.total(m, col))
        collapse.append(index_of[col])
    return ConceptClass(m, tuple(dual)), tuple(collapse)


class DimensionVariant(enum.Enum):
    PRIMAL = "primal"
    DUAL = "dual"
    PRIMAL_ANTIPODAL = "primal_antipodal"
    DUAL_ANTIPODAL = "dual_antipodal"


def max_shattered_set(cls: ConceptClass, antipodal: bool = False) -> int:
    """Lexicographically least maximum-size (antipodally) shattered set, as a mask.

    The shattered sets are ``cls.shattered_levels``.  The antipodal search
    stops at the Sauer-Shelah cap: an antipodally shattered k-set needs
    2^(k-1) pairs of patterns, each from its own hypothesis, so k <= log2|H| + 1.
    """
    if antipodal:
        levels = _monotone_family(
            cls, lambda m: _antipodally_shatters_mask(cls, m), len(cls).bit_length()
        )
    else:
        levels = cls.shattered_levels
    return min(levels[-1], key=lambda m: tuple(bits(m)))


def dimension(cls: ConceptClass, variant: DimensionVariant) -> int:
    """The requested VC-type dimension of a total, nonempty class."""
    cls.require_total("dimension")
    if variant is DimensionVariant.PRIMAL:
        return popcount(max_shattered_set(cls))
    if variant is DimensionVariant.PRIMAL_ANTIPODAL:
        return popcount(max_shattered_set(cls, antipodal=True))
    dual, _ = dual_class(cls)
    if variant is DimensionVariant.DUAL:
        return popcount(max_shattered_set(dual))
    return popcount(max_shattered_set(dual, antipodal=True))


def dual_antipodal_witnesses(
    cls: ConceptClass, hyp_indices: Sequence[int]
) -> Optional[dict[int, tuple[int, bool]]]:
    """Witness points for the dual antipodal shattering of a hypothesis set.

    For every dual pattern on the chosen hypotheses (a mask over positions of
    ``hyp_indices``) the returned dict gives a pair (point, positively) where
    the column at the point equals the pattern (positively=True) or its
    negation.  Returns None when some pattern has no witness, i.e. the set is
    not dually antipodally shattered.  Witness points are the least possible,
    scanning the domain in index order.
    """
    k = len(hyp_indices)
    found: dict[int, tuple[int, bool]] = {}
    full = (1 << k) - 1
    cols = columns(cls.domain_size, [cls.hypotheses[i] for i in hyp_indices])
    for x, col in enumerate(cols):
        if col not in found:
            found[col] = (x, True)
        neg = full & ~col
        if neg not in found:
            found[neg] = (x, False)
        if len(found) == 1 << k:
            break
    if len(found) != 1 << k:
        return None
    return found


def product_class(a: ConceptClass, b: ConceptClass) -> ConceptClass:
    """The product class on the disjoint concatenation of the two domains,
    of at most ``DEFAULT_PRODUCT_CAP`` hypotheses."""
    a.require_total("product_class")
    b.require_total("product_class")
    if len(a) * len(b) > DEFAULT_PRODUCT_CAP:
        raise CapExceededError(
            f"product size {len(a) * len(b)} exceeds cap {DEFAULT_PRODUCT_CAP}"
        )
    n = a.domain_size + b.domain_size
    shift = a.domain_size
    full = (1 << n) - 1
    hyps = []
    for ha in a.hypotheses:
        for hb in b.hypotheses:
            hyps.append(PartialHypothesis(n, ha.plus | (hb.plus << shift), full))
    return ConceptClass(n, tuple(hyps))


def power_class(cls: ConceptClass, m: int) -> ConceptClass:
    """m-fold product power of a class, under the cap of ``product_class``.

    Built by squaring: the product of A^p and A^q lists the concatenated
    tuples of their rows in lexicographic order, which is A^(p+q) row for
    row, so the powers at the set bits of m multiply to A^m.  No power
    built on the way has more rows than A^m.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    out = None
    square = cls
    while True:
        if m & 1:
            out = square if out is None else product_class(out, square)
        m >>= 1
        if not m:
            return out
        square = product_class(square, square)


def family_domain_size(name: str, n: int) -> int:
    """The number of points of ``family_class(name, n)``, read without
    building it: n for cube and threshold, 2^n for universal and
    universal_plus, n + 1 for subsets_leq.  A bad name or n, or a family
    past its cap, raises here."""
    if n < 1:
        raise ValueError("family parameter must be >= 1")
    if name == "cube":
        if n > FAMILY_CUBE_MAX:
            raise CapExceededError(f"cube cap is n <= {FAMILY_CUBE_MAX}")
        return n
    if name in ("universal", "universal_plus"):
        if n > FAMILY_UNIVERSAL_MAX:
            raise CapExceededError(f"universal cap is n <= {FAMILY_UNIVERSAL_MAX}")
        return 1 << n
    if name == "threshold":
        if n > FAMILY_THRESHOLD_MAX:
            raise CapExceededError(f"threshold cap is d <= {FAMILY_THRESHOLD_MAX}")
        return n
    if name == "subsets_leq":
        if n + 1 > FAMILY_CUBE_MAX:
            raise CapExceededError(f"subsets_leq cap is d <= {FAMILY_CUBE_MAX - 1}")
        return n + 1
    raise ValueError(f"unknown family {name!r}")


def family_class(name: str, n: int) -> ConceptClass:
    """Canonical generators for the named class families.

    cube(n): all 2^n hypotheses on n points.
    universal(n): n indicator hypotheses on the 2^n subsets of [n].
    universal_plus(n): universal(n) plus the all-minus and all-plus hypotheses.
    threshold(d): d+1 hypotheses on d points, h_i positive on the first i points.
    subsets_leq(d): indicators of all subsets of size <= d of a (d+1)-point set.
    """
    size = family_domain_size(name, n)
    if name == "cube":
        hyps = tuple(
            PartialHypothesis.total(n, _reversed_bits(i, n)) for i in range(1 << n)
        )
        return ConceptClass(n, hyps)
    if name in ("universal", "universal_plus"):
        hyps = []
        for i in range(n):
            plus = 0
            for s in range(size):
                if s & (1 << i):
                    plus |= 1 << s
            hyps.append(PartialHypothesis.total(size, plus))
        if name == "universal_plus":
            hyps.append(PartialHypothesis.total(size, 0))
            hyps.append(PartialHypothesis.total(size, (1 << size) - 1))
        return ConceptClass(size, tuple(hyps))
    if name == "threshold":
        hyps = tuple(
            PartialHypothesis.total(n, (1 << i) - 1) for i in range(n + 1)
        )
        return ConceptClass(n, hyps)
    # subsets_leq: the cube on d+1 points minus its all-plus concept
    full = (1 << size) - 1
    hyps = tuple(
        PartialHypothesis.total(size, _reversed_bits(i, size))
        for i in range(1 << size)
        if _reversed_bits(i, size) != full
    )
    return ConceptClass(size, hyps)


def _reversed_bits(i: int, n: int) -> int:
    """Reindex so that the leftmost string position is the most significant bit."""
    out = 0
    for j in range(n):
        if i & (1 << (n - 1 - j)):
            out |= 1 << j
    return out
