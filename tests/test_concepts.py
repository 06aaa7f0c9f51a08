"""Tests for concept classes, shattering, and dimension computations."""

import itertools
import math
import random
import re
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredim.concepts import (
    CapExceededError,
    ClassFormatError,
    ConceptClass,
    DimensionVariant,
    PartialHypothesis,
    bits,
    columns,
    dimension,
    dual_antipodal_witnesses,
    dual_class,
    family_class,
    family_domain_size,
    format_class,
    mask_of,
    max_shattered_set,
    parse_class,
    popcount,
    power_class,
    product_class,
    shattered_family,
    shatters,
    _antipodally_shatters_mask,
    _monotone_family,
    _shattered_levels,
    _shatters_mask,
)

from oracles import (
    _strongly_shatters_mask,
    extends,
    family_class_by_loops,
    row_by_character,
    strongly_shattered_family,
)

V = DimensionVariant


def cube(n):
    return family_class("cube", n)


def universal(n):
    return family_class("universal", n)


def threshold(d):
    return family_class("threshold", d)


def random_class(rng, n=None, size=None, max_n=6, max_size=20):
    n = n or rng.randint(1, max_n)
    size = size or rng.randint(1, min(max_size, 2**n))
    masks = rng.sample(range(2**n), size)
    return ConceptClass(
        n, tuple(PartialHypothesis.total(n, m) for m in masks)
    )


# --- oracles ------------------------------------------------------------


def oracle_shatters(cls, S):
    """Check shattering by explicit pattern enumeration; a row with a '*' on
    S realizes no pattern there."""
    S = list(S)
    realized = set()
    for h in cls.hypotheses:
        realized.add(tuple(str(h)[x] for x in S))
    return all(
        tuple(p) in realized for p in itertools.product("-+", repeat=len(S))
    )


def oracle_antipodally_shatters(cls, S):
    S = list(S)
    realized = set()
    for h in cls.hypotheses:
        row = tuple(str(h)[x] for x in S)
        if "*" in row:
            continue
        realized.add(row)
        realized.add(tuple("-" if c == "+" else "+" for c in row))
    return all(
        tuple(p) in realized for p in itertools.product("-+", repeat=len(S))
    )


def oracle_patterns_on(cls, mask):
    """Masked '+' patterns realized on the points of ``mask``, each from a
    hypothesis defined on all of it: the full pattern set that the early-exit
    counters of ``concepts`` replaced."""
    out = set()
    for h in cls.hypotheses:
        if (mask & ~h.defined) == 0:
            out.add(h.plus & mask)
    return out


def oracle_shatters_mask(cls, mask):
    return len(oracle_patterns_on(cls, mask)) == 1 << popcount(mask)


def oracle_antipodally_shatters_mask(cls, mask):
    pats = oracle_patterns_on(cls, mask)
    covered = set(pats)
    covered.update(mask & ~p for p in pats)
    return len(covered) == 1 << popcount(mask)


def oracle_closed_levels(n, predicate, max_size=None):
    """By definition: a k-set is in the family iff the predicate holds on it
    and every (k-1)-subset is in the family; the levels stop at the first
    empty one, or after ``max_size``."""
    family = {0}
    levels = [[0]]
    limit = n if max_size is None else min(n, max_size)
    for k in range(1, limit + 1):
        level = sorted(
            m for m in range(1 << n)
            if popcount(m) == k and predicate(m)
            and all(m & ~(1 << y) in family for y in bits(m))
        )
        if not level:
            break
        family.update(level)
        levels.append(level)
    return levels


def oracle_columns(cls, hyp_indices):
    """The per-point transpose loop that ``columns`` replaced."""
    out = []
    for x in range(cls.domain_size):
        col = 0
        for j, i in enumerate(hyp_indices):
            if cls.hypotheses[i].plus & (1 << x):
                col |= 1 << j
        out.append(col)
    return out


def oracle_monotone_family(cls, predicate, max_size=None):
    """The level search that ``_monotone_family`` inlined: each candidate
    extends a member of the previous level by a point above its top bit, and
    all k of its facets are looked up, the parent among them."""
    n = cls.domain_size
    limit = n if max_size is None else min(n, max_size)
    levels = [[0]]
    current = [0]
    size = 0
    while size < limit and current:
        nxt = []
        prev = set(current)
        for smask in current:
            top = smask.bit_length()
            for x in range(top, n):
                cand = smask | (1 << x)
                if any((cand & ~(1 << y)) not in prev for y in bits(cand)):
                    continue
                if predicate(cand):
                    nxt.append(cand)
        nxt.sort()
        if not nxt:
            break
        levels.append(nxt)
        current = nxt
        size += 1
    return levels


def oracle_max_shattered_set(cls, antipodal=False):
    """The uncapped breadth-first search that ``max_shattered_set`` stops at
    the Sauer-Shelah cap: every shattered set, then the least largest one,
    found with the oracle predicates and the oracle level search."""
    pred = oracle_antipodally_shatters_mask if antipodal else oracle_shatters_mask
    levels = oracle_monotone_family(cls, lambda m: pred(cls, m))
    return min(levels[-1], key=lambda m: tuple(bits(m)))


def random_partial_class(rng, max_n=6, max_size=20):
    """Distinct random hypotheses over {-, +, *}; some may be total."""
    n = rng.randint(1, max_n)
    rows = set()
    for _ in range(rng.randint(1, max_size)):
        rows.add("".join(rng.choice("-+*") for _ in range(n)))
    return ConceptClass.from_strings(sorted(rows))


def oracle_vc(cls):
    best = 0
    for k in range(1, cls.domain_size + 1):
        if any(
            oracle_shatters(cls, S)
            for S in itertools.combinations(range(cls.domain_size), k)
        ):
            best = k
    return best


CANONICAL_FORM_MAX_DOMAIN = 8


def class_canonical_form(cls):
    """Canonical form under domain permutation and hypothesis reordering.

    Minimizes the sorted tuple of '+' masks over all domain permutations;
    capped at small domains since the search is factorial.
    """
    cls.require_total("class_canonical_form")
    n = cls.domain_size
    if n > CANONICAL_FORM_MAX_DOMAIN:
        raise CapExceededError(
            f"canonical form cap is n <= {CANONICAL_FORM_MAX_DOMAIN}"
        )
    best = None
    for perm in itertools.permutations(range(n)):
        rows = []
        for h in cls.hypotheses:
            m = 0
            for j, x in enumerate(perm):
                if h.plus & (1 << x):
                    m |= 1 << j
            rows.append(m)
        cand = tuple(sorted(rows))
        if best is None or cand < best:
            best = cand
    return best, n


def classes_equivalent(a, b):
    """Equality up to domain relabeling and hypothesis reordering."""
    if a.domain_size != b.domain_size or len(a) != len(b):
        return False
    return class_canonical_form(a) == class_canonical_form(b)


# --- parsing ------------------------------------------------------------


class TestParsing:
    def test_parse_cube_2(self):
        cls = parse_class("--\n-+\n+-\n++")
        assert cls.domain_size == 2
        assert len(cls) == 4
        assert cls.rows() == ("--", "-+", "+-", "++")

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ClassFormatError):
            parse_class("+-\n+-")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ClassFormatError):
            parse_class("+-\n+")

    def test_empty_file_rejected(self):
        with pytest.raises(ClassFormatError):
            parse_class("# only a comment\n")

    def test_illegal_character_rejected(self):
        with pytest.raises(ClassFormatError):
            parse_class("+x\n--")

    def test_comments_and_blanks_ignored(self):
        cls = parse_class("# header\n\n+-\n-+\n")
        assert cls.rows() == ("+-", "-+")

    def test_partial_rows_accepted(self):
        cls = parse_class("+*-\n-*+")
        assert cls.is_partial

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, unique=True))
    @settings(max_examples=50, derandomize=True)
    def test_format_parse_roundtrip(self, masks):
        cls = ConceptClass(8, tuple(PartialHypothesis.total(8, m) for m in masks))
        assert parse_class(format_class(cls)) == cls


class TestPartialHypothesis:
    def test_support_and_dimension(self):
        h = PartialHypothesis.from_string("+*-*")
        assert tuple(bits(h.defined)) == (0, 2)
        assert h.dimension == 2

    def test_extension_order(self):
        lo = PartialHypothesis.from_string("+**")
        hi = PartialHypothesis.from_string("+-*")
        assert extends(hi, lo)
        assert not extends(lo, hi)
        assert extends(hi, hi)

    @staticmethod
    def parse_by_character(text):
        """One bit per character: the parser the linear one replaced."""
        plus = defined = 0
        for i, ch in enumerate(text):
            if ch not in "+-*":
                raise ClassFormatError(f"illegal character {ch!r} in hypothesis")
            if ch != "*":
                defined |= 1 << i
                if ch == "+":
                    plus |= 1 << i
        return len(text), plus, defined

    def test_parse_matches_the_parser_by_character(self):
        rng = random.Random(12)
        rows = ["", "+", "-", "*", "+" * 3000, "*" * 3000 + "-"]
        for _ in range(5000):
            row = "".join(rng.choice("+-*") for _ in range(rng.randint(0, 40)))
            if row and rng.random() < 0.2:  # one illegal character, or more
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(len(row))
                    row = row[:i] + rng.choice("x0 é\n+\x00") + row[i + 1:]
            rows.append(row)
        for row in rows:
            try:
                want = self.parse_by_character(row)
            except ClassFormatError as exc:
                with pytest.raises(ClassFormatError, match=f"^{re.escape(str(exc))}$"):
                    PartialHypothesis.from_string(row)
            else:
                h = PartialHypothesis.from_string(row)
                assert (h.n, h.plus, h.defined) == want
                assert str(h) == row

    def test_str_matches_the_formatter_by_character(self):
        # total and partial rows of 0-64 points, the empty row and all-'*' rows
        rng = random.Random(30)
        hyps = [PartialHypothesis(n, 0, 0) for n in range(0, 65, 8)]
        for _ in range(20000):
            n = rng.randint(0, 64)
            full = (1 << n) - 1
            defined = full if rng.random() < 0.5 else rng.getrandbits(n)
            hyps.append(PartialHypothesis(n, rng.getrandbits(n) & defined, defined))
        for h in hyps:
            row = str(h)
            assert row == row_by_character(h)
            assert PartialHypothesis.from_string(row) == h

    def test_long_rows_are_written_in_one_pass(self):
        # a 2^20-point row has 315,653 decimal digits as an integer, past
        # Python's default int/str limit; bases 2 and 8 have no such limit
        n = 1 << 20
        h = PartialHypothesis(n, int("10" * (n // 2), 2), (1 << n) - 2)
        assert str(h) == "*+" + "-+" * (n // 2 - 1)



# --- shattering ---------------------------------------------------------


class TestShattering:
    def test_cube_shatters_everything(self):
        assert shatters(cube(2), [0, 1])

    def test_thresholds_shatter_no_pair(self):
        t = threshold(3)
        assert not shatters(t, [0, 1])
        assert all(not shatters(t, list(p)) for p in itertools.combinations(range(3), 2))

    def test_empty_set_always_shattered(self):
        assert shatters(threshold(2), [])
        assert shatters(ConceptClass.from_strings(["-"]), [])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            shatters(cube(2), [5])

    def test_antipodal_on_punctured_cube(self):
        cls = ConceptClass.from_strings(["--", "-+", "+-"])
        assert _antipodally_shatters_mask(cls, 0b11)
        assert not shatters(cls, [0, 1])

    def test_shattered_implies_antipodally_shattered(self):
        assert _antipodally_shatters_mask(cube(2), 0b11)

    @pytest.mark.parametrize("partial", [False, True], ids=["total", "partial"])
    def test_against_oracle_on_random_classes(self, partial):
        rng = random.Random(7)
        for _ in range(60):
            if partial:
                cls = random_partial_class(rng, max_n=5, max_size=12)
            else:
                cls = random_class(rng, max_n=5, max_size=12)
            for k in range(cls.domain_size + 1):
                for S in itertools.combinations(range(cls.domain_size), k):
                    assert shatters(cls, S) == oracle_shatters(cls, S)
                    assert _antipodally_shatters_mask(
                        cls, mask_of(S)
                    ) == oracle_antipodally_shatters(cls, S)


class TestShatteringKernel:
    """The early-exit pattern counters against the full pattern sets."""

    @staticmethod
    def assert_same_on_every_mask(cls):
        for mask in range(1 << cls.domain_size):
            assert _shatters_mask(cls, mask) == oracle_shatters_mask(cls, mask)
            assert _antipodally_shatters_mask(cls, mask) == (
                oracle_antipodally_shatters_mask(cls, mask)
            )

    def test_random_total_classes(self):
        rng = random.Random(89)
        for _ in range(2000):
            self.assert_same_on_every_mask(random_class(rng, max_n=6, max_size=20))

    def test_random_partial_classes(self):
        rng = random.Random(97)
        partial = 0
        for _ in range(2000):
            cls = random_partial_class(rng)
            partial += cls.is_partial
            self.assert_same_on_every_mask(cls)
        assert partial > 1800

    @pytest.mark.parametrize(
        "rows", [["-"], ["+-*"], ["***"], ["*+", "-*"], ["++", "--"]], ids=repr
    )
    def test_empty_mask(self, rows):
        # the empty set is shattered both ways by any class, even one whose
        # hypotheses are defined nowhere
        cls = ConceptClass.from_strings(rows)
        assert _shatters_mask(cls, 0) and oracle_shatters_mask(cls, 0)
        assert _antipodally_shatters_mask(cls, 0) and oracle_antipodally_shatters_mask(cls, 0)

    @pytest.mark.parametrize(
        "rows,mask,plain,antipodal",
        [
            # four hypotheses, three patterns on {0, 1}: '++' twice
            (["++-", "+++", "--+", "-+-"], 0b011, False, True),
            # a pattern and its flip fill one pair, twice over
            (["++-", "--+", "+++", "---"], 0b011, False, False),
            # 2^(k-1) = 2 hypotheses, but one flip pair: not antipodal
            (["+-", "-+"], 0b11, False, False),
            # the same pattern from a total and a partial hypothesis
            (["+-+", "+-*", "-+*", "--+", "+++"], 0b011, True, True),
            # a partial row undefined on the mask adds nothing
            (["+-", "-+", "*+", "+*"], 0b11, False, False),
            (["++", "-+", "+*", "--"], 0b11, False, True),
        ],
    )
    def test_repeated_patterns(self, rows, mask, plain, antipodal):
        cls = ConceptClass.from_strings(rows)
        assert _shatters_mask(cls, mask) is plain is oracle_shatters_mask(cls, mask)
        assert _antipodally_shatters_mask(cls, mask) is antipodal
        assert oracle_antipodally_shatters_mask(cls, mask) is antipodal

    def test_level_search_on_arbitrary_predicates(self):
        # a predicate that is not downward closed: the levels hold exactly
        # the sets whose every facet is in the family, so a facet skipped in
        # the closure test shows as an extra set
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(1, 8)
            true = {m for m in range(1 << n) if rng.random() < 0.8}
            self.assert_levels_match_oracles(rng, n, true.__contains__)

    def test_level_search_on_monotone_predicates(self):
        # membership in the down-closure of a few random sets
        rng = random.Random(107)
        for _ in range(300):
            n = rng.randint(1, 8)
            tops = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
            self.assert_levels_match_oracles(
                rng, n, lambda m: any(not m & ~t for t in tops)
            )

    @staticmethod
    def assert_levels_match_oracles(rng, n, predicate):
        """The facet walk, which skips the parent, against the search that
        looks up every facet and against the family by definition, with and
        without a size cap."""
        cls = random_class(rng, n=n, max_n=n)
        for max_size in (None, rng.randint(0, n)):
            got = _monotone_family(cls, predicate, max_size)
            assert got == oracle_monotone_family(cls, predicate, max_size)
            assert got == oracle_closed_levels(n, predicate, max_size)


class TestShatteredLevels:
    """The cell-splitting builder of the shattered family against the
    candidate-by-candidate level search and against the family by
    definition, with and without a size cap."""

    @staticmethod
    def assert_levels_match_oracles(cls, max_sizes):
        n = cls.domain_size
        predicate = lambda m: _shatters_mask(cls, m)
        for max_size in max_sizes:
            got = _shattered_levels(cls, max_size)
            assert got == _monotone_family(cls, predicate, max_size)
            assert got == oracle_closed_levels(n, predicate, max_size)

    @pytest.mark.parametrize("partial", [False, True], ids=["total", "partial"])
    def test_random_classes(self, partial):
        rng = random.Random(113 + partial)
        for _ in range(1000):
            n = rng.randint(1, 9)
            rows = set()
            for _ in range(rng.randint(1, 40)):
                rows.add("".join(rng.choice("-+*" if partial else "-+") for _ in range(n)))
            cls = ConceptClass.from_strings(sorted(rows))
            cap = len(cls).bit_length() - 1
            self.assert_levels_match_oracles(cls, (None, cap, rng.randint(0, n)))

    @pytest.mark.parametrize("rows", [["-+*+"], ["****"], ["-"]], ids=repr)
    def test_one_hypothesis(self, rows):
        cls = ConceptClass.from_strings(rows)
        self.assert_levels_match_oracles(cls, (None, 0, 2))
        assert cls.shattered_levels == ((0,),)

    @pytest.mark.parametrize(
        "rows",
        [
            # points 0 and 3 are constant, 1 and 2 duplicate each other
            ["+--+", "++++", "+-++", "+++*"],
            # a column constant where defined, and one defined nowhere
            ["+-*+", "++*-", "*-*+", "+**-", "--*-"],
            # three copies of one column
            ["---", "+++", "-+-"],
        ],
        ids=repr,
    )
    def test_constant_and_duplicate_columns(self, rows):
        cls = ConceptClass.from_strings(rows)
        self.assert_levels_match_oracles(cls, (None, 0, 1, 2))

    def test_cube_8(self):
        cls = cube(8)
        self.assert_levels_match_oracles(cls, (None, 8, 5))
        assert [len(level) for level in cls.shattered_levels] == [
            math.comb(8, k) for k in range(9)
        ]

    def test_threshold_40(self):
        # the family by definition would read all 2^40 masks, so the closed
        # form stands in for it: every point carries both labels, and no
        # hypothesis is '-' at a point and '+' at a later one
        cls = threshold(40)
        singletons = [1 << x for x in range(40)]
        for max_size in (None, len(cls).bit_length() - 1, 1, 0):
            got = _shattered_levels(cls, max_size)
            assert got == _monotone_family(cls, lambda m: _shatters_mask(cls, m), max_size)
            assert got == ([[0], singletons] if max_size != 0 else [[0]])


class TestStrongShattering:
    def test_figure_square(self):
        cls = ConceptClass.from_strings(["---", "-+-", "++-", "+--", "--+"])
        assert _strongly_shatters_mask(cls, 0b011)
        assert _strongly_shatters_mask(cls, 0b100)
        assert not _strongly_shatters_mask(cls, 0b101)

    def test_strong_implies_plain(self):
        rng = random.Random(11)
        for _ in range(50):
            cls = random_class(rng, max_n=5, max_size=16)
            levels = strongly_shattered_family(cls)
            for level in levels:
                for m in level:
                    S = [i for i in range(cls.domain_size) if m & (1 << i)]
                    assert shatters(cls, S)


# --- dual classes -------------------------------------------------------


class TestDualClass:
    def test_dual_of_cube_is_universal(self):
        for n in (1, 2, 3):
            dual, collapse = dual_class(cube(n))
            assert classes_equivalent(dual, universal(n))
            assert collapse == tuple(range(n))

    def test_dual_of_singleton(self):
        dual, collapse = dual_class(ConceptClass.from_strings(["-+-"]))
        assert dual.domain_size == 1
        assert len(dual) <= 2
        assert len(collapse) == 3

    def test_double_dual_of_cube_2(self):
        dual, _ = dual_class(cube(2))
        ddual, _ = dual_class(dual)
        assert classes_equivalent(ddual, cube(2))

    def test_duplicate_columns_collapse(self):
        cls = ConceptClass.from_strings(["--+", "-+-"])
        # columns 0 is constant '-', columns 1 and 2 are each other's flips
        dual, collapse = dual_class(cls)
        assert dual.domain_size == 2
        assert len(collapse) == 3
        assert collapse[0] != collapse[1]

    def test_involution_on_duplicate_free_columns(self):
        rng = random.Random(19)
        found = 0
        while found < 20:
            cls = random_class(rng, max_n=3, max_size=8)
            _, collapse = dual_class(cls)
            if len(set(collapse)) != cls.domain_size:
                continue  # only duplicate-free-column classes qualify
            found += 1
            ddual, _ = dual_class(dual_class(cls)[0])
            assert classes_equivalent(ddual, cls)


# --- dimensions ---------------------------------------------------------


class TestDimensions:
    @pytest.mark.parametrize("n,vc,vc_dual", [(1, 1, 0), (2, 2, 1), (3, 3, 1)])
    def test_cube_dimensions(self, n, vc, vc_dual):
        c = cube(n)
        assert dimension(c, V.PRIMAL) == vc
        assert dimension(c, V.DUAL) == vc_dual

    @pytest.mark.parametrize("n,vc,vc_dual", [(2, 1, 2), (3, 1, 3), (4, 2, 4)])
    def test_universal_dimensions(self, n, vc, vc_dual):
        u = universal(n)
        assert dimension(u, V.PRIMAL) == vc
        assert dimension(u, V.DUAL) == vc_dual

    def test_punctured_cube_antipodal(self):
        cls = ConceptClass.from_strings(["--", "-+", "+-"])
        assert dimension(cls, V.PRIMAL_ANTIPODAL) == 2
        assert dimension(cls, V.PRIMAL) == 1

    def test_singleton_vc_zero(self):
        assert dimension(ConceptClass.from_strings(["-+-"]), V.PRIMAL) == 0

    def test_vc_against_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            cls = random_class(rng, max_n=5, max_size=12)
            assert dimension(cls, V.PRIMAL) == oracle_vc(cls)

    def test_max_shattered_set_is_lex_least(self):
        # both {0,1} and {1,2} are shattered here, and {0,1} is lex-smaller
        cls = cube(3)
        m = max_shattered_set(cls)
        assert m == 0b111

    def test_subsets_leq_dimensions(self):
        for d in (1, 2, 3):
            cls = family_class("subsets_leq", d)
            assert dimension(cls, V.PRIMAL) == d
            assert dimension(cls, V.PRIMAL_ANTIPODAL) == d + 1


class TestSauerShelahCap:
    """The capped search against the uncapped one it replaced."""

    @staticmethod
    def assert_same(cls):
        for antipodal in (False, True):
            got = max_shattered_set(cls, antipodal=antipodal)
            assert got == oracle_max_shattered_set(cls, antipodal=antipodal)

    def test_random_total_classes_and_their_duals(self):
        rng = random.Random(79)
        for _ in range(2000):
            cls = random_class(rng, max_n=6, max_size=16)
            self.assert_same(cls)
            self.assert_same(dual_class(cls)[0])

    def test_random_partial_classes(self):
        rng = random.Random(83)
        partial = 0
        for _ in range(2000):
            cls = random_partial_class(rng)
            partial += cls.is_partial
            self.assert_same(cls)
        assert partial > 1800

    @pytest.mark.parametrize("n,m", [(7, 24), (8, 28), (12, 14)], ids=str)
    def test_bench_shapes_and_their_duals(self, n, m):
        # the random-classes benchmark's shapes: n points, m hypotheses
        rng = random.Random(f"bench-shape:{n}x{m}")
        for _ in range(4):
            cls = random_class(rng, n=n, size=m)
            self.assert_same(cls)
            self.assert_same(dual_class(cls)[0])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_classes_at_the_cap(self, n):
        # cube n: VC = n = log2|H|; universal n: VC = floor(log2 n) and
        # VC^a one more, both the cap; their duals swap the two
        for cls in (cube(n), universal(n)):
            self.assert_same(cls)
            self.assert_same(dual_class(cls)[0])
        log2 = n.bit_length() - 1
        assert bin(max_shattered_set(cube(n))).count("1") == n
        assert bin(max_shattered_set(universal(n))).count("1") == log2
        assert bin(max_shattered_set(universal(n), antipodal=True)).count("1") == log2 + 1


class TestAssouadChain:
    def test_chain_on_random_classes(self):
        rng = random.Random(3)
        for _ in range(120):
            cls = random_class(rng, max_n=5, max_size=14)
            if len(cls) < 2:
                continue
            vc = dimension(cls, V.PRIMAL)
            vca = dimension(cls, V.PRIMAL_ANTIPODAL)
            vcd = dimension(cls, V.DUAL)
            vcda = dimension(cls, V.DUAL_ANTIPODAL)
            assert vc.bit_length() - 1 <= vca.bit_length() - 1
            assert vca.bit_length() - 1 <= vcd
            assert vcd <= vcda
            assert vcda <= 2 ** (vc + 1) - 1
            assert vcda <= 2 * vcd + 1


class TestPajor:
    def test_pajor_and_equality_characterization(self):
        rng = random.Random(5)
        for _ in range(200):
            cls = random_class(rng, max_n=5, max_size=16)
            shat = {m for level in shattered_family(cls) for m in level}
            strong = {m for level in strongly_shattered_family(cls) for m in level}
            assert len(cls) <= len(shat)
            assert strong <= shat
            # equality in Pajor's inequality iff the two families coincide
            assert (len(cls) == len(shat)) == (shat == strong)

    def test_families_exhaustive_small(self):
        # exhaustive over all classes on 2 points and some on 3
        for n in (1, 2):
            for size in range(1, 2**n + 1):
                for combo in itertools.combinations(range(2**n), size):
                    cls = ConceptClass(
                        n, tuple(PartialHypothesis.total(n, m) for m in combo)
                    )
                    shat = {m for lv in shattered_family(cls) for m in lv}
                    assert len(cls) <= len(shat)


# --- products -----------------------------------------------------------


class TestProducts:
    def test_product_of_two_cubes_is_bigger_cube(self):
        p = product_class(cube(1), cube(1))
        assert classes_equivalent(p, cube(2))

    def test_vc_is_additive(self):
        rng = random.Random(17)
        for _ in range(25):
            a = random_class(rng, max_n=3, max_size=6)
            b = random_class(rng, max_n=3, max_size=6)
            p = product_class(a, b)
            assert dimension(p, V.PRIMAL) == dimension(a, V.PRIMAL) + dimension(
                b, V.PRIMAL
            )

    def test_universal_power_size(self):
        p = power_class(universal(2), 2)
        assert len(p) == 4
        assert p.domain_size == 8

    def test_universal_power_vc(self):
        for n, m in itertools.product((2, 3), repeat=2):
            p = power_class(universal(n), m)
            assert dimension(p, V.PRIMAL) == m * (n.bit_length() - 1)

    def test_universal_power_dual_range(self):
        for n, m in ((2, 2), (3, 2), (2, 3)):
            p = power_class(universal(n), m)
            vcd = dimension(p, V.DUAL)
            assert n <= vcd <= n + (m.bit_length() - 1)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr("spheredim.concepts.DEFAULT_PRODUCT_CAP", 10)
        with pytest.raises(CapExceededError):
            product_class(cube(3), cube(3))

    def test_power_equals_the_iterated_product(self):
        # the left product A^(m-1) x A, m - 1 times, is the oracle for the
        # power built by squaring: same rows in the same order
        bases = [cube(1), cube(2), universal(1), universal(2), threshold(3),
                 family_class("subsets_leq", 1)]
        for base, m in itertools.product(bases, range(1, 7)):
            want = base
            for _ in range(m - 1):
                want = product_class(want, base)
            assert power_class(base, m) == want, (base.rows(), m)

    def test_power_cap_raises_before_a_product_past_it(self, monkeypatch):
        # cube 1 has 2 rows: 2^5 = 32 fits a cap of 32 and 2^6 does not
        monkeypatch.setattr("spheredim.concepts.DEFAULT_PRODUCT_CAP", 32)
        assert len(power_class(cube(1), 5)) == 32
        built = []
        original = ConceptClass.__post_init__

        def record(self):
            built.append(len(self))
            original(self)

        monkeypatch.setattr(ConceptClass, "__post_init__", record)
        with pytest.raises(CapExceededError):
            power_class(cube(1), 6)
        assert max(built) <= 32

    def test_long_power_of_one_row(self):
        p = power_class(universal(1), 1000)
        assert len(p) == 1 and p.domain_size == 2000
        assert p.rows() == ("-+" * 1000,)


# --- families -----------------------------------------------------------


class TestFamilies:
    def test_cube_2(self):
        assert cube(2).rows() == ("--", "-+", "+-", "++")

    def test_universal_3(self):
        u = universal(3)
        assert u.domain_size == 8
        assert len(u) == 3
        for i in range(3):
            for s in range(8):
                want = "+" if s & (1 << i) else "-"
                assert str(u.hypotheses[i])[s] == want

    def test_threshold_3(self):
        assert threshold(3).rows() == ("---", "+--", "++-", "+++")

    def test_universal_plus(self):
        up = family_class("universal_plus", 2)
        assert len(up) == 4
        assert "--" * 2 in up.rows()

    def test_subsets_leq_1(self):
        assert family_class("subsets_leq", 1).rows() == ("--", "-+", "+-")

    @pytest.mark.parametrize(
        "name, top",
        [("cube", 12), ("subsets_leq", 11), ("threshold", 40),
         ("universal", 12), ("universal_plus", 12)],
    )
    def test_families_match_the_loops(self, name, top):
        # cube order is power order: lexicographic, '-' before '+'
        for n in range(1, top + 1):
            want = family_class_by_loops(name, n)
            got = family_class(name, n)
            assert got == want, (name, n)
            assert format_class(got) == "".join(
                row_by_character(h) + "\n" for h in want.hypotheses
            )

    def test_caps(self):
        with pytest.raises(CapExceededError):
            family_class("cube", 21)
        # subsets_leq d is the cube on d+1 points minus one concept
        with pytest.raises(CapExceededError, match="subsets_leq cap is d <= 19"):
            family_class("subsets_leq", 20)
        with pytest.raises(CapExceededError, match="threshold cap is d <= 4096"):
            family_class("threshold", 4097)
        with pytest.raises(ValueError):
            family_class("nonsense", 2)

    def test_domain_size_is_read_without_building(self):
        for name in ("cube", "universal", "universal_plus", "threshold", "subsets_leq"):
            for n in (1, 2, 3, 4):
                assert family_domain_size(name, n) == family_class(name, n).domain_size
        assert family_domain_size("universal", 20) == 1 << 20
        with pytest.raises(CapExceededError, match="universal cap is n <= 20"):
            family_domain_size("universal_plus", 21)
        with pytest.raises(CapExceededError, match="subsets_leq cap is d <= 19"):
            family_domain_size("subsets_leq", 20)
        with pytest.raises(ValueError):
            family_domain_size("cube", 0)
        with pytest.raises(ValueError):
            family_domain_size("nonsense", 2)

    def test_caps_are_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr("spheredim.concepts.FAMILY_CUBE_MAX", 4)
        monkeypatch.setattr("spheredim.concepts.FAMILY_THRESHOLD_MAX", 5)
        assert len(family_class("subsets_leq", 3)) == 15
        assert len(family_class("threshold", 5)) == 6
        with pytest.raises(CapExceededError):
            family_class("subsets_leq", 4)
        with pytest.raises(CapExceededError):
            family_class("threshold", 6)


# --- class order --------------------------------------------------------


DEFAULT_SEARCH_BUDGET = 10**8


def verify_class_leq(
    a: ConceptClass,
    b: ConceptClass,
    phi: Sequence[int],
    sigma: Sequence[int],
) -> bool:
    """Check sigma(h)(phi(x)) = h(x) for all h in a and x in its domain."""
    a.require_total("verify_class_leq")
    b.require_total("verify_class_leq")
    if len(phi) != a.domain_size or len(sigma) != len(a):
        raise ValueError("map sizes do not match the class")
    for x in phi:
        if not 0 <= x < b.domain_size:
            raise IndexError("phi maps outside the target domain")
    for j in sigma:
        if not 0 <= j < len(b):
            raise IndexError("sigma maps outside the target class")
    images = columns(b.domain_size, [b.hypotheses[j] for j in sigma])
    cols = columns(a.domain_size, a.hypotheses)
    return all(col == images[phi[x]] for x, col in enumerate(cols))


def search_class_leq(
    a: ConceptClass, b: ConceptClass
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Brute-force search for maps witnessing a <= b, lexicographically first.

    The a-priori search space size |X_b|^|X_a| * |H_b|^|H_a| must stay within
    ``DEFAULT_SEARCH_BUDGET``; larger instances raise CapExceededError, which
    is distinct from a completed search finding nothing.
    """
    a.require_total("search_class_leq")
    b.require_total("search_class_leq")
    space = (b.domain_size ** a.domain_size) * (len(b) ** len(a))
    if space > DEFAULT_SEARCH_BUDGET:
        raise CapExceededError(f"search space {space} exceeds budget {DEFAULT_SEARCH_BUDGET}")

    na, nb = a.domain_size, b.domain_size

    def image_columns(sigma_prefix: list[int]) -> list[int]:
        return columns(nb, [b.hypotheses[j] for j in sigma_prefix])

    def candidates_exist(sigma_prefix: list[int]) -> bool:
        # every a-point must still have a compatible image point
        have = set(image_columns(sigma_prefix))
        return all(want in have for want in columns(na, a.hypotheses[: len(sigma_prefix)]))

    def extend(sigma_prefix: list[int]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        if len(sigma_prefix) == len(a):
            # candidates_exist passed on the full map, so every column is found
            cols_b = image_columns(sigma_prefix)
            phi = tuple(cols_b.index(want) for want in columns(na, a.hypotheses))
            return phi, tuple(sigma_prefix)
        for j in range(len(b)):
            sigma_prefix.append(j)
            if candidates_exist(sigma_prefix):
                got = extend(sigma_prefix)
                if got is not None:
                    return got
            sigma_prefix.pop()
        return None

    return extend([])


class TestClassOrder:
    def test_inclusion_witness(self):
        t2, t3 = threshold(2), threshold(3)
        phi = (0, 1)
        sigma = (0, 1, 2)
        assert verify_class_leq(t2, t3, phi, sigma)

    def test_identity_witness(self):
        c = cube(2)
        assert verify_class_leq(c, c, (0, 1), tuple(range(4)))

    def test_failing_witness(self):
        single = ConceptClass.from_strings(["-"])
        c = cube(1)
        assert not verify_class_leq(c, single, (0,), (0, 0))

    def test_search_finds_inclusion(self):
        got = search_class_leq(threshold(2), threshold(3))
        assert got is not None
        phi, sigma = got
        assert verify_class_leq(threshold(2), threshold(3), phi, sigma)

    def test_search_respects_vc_monotonicity(self):
        # VC(C_2)=2 > VC(T_3)=1, so no witness can exist
        assert search_class_leq(cube(2), threshold(3)) is None

    def test_singleton_embeds_anywhere(self):
        got = search_class_leq(ConceptClass.from_strings(["+-"]), threshold(3))
        assert got is not None

    def test_budget_exceeded_is_distinct(self, monkeypatch):
        # a search space of 3^2 * 4^3 = 576, within the default budget
        monkeypatch.setitem(globals(), "DEFAULT_SEARCH_BUDGET", 10)
        with pytest.raises(CapExceededError):
            search_class_leq(threshold(2), threshold(3))

    def test_search_is_deterministic(self):
        a, b = threshold(2), threshold(3)
        assert search_class_leq(a, b) == search_class_leq(a, b)


class TestColumns:
    def test_agrees_with_the_per_point_loop(self):
        rng = random.Random(67)
        for _ in range(600):
            cls = random_class(rng, max_n=8, max_size=40)
            got = columns(cls.domain_size, cls.hypotheses)
            assert got == oracle_columns(cls, range(len(cls)))

    def test_repeated_hypotheses_as_search_class_leq_passes_them(self):
        # search_class_leq transposes prefixes of a hypothesis map, which
        # may send several hypotheses to one
        rng = random.Random(71)
        for _ in range(600):
            cls = random_class(rng, max_n=7, max_size=10)
            sigma = [rng.randrange(len(cls)) for _ in range(rng.randint(0, 8))]
            got = columns(cls.domain_size, [cls.hypotheses[i] for i in sigma])
            assert got == oracle_columns(cls, sigma)


class TestDualAntipodalWitnesses:
    def test_universal_3_full_witnesses(self):
        u = universal(3)
        wit = dual_antipodal_witnesses(u, (0, 1, 2))
        assert wit is not None
        assert len(wit) == 8

    def test_threshold_triple_fails(self):
        t = threshold(3)
        assert dual_antipodal_witnesses(t, (0, 1, 2)) is None

    def test_witness_correctness(self):
        u = universal(3)
        wit = dual_antipodal_witnesses(u, (0, 1, 2))
        for pattern, (x, positively) in wit.items():
            for j in range(3):
                got = str(u.hypotheses[j])[x] == "+"
                want = bool(pattern & (1 << j))
                assert got == (want if positively else not want)


class TestCanonicalForm:
    def test_relabeled_classes_equivalent(self):
        a = ConceptClass.from_strings(["-+", "+-", "++"])
        b = ConceptClass.from_strings(["+-", "-+", "++"])
        assert classes_equivalent(a, b)

    def test_different_classes_not_equivalent(self):
        a = ConceptClass.from_strings(["-+", "+-"])
        b = ConceptClass.from_strings(["--", "++"])
        assert not classes_equivalent(a, b)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            class_canonical_form(family_class("universal", 4))
