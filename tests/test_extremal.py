"""Tests for extremality, cubical complexes, collapsing, and classification."""

import itertools
import math
import random
import sys

import pytest

from spheredim import cli, complexes, extremal
from spheredim.concepts import (
    CapExceededError,
    ConceptClass,
    DimensionVariant,
    PartialHypothesis,
    bits,
    dimension,
    family_class,
    format_class,
    mask_of,
    popcount,
)
from spheredim.complexes import DEFAULT_FACE_CAP, SimplicialComplex
from spheredim.extremal import (
    CubicalComplex,
    EmbeddingReport,
    Singleton,
    ThresholdLike,
    Vc1NonThreshold,
    Vc2Plus,
    WitnessError,
    classify_low_vc,
    collapse_certificate,
    cubical_complex,
    cubical_face_counts,
    full_subcomplex_embedding_check,
    is_extremal,
    verify_threshold_certificate,
)
from spheredim.spheres import verify_witness

from oracles import (
    cube_chains,
    cubical_barycentric,
    cube_incidence,
    euler_characteristic,
    extends,
    face_counts,
    grouped_cubical_complex,
    realizable_partial,
    rescan_collapse_certificate,
    restriction,
    strongly_shattered_family,
)

V = DimensionVariant

FIG_SQUARE_WHISKER = ["---", "-+-", "++-", "+--", "--+"]
FIG_THRESHOLDISH = ["---", "--+", "-++", "+++"]


def cls_of(rows):
    return ConceptClass.from_strings(rows)


def random_class(rng, max_n=4, max_size=12):
    n = rng.randint(1, max_n)
    size = rng.randint(1, min(max_size, 2**n))
    masks = rng.sample(range(2**n), size)
    return ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks))


def random_extremal_classes(seed, count, tries=2000, max_n=4):
    rng = random.Random(seed)
    found = []
    for _ in range(tries):
        cls = random_class(rng, max_n=max_n)
        if is_extremal(cls).extremal:
            found.append(cls)
            if len(found) == count:
                break
    return found


def is_chain(plus, defined, mask):
    """True when the cubes at the positions in ``mask`` form a chain: in
    position order, each cube extends the next, cube i being read from
    ``plus[i]`` and ``defined[i]``.  Equivalently, the set is a simplex of
    the cube order complex, since every chain of a finite poset lies in a
    maximal chain."""
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


# --- oracles ------------------------------------------------------------


def oracle_threshold_embeddable(cls):
    """Exhaustive search over sign flips; for each flip the positive sets
    must form a nested family, which is equivalent to some point order
    turning every concept into a plus-prefix."""
    n = cls.domain_size
    for flip in range(1 << n):
        plus_sets = [h.plus ^ flip for h in cls.hypotheses]
        if all(
            (a & ~b) == 0 or (b & ~a) == 0
            for a, b in itertools.combinations(plus_sets, 2)
        ):
            return True
    return False


def oracle_threshold_embeddable_literal(cls):
    """Literal flip x order enumeration; usable for small domains only."""
    n = cls.domain_size
    for flip in range(1 << n):
        for perm in itertools.permutations(range(n)):
            ok = True
            for h in cls.hypotheses:
                flipped = h.plus ^ flip
                seen_minus = False
                for x in perm:
                    if flipped & (1 << x):
                        if seen_minus:
                            ok = False
                            break
                    else:
                        seen_minus = True
                if not ok:
                    break
            if ok:
                return True
    return False


def oracle_cubes(cls):
    """All cubes by direct enumeration over partial hypotheses."""
    n = cls.domain_size
    have = {h.plus for h in cls.hypotheses}
    cubes = []
    for defined in range(1 << n):
        free = ((1 << n) - 1) & ~defined
        for plus_bits in range(1 << n):
            plus = plus_bits & defined
            if plus != plus_bits:
                continue
            completions = [plus]
            for x in range(n):
                if free & (1 << x):
                    completions = [c | b for c in completions for b in (0, 1 << x)]
            if all(c in have for c in completions):
                cubes.append((plus, defined))
    return set(cubes)


def validate_collapse(cc, moves):
    """Replay a collapse sequence, checking each move removes a genuinely
    free face together with its unique coface, ending at one vertex."""
    state = set(cc.cubes)
    for free_s, cof_s in moves:
        free = PartialHypothesis.from_string(free_s)
        cof = PartialHypothesis.from_string(cof_s)
        assert free in state and cof in state
        cofaces = [d for d in state if d != free and extends(free, d)]
        assert cofaces == [cof]
        state -= {free, cof}
    assert len(state) == 1
    assert next(iter(state)).dimension == 0


def oracle_fullness(sub, delta1):
    """Fullness by face enumeration: every simplex of ``delta1`` whose
    vertices are all cube labels is a simplex of ``sub``."""
    sub_index = sub.vertex_index()
    for s in delta1.all_simplices(DEFAULT_FACE_CAP):
        members = [delta1.vertices[i] for i in bits(s)]
        if all(v in sub_index for v in members):
            if not sub.has_simplex(mask_of(sub_index[v] for v in members)):
                return False
    return True


def subdivided_realizable_complex(cls, cap=10**6):
    """Order complex of the realizable partial hypotheses with nonempty
    support: one vertex per such hypothesis, simplices are extension chains.

    Maximal simplices are the support-dropping paths from a concept down to a
    single defined point.
    """
    n = cls.domain_size
    verts = set()
    for h in cls.hypotheses:
        for defined in range(1, 1 << n):
            if defined & ~h.defined == 0:
                verts.add((h.plus & defined, defined))
                if len(verts) > cap:
                    raise CapExceededError("partial hypothesis cap exceeded")
    order = sorted(verts, key=lambda v: (popcount(v[1]), str(PartialHypothesis(n, *v))))
    index = {v: i for i, v in enumerate(order)}
    labels = tuple(str(PartialHypothesis(n, *v)) for v in order)

    maximal = set()

    def descend(plus, defined, chain_mask):
        if popcount(defined) == 1:
            maximal.add(chain_mask)
            return
        for x in bits(defined):
            d2 = defined & ~(1 << x)
            descend(plus & d2, d2, chain_mask | (1 << index[(plus & d2, d2)]))

    if len(cls) * math.factorial(n) > cap:
        raise CapExceededError("chain enumeration cap exceeded")
    for h in cls.hypotheses:
        descend(h.plus, h.defined, 1 << index[(h.plus, h.defined)])
    return SimplicialComplex(labels, tuple(sorted(maximal)))


def oracle_embedding_check(cls):
    """The embedding check on the subdivided realizable complex built as a
    ``SimplicialComplex``: chains of cubes are looked up with ``has_simplex``
    and fullness is checked on the cube part of each maximal simplex."""
    assert is_extremal(cls).extremal and len(cls) < 1 << cls.domain_size
    cc = cubical_complex(cls)
    sub = cubical_barycentric(cc)
    delta1 = subdivided_realizable_complex(cls)
    delta_index = delta1.vertex_index()
    for c in cc.cubes:
        if c.defined == 0 or str(c) not in delta_index:
            return EmbeddingReport(
                False, False, len(cc.cubes), 0, f"cube {c} is not a realizable vertex"
            )
    chains = 0
    for s in sub.maximal:
        image = mask_of(delta_index[sub.vertices[i]] for i in bits(s))
        if not delta1.has_simplex(image):
            return EmbeddingReport(
                False, False, len(cc.cubes), chains,
                "a chain of cubes is not realizable as a simplex",
            )
        chains += 1
    to_sub = {delta_index[v]: i for i, v in enumerate(sub.vertices)}
    cube_mask = mask_of(to_sub)
    for part in sorted({m & cube_mask for m in delta1.maximal}):
        if not sub.has_simplex(mask_of(to_sub[i] for i in bits(part))):
            members = [delta1.vertices[i] for i in bits(part)]
            return EmbeddingReport(
                False, False, len(cc.cubes), chains, f"fullness violated on {members}"
            )
    return EmbeddingReport(
        False, True, len(cc.cubes), chains, "full subcomplex embedding verified"
    )


def same_embedding_report(got, want):
    return (got.ok, got.reversed_case, got.cube_vertices, got.chains_checked) == (
        want.ok, want.reversed_case, want.cube_vertices, want.chains_checked
    )


def random_downsets(seed, n, count):
    """Seeded down-closed families of subsets of [n], as classes: the
    subsets of one or two random sets of at most two points.  Every down-set
    is extremal; these stay small because the oracle check costs |H|*n!
    squared."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        members = {0}
        for _ in range(rng.randint(1, 2)):
            g = mask_of(rng.sample(range(n), rng.randint(1, 2)))
            members.update(m for m in range(1 << n) if m & ~g == 0)
        hyps = tuple(PartialHypothesis.total(n, m) for m in sorted(members))
        out.append(ConceptClass(n, hyps))
    return out


def oracle_collapse_certificate(cc, node_budget=extremal.DEFAULT_COLLAPSE_BUDGET):
    """The collapse search with free faces found by scanning every pair of
    cubes in the current state."""
    state = frozenset(cc.cubes)
    dead = set()
    moves = []
    nodes = 0

    def free_pairs(st):
        out = []
        for c in st:
            cofaces = [d for d in st if d is not c and c != d and extends(c, d)]
            if len(cofaces) == 1:
                out.append((c, cofaces[0]))
        out.sort(key=lambda p: (p[0].dimension, str(p[0])))
        return out

    def dfs(st):
        nonlocal nodes
        if len(st) == 1:
            return next(iter(st)).dimension == 0
        if st in dead:
            return False
        nodes += 1
        if nodes > node_budget:
            raise CapExceededError(f"collapse node budget {node_budget} exceeded")
        for c, d in free_pairs(st):
            moves.append((str(c), str(d)))
            if dfs(st - {c, d}):
                return True
            moves.pop()
        dead.add(st)
        return False

    if dfs(state):
        return moves
    return None


def closed_downsets(seed, n, count):
    """Seeded down-closed families on n points, as classes: the subsets of
    one to four random sets of one to four points each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        members = set()
        for _ in range(rng.randint(1, 4)):
            g = mask_of(rng.sample(range(n), rng.randint(1, 4)))
            members.update(m for m in range(1 << n) if m & ~g == 0)
        hyps = tuple(PartialHypothesis.total(n, m) for m in sorted(members))
        out.append(ConceptClass(n, hyps))
    return out


def replaced_code_corpus():
    """The classes on which the cube build and the collapse search are
    compared with the code they replaced (``grouped_cubical_complex`` and
    ``rescan_collapse_certificate``): cube 5-6, subsets_leq 4-5, threshold
    8, 20 down-sets on 6 points and 40 non-extremal classes on at most 5
    points, whose searches backtrack or find no certificate."""
    classes = [family_class("cube", 5), family_class("cube", 6)]
    classes += [family_class("subsets_leq", 4), family_class("subsets_leq", 5)]
    classes.append(family_class("threshold", 8))
    classes += closed_downsets(131, 6, 20)
    rng = random.Random(137)
    nonextremal = []
    while len(nonextremal) < 40:
        cls = random_class(rng, max_n=5, max_size=12)
        if not is_extremal(cls).extremal:
            nonextremal.append(cls)
    return classes + nonextremal


HOLLOW_CYCLE = ("--", "-+", "+-", "++", "*-", "*+", "-*", "+*")


def named_extremal_classes():
    """The figure classes, and cube, threshold and subsets_leq on at most
    four points."""
    out = [cls_of(FIG_SQUARE_WHISKER), cls_of(FIG_THRESHOLDISH)]
    for n in (1, 2, 3, 4):
        out += [family_class("cube", n), family_class("threshold", n)]
    out += [family_class("subsets_leq", d) for d in (1, 2, 3)]
    return out


# --- extremality --------------------------------------------------------


class TestIsExtremal:
    def test_figure_class(self):
        report = is_extremal(cls_of(FIG_THRESHOLDISH))
        assert report.extremal
        assert report.size == report.shattered_count == 4

    def test_cubes_are_extremal(self):
        for n in (1, 2, 3):
            assert is_extremal(family_class("cube", n)).extremal

    def test_two_singletons_not_extremal(self):
        report = is_extremal(cls_of(["+-", "-+"]))
        assert not report.extremal
        assert (report.size, report.shattered_count) == (2, 3)

    def test_thresholds_extremal(self):
        for d in (1, 2, 3, 4):
            assert is_extremal(family_class("threshold", d)).extremal

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(extremal, "DEFAULT_EXTREMAL_CAP", 2)
        with pytest.raises(CapExceededError):
            is_extremal(family_class("cube", 3))

    def test_strong_equals_plain_iff_extremal(self):
        from spheredim.concepts import shattered_family

        def agree(cls):
            shat = {m for lv in shattered_family(cls) for m in lv}
            strong = {m for lv in strongly_shattered_family(cls) for m in lv}
            assert is_extremal(cls).extremal == (shat == strong)

        # exhaustive over every nonempty class on up to 3 points
        for n in (1, 2, 3):
            universe = list(range(2**n))
            for picks in range(1, 2 ** len(universe)):
                masks = [m for m in universe if picks & (1 << m)]
                agree(ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks)))
        # sampled for larger domains
        rng = random.Random(41)
        for _ in range(150):
            agree(random_class(rng, max_n=6, max_size=16))


class TestCubicalComplex:
    def test_figure_counts(self):
        cc = cubical_complex(cls_of(FIG_SQUARE_WHISKER))
        assert cc.counts() == (5, 5, 1)

    def test_square(self):
        cc = cubical_complex(family_class("cube", 2))
        assert cc.counts() == (4, 4, 1)
        assert "**" in cc.rows()

    def test_singleton(self):
        cc = cubical_complex(cls_of(["-+"]))
        assert cc.counts() == (1,)

    def test_against_oracle(self):
        rng = random.Random(43)
        for _ in range(60):
            cls = random_class(rng)
            cc = cubical_complex(cls)
            assert {(c.plus, c.defined) for c in cc.cubes} == oracle_cubes(cls)

    def test_dim_equals_vc_for_extremal(self):
        for cls in random_extremal_classes(47, 25):
            top = max(c.dimension for c in cubical_complex(cls).cubes)
            assert top == dimension(cls, V.PRIMAL)

    def test_closure_validated(self):
        with pytest.raises(ValueError):
            CubicalComplex.from_strings(["**"])


class TestCubicalBarycentric:
    def test_figure_face_counts(self):
        cc = cubical_complex(cls_of(FIG_SQUARE_WHISKER))
        sub = cubical_barycentric(cc)
        # oracle: count chains of the cube poset directly
        cubes = list(cc.cubes)
        by_len = {}
        for r in range(1, len(cubes) + 1):
            total = 0
            for combo in itertools.combinations(cubes, r):
                ordered = sorted(combo, key=lambda c: c.dimension)
                if all(
                    extends(b, a) or extends(a, b)
                    for a, b in itertools.combinations(ordered, 2)
                ):
                    total += 1
            if total == 0:
                break
            by_len[r - 1] = total
        expected = tuple(by_len[d] for d in range(max(by_len) + 1))
        assert face_counts(sub) == expected
        assert face_counts(sub) == (11, 18, 8)

    def test_single_vertex(self):
        cc = cubical_complex(cls_of(["-+"]))
        assert face_counts(cubical_barycentric(cc)) == (1,)

    def test_single_edge_gives_three_vertex_path(self):
        cc = cubical_complex(cls_of(["-", "+"]))
        assert face_counts(cubical_barycentric(cc)) == (3, 2)

    def test_face_counts_agree_with_order_complex(self):
        classes = random_extremal_classes(53, 15) + named_extremal_classes()
        classes += random_downsets(113, 6, 3)
        classes += [family_class("threshold", n) for n in (5, 6)]
        complexes = [cubical_complex(cls) for cls in classes] + [CubicalComplex(())]
        for cc in complexes:
            assert cubical_face_counts(cc) == face_counts(cubical_barycentric(cc))

    def test_face_cap_agrees_with_order_complex(self, monkeypatch):
        # the order complex stops at complexes.DEFAULT_FACE_CAP; the counts
        # are arithmetic on the cube counts, which no face cap bounds
        for cls in [cls_of(FIG_SQUARE_WHISKER), family_class("cube", 3)]:
            cc = cubical_complex(cls)
            total = sum(face_counts(cubical_barycentric(cc)))
            with monkeypatch.context() as m:
                m.setattr("spheredim.complexes.DEFAULT_FACE_CAP", total)
                want = face_counts(cubical_barycentric(cc))
                assert cubical_face_counts(cc) == want
                m.setattr("spheredim.complexes.DEFAULT_FACE_CAP", total - 1)
                assert cubical_face_counts(cc) == want
                with pytest.raises(CapExceededError, match="face enumeration cap exceeded"):
                    face_counts(cubical_barycentric(cc))

    def test_chain_test_agrees_with_order_complex(self):
        rng = random.Random(127)
        for cls in random_extremal_classes(131, 10) + [cls_of(FIG_SQUARE_WHISKER)]:
            cc = cubical_complex(cls)
            sub = cubical_barycentric(cc)
            order = sorted(cc.cubes, key=lambda c: (c.dimension, str(c)))
            plus = [c.plus for c in order]
            defined = [c.defined for c in order]
            assert is_chain(plus, defined, 0)
            for _ in range(50):
                size = rng.randint(1, min(4, len(order)))
                part = mask_of(rng.sample(range(len(order)), size))
                members = [order[i] for i in bits(part)]
                want = all(extends(a, b) for a, b in zip(members, members[1:]))
                assert is_chain(plus, defined, part) == want
                assert want == sub.has_simplex(part)
            # every facet-descending path is an extension chain, which is
            # why the embedding check counts these chains and tests none
            for s in sub.maximal:
                assert is_chain(plus, defined, s)

    def test_euler_characteristic_matches_cube_counts(self):
        for cls in random_extremal_classes(53, 15):
            cc = cubical_complex(cls)
            chi_cubes = sum((-1) ** d * c for d, c in enumerate(cc.counts()))
            assert euler_characteristic(cubical_barycentric(cc)) == chi_cubes


class TestEmbedding:
    def test_figure_class_embeds_fully(self):
        report = full_subcomplex_embedding_check(cls_of(FIG_THRESHOLDISH))
        assert report.ok and not report.reversed_case

    def test_cube_reports_reversed_case(self):
        report = full_subcomplex_embedding_check(family_class("cube", 2))
        assert report.ok and report.reversed_case

    def test_non_extremal_rejected(self):
        with pytest.raises(WitnessError):
            full_subcomplex_embedding_check(cls_of(["+-", "-+"]))

    def test_random_extremal_classes(self):
        for cls in random_extremal_classes(59, 20):
            assert full_subcomplex_embedding_check(cls).ok

    def test_given_cubical_complex_gives_the_same_report(self):
        for cls in random_extremal_classes(59, 20) + named_extremal_classes():
            given = full_subcomplex_embedding_check(cls, cubical_complex(cls))
            assert given == full_subcomplex_embedding_check(cls)

    def test_cli_checks_extremality_and_builds_cubes_once(self, monkeypatch, tmp_path, capsys):
        from spheredim import cli

        calls = {"is_extremal": 0, "cubical_complex": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for module in (cli, extremal):
            for name in calls:
                monkeypatch.setattr(module, name, counted(module, name))
        path = tmp_path / "subsets.cls"
        path.write_text(format_class(family_class("subsets_leq", 4)))
        assert cli.main(["extremal", str(path)]) == 0
        assert "embedding full subcomplex embedding verified\n" in capsys.readouterr().out
        assert calls == {"is_extremal": 1, "cubical_complex": 1}

    def test_fullness_agrees_with_face_enumeration(self):
        for cls in random_extremal_classes(59, 20) + named_extremal_classes():
            report = full_subcomplex_embedding_check(cls)
            assert report.ok
            if report.reversed_case:
                continue
            sub = cubical_barycentric(cubical_complex(cls))
            assert oracle_fullness(sub, subdivided_realizable_complex(cls))

    def test_agrees_with_oracle(self):
        classes = random_extremal_classes(59, 20) + named_extremal_classes()
        classes += random_downsets(113, 6, 3)
        for cls in classes:
            got = full_subcomplex_embedding_check(cls)
            assert got.ok
            if len(cls) == 1 << cls.domain_size:
                assert got.reversed_case
                continue
            assert same_embedding_report(got, oracle_embedding_check(cls))

    def test_chains_checked_counts_the_maximal_chains(self):
        # j!*2^j per top j-cube is the number of facet-descending paths
        classes = [family_class("threshold", n) for n in range(1, 13)]
        classes += [family_class("subsets_leq", d) for d in range(1, 6)]
        classes += random_extremal_classes(59, 20) + random_downsets(113, 6, 3)
        classes += named_extremal_classes()
        for cls in classes:
            cc = cubical_complex(cls)
            report = full_subcomplex_embedding_check(cls, cc)
            assert report.ok
            if report.reversed_case:
                assert len(cls) == 1 << cls.domain_size
                assert report.chains_checked == 0
            else:
                assert report.chains_checked == len(cube_chains(cc))

    def test_cubes_of_another_class_are_rejected(self):
        # the square-with-whisker cubes against the thresholdish class on the
        # same three points: the first cube in (dimension, label) order that
        # no concept extends is named, before any chain is checked
        cls = cls_of(FIG_THRESHOLDISH)
        cc = cubical_complex(cls_of(FIG_SQUARE_WHISKER))
        first = next(c for c in cc.cubes if not realizable_partial(cls, c))
        assert str(first) == "++-"
        report = full_subcomplex_embedding_check(cls, cc)
        assert not report.ok and not report.reversed_case
        assert report.cube_vertices == len(cc.cubes) and report.chains_checked == 0
        assert report.detail == "cube ++- is not a realizable vertex"

    def test_no_chain_cap(self, monkeypatch):
        # a single concept on 10 points has 10! support-dropping paths; the
        # check reads only its one cube, so no chain cap applies
        cls = ConceptClass(10, (PartialHypothesis.total(10, 0),))
        monkeypatch.setattr(complexes, "DEFAULT_CHAIN_CAP", 1)
        report = full_subcomplex_embedding_check(cls)
        assert report == EmbeddingReport(
            False, True, 1, 1, "full subcomplex embedding verified"
        )

    @pytest.mark.parametrize("n", [9, 12, 16])
    def test_long_thresholds_answer(self, n, tmp_path, capsys):
        # the |H| * n! support-dropping paths pass the chain cap from
        # threshold 9 on; the check walks none of them
        assert (n + 1) * math.factorial(n) > complexes.DEFAULT_CHAIN_CAP
        path = tmp_path / "t.cls"
        path.write_text(format_class(family_class("threshold", n)))
        assert cli.main(["extremal", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("embedding full subcomplex embedding verified\n")
        assert f"collapsible yes in {n} steps" in out

    def test_subdivided_realizable_complex_counts(self):
        # square class: vertices are the 8 nonempty-support realizable
        # partial hypotheses of C_2 minus nothing: 4 total + 4 one-point
        delta1 = subdivided_realizable_complex(family_class("cube", 2))
        assert face_counts(delta1) == (8, 8)


class TestRestriction:
    def test_square_restriction(self):
        out = restriction(family_class("cube", 2), PartialHypothesis.from_string("*-"))
        assert out.rows() == ("--", "+-")

    def test_undefined_restriction_is_identity(self):
        e = cls_of(FIG_THRESHOLDISH)
        assert restriction(e, PartialHypothesis.from_string("***")) == e

    def test_disjointness_at_antipodal_pairs(self):
        e = cls_of(FIG_THRESHOLDISH)
        for defined in range(1, 8):
            for plus_bits in range(8):
                plus = plus_bits & defined
                if plus != plus_bits:
                    continue
                h = PartialHypothesis(3, plus, defined)
                flipped = PartialHypothesis(3, defined & ~plus, defined)
                if realizable_partial(e, h) and realizable_partial(e, flipped):
                    a = set(restriction(e, h).rows())
                    b = set(restriction(e, flipped).rows())
                    assert not (a & b)

    def test_unrealizable_rejected(self):
        with pytest.raises(WitnessError):
            restriction(cls_of(["--", "++"]), PartialHypothesis.from_string("+-"))

    def test_restrictions_of_extremal_are_extremal(self):
        for cls in random_extremal_classes(61, 15):
            n = cls.domain_size
            for defined in range(1 << n):
                for plus in range(1 << n):
                    if plus & ~defined:
                        continue
                    h = PartialHypothesis(n, plus, defined)
                    if realizable_partial(cls, h):
                        assert is_extremal(restriction(cls, h)).extremal


class TestAgainstReplacedCode:
    """The level-by-level cube build and the search that keeps its free
    faces incrementally give what the code they replaced gave."""

    @staticmethod
    def outcome(search, cc, budget):
        try:
            return ("done", search(cc, node_budget=budget))
        except CapExceededError as exc:
            return ("cap", str(exc))

    def test_cubical_complex_matches_grouping(self):
        for cls in replaced_code_corpus():
            got = cubical_complex(cls)
            want = grouped_cubical_complex(cls)
            assert got.cubes == want.cubes and got.cofaces == want.cofaces
            ordered, cofaces, facets = cube_incidence(want.cubes)
            assert got.cubes == ordered
            assert list(got.cofaces) == cofaces and list(got.facets) == facets
            assert got.rows() == tuple(str(c) for c in ordered)
            assert got.counts() == tuple(
                sum(c.dimension == d for c in ordered)
                for d in range(max(c.dimension for c in ordered) + 1)
            )

    def test_collapse_matches_rescan(self):
        ccs = [cubical_complex(cls) for cls in replaced_code_corpus()]
        ccs.append(CubicalComplex.from_strings(HOLLOW_CYCLE))
        backtracked = 0
        for cc in ccs:
            for budget in (0, 1, 2, 3, 5, 8, extremal.DEFAULT_COLLAPSE_BUDGET):
                got = self.outcome(collapse_certificate, cc, budget)
                assert got == self.outcome(rescan_collapse_certificate, cc, budget)
            # a search that enters more states than one per move, or than
            # one if it fails, backtracked
            moves = got[1]
            if self.outcome(collapse_certificate, cc, len(moves or [None]))[0] == "cap":
                backtracked += 1
        assert got == ("done", None)  # the hollow cycle
        assert backtracked >= 20

    def test_cube_cap_exit_matches(self, monkeypatch, tmp_path, capsys):
        classes = replaced_code_corpus()[::5]
        totals = [len(cubical_complex(cls).cubes) for cls in classes]
        for cls, total in zip(classes, totals):
            for cap in sorted({0, 1, len(cls), total // 2, total - 1, total}):
                monkeypatch.setattr(extremal, "DEFAULT_CUBE_CAP", cap)
                results = []
                for build in (cubical_complex, grouped_cubical_complex):
                    try:
                        results.append(build(cls).cubes)
                    except CapExceededError as exc:
                        results.append(str(exc))
                assert results[0] == results[1]
                assert (results[0] == f"cube cap {cap} exceeded") == (total > cap)
        # the command exits 3 on it, after the Pajor count
        path = tmp_path / "subsets.cls"
        path.write_text(format_class(family_class("subsets_leq", 4)))
        monkeypatch.setattr(extremal, "DEFAULT_CUBE_CAP", 210)
        assert cli.main(["extremal", str(path)]) == 3
        assert capsys.readouterr().err == "budget exceeded: cube cap 210 exceeded\n"
        monkeypatch.setattr(extremal, "DEFAULT_CUBE_CAP", 3)
        cc = CubicalComplex.from_strings(HOLLOW_CYCLE)
        for search in (collapse_certificate, rescan_collapse_certificate):
            with pytest.raises(CapExceededError, match="^collapse cube cap is 3$"):
                search(cc)


class TestCollapse:
    def test_square_collapses(self):
        cc = cubical_complex(family_class("cube", 2))
        moves = collapse_certificate(cc)
        assert moves is not None
        validate_collapse(cc, moves)

    def test_figure_class_collapses(self):
        cc = cubical_complex(cls_of(FIG_SQUARE_WHISKER))
        moves = collapse_certificate(cc)
        assert moves is not None
        validate_collapse(cc, moves)

    def test_hollow_cycle_has_no_certificate(self):
        cc = CubicalComplex.from_strings(HOLLOW_CYCLE)
        assert collapse_certificate(cc) is None
        assert oracle_collapse_certificate(cc) is None

    def test_extremal_classes_collapse(self):
        for cls in random_extremal_classes(67, 20):
            cc = cubical_complex(cls)
            moves = collapse_certificate(cc)
            assert moves is not None
            validate_collapse(cc, moves)

    def test_budget_exceeded_distinct(self):
        cc = cubical_complex(family_class("cube", 2))
        with pytest.raises(CapExceededError):
            collapse_certificate(cc, node_budget=0)
        with pytest.raises(CapExceededError):
            oracle_collapse_certificate(cc, node_budget=0)

    def test_moves_match_pair_scan(self):
        classes = random_extremal_classes(67, 20) + named_extremal_classes()
        # non-extremal classes, whose cubical complexes need backtracking or
        # have no certificate
        rng = random.Random(103)
        classes += [random_class(rng, max_n=4) for _ in range(40)]
        for cls in classes:
            cc = cubical_complex(cls)
            assert collapse_certificate(cc) == oracle_collapse_certificate(cc)

    def test_node_budget_matches_pair_scan(self):
        rng = random.Random(107)
        for _ in range(30):
            cc = cubical_complex(random_class(rng, max_n=4))
            for budget in (0, 1, 2, 3, 5, 8):
                try:
                    want = oracle_collapse_certificate(cc, node_budget=budget)
                except CapExceededError:
                    with pytest.raises(CapExceededError):
                        collapse_certificate(cc, node_budget=budget)
                else:
                    assert collapse_certificate(cc, node_budget=budget) == want

    def test_deep_collapse_needs_no_recursion(self):
        # cube 5 collapses in 121 steps, far more frames than are left
        # under the lowered limit
        cc = cubical_complex(family_class("cube", 5))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            moves = collapse_certificate(cc)
        finally:
            sys.setrecursionlimit(limit)
        assert moves is not None and len(moves) == (len(cc.cubes) - 1) // 2 == 121
        validate_collapse(cc, moves)

    def test_unsorted_cubes_match_pair_scan(self):
        cc = cubical_complex(cls_of(FIG_SQUARE_WHISKER))
        shuffled = CubicalComplex(tuple(reversed(cc.cubes)))
        assert collapse_certificate(shuffled) == oracle_collapse_certificate(cc)


class TestClassify:
    def test_singleton(self):
        assert isinstance(classify_low_vc(cls_of(["-+-"])), Singleton)

    def test_thresholds_with_natural_certificate(self):
        got = classify_low_vc(family_class("threshold", 3))
        assert isinstance(got, ThresholdLike)
        assert got.flip_mask == 0
        assert got.order == (0, 1, 2)

    def test_pair_of_opposites(self):
        got = classify_low_vc(cls_of(["--", "++"]))
        assert isinstance(got, ThresholdLike)

    def test_three_singletons_need_hexagon(self):
        got = classify_low_vc(cls_of(["+--", "-+-", "--+"]))
        assert isinstance(got, Vc1NonThreshold)
        assert verify_witness(got.witness)
        assert got.witness.dimension == 1

    def test_shattered_pair(self):
        got = classify_low_vc(family_class("cube", 2))
        assert isinstance(got, Vc2Plus)
        assert got.shattered_pair == (0, 1)

    def test_certificates_verify(self):
        rng = random.Random(71)
        for _ in range(250):
            cls = random_class(rng, max_n=5, max_size=6)
            got = classify_low_vc(cls)
            if isinstance(got, ThresholdLike):
                assert verify_threshold_certificate(cls, got.flip_mask, got.order)
            elif isinstance(got, Vc1NonThreshold):
                assert verify_witness(got.witness)

    def test_matches_oracle(self):
        rng = random.Random(73)
        checked = 0
        while checked < 200:
            cls = random_class(rng, max_n=5, max_size=5)
            got = classify_low_vc(cls)
            if isinstance(got, (Singleton, Vc2Plus)):
                continue
            checked += 1
            embeddable = oracle_threshold_embeddable(cls)
            assert isinstance(got, ThresholdLike) == embeddable

    def test_oracle_variants_agree(self):
        rng = random.Random(79)
        for _ in range(80):
            cls = random_class(rng, max_n=4, max_size=5)
            assert oracle_threshold_embeddable(cls) == oracle_threshold_embeddable_literal(cls)


def vc_extremal_upper(cls, candidate):
    """VC of a verified extremal superclass, as an upper bound certificate.

    No search is performed: the candidate must live on the same domain,
    contain every hypothesis of the class, and be extremal; otherwise None.
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
    return dimension(candidate, V.PRIMAL)


class TestVcExtremalUpper:
    def test_threshold_subclass(self):
        sub = cls_of(["--", "++"])
        assert vc_extremal_upper(sub, family_class("threshold", 2)) == 1

    def test_cube_always_works(self):
        sub = cls_of(["-+-", "+--"])
        assert vc_extremal_upper(sub, family_class("cube", 3)) == 3

    def test_non_extremal_candidate_rejected(self):
        sub = cls_of(["+-"])
        assert vc_extremal_upper(sub, cls_of(["+-", "-+"])) is None

    def test_non_superset_rejected(self):
        sub = cls_of(["++"])
        assert vc_extremal_upper(sub, cls_of(["--", "-+"])) is None

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            vc_extremal_upper(cls_of(["+-"]), family_class("cube", 3))


class TestExtremalBounds:
    def test_dual_vc_bound_for_extremal(self):
        for cls in random_extremal_classes(83, 25, max_n=4):
            vc = dimension(cls, V.PRIMAL)
            vcd = dimension(cls, V.DUAL)
            assert vcd <= 2 * vc + 1

    def test_sd_upper_bound_for_extremal(self):
        from spheredim.spheres import sd_bounds

        for cls in random_extremal_classes(97, 20, max_n=4):
            if len(cls) == 1:
                continue
            vc = dimension(cls, V.PRIMAL)
            assert sd_bounds(cls).upper <= 2 * vc - 1

    def test_low_vc_classes_have_sd_upper_at_most_one(self):
        from spheredim.spheres import sd_bounds

        rng = random.Random(89)
        for _ in range(60):
            cls = random_class(rng, max_n=5, max_size=3)
            if dimension(cls, V.PRIMAL) <= 1:
                assert sd_bounds(cls).upper <= 1
