"""Tests for simplicial complexes and the realizable-distribution complex."""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from spheredim.concepts import (
    CapExceededError,
    ClassFormatError,
    ConceptClass,
    PartialHypothesis,
    bits,
    family_class,
    mask_of,
    max_hamming_distance as library_max_hamming_distance,
    parse_class,
    popcount,
    product_class,
)
from spheredim.complexes import (
    AntipodalComplex,
    SimplicialComplex,
    antipodal_subcomplex,
    barycentric_subdivision,
    complex_to_payload,
    complexes_isomorphic,
    euler_characteristic,
    face_counts,
    join_complex,
    label_flip,
    parse_point_label,
    point_label,
    realizable_complex,
)
from spheredim.spheres import (
    join_templates,
    make_barycentric_boundary,
    make_crosspolytope,
    subdivide_template,
)
from spheredim.storage import complex_from_payload, load, store

BENCH_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def crosspolytope_complex(n):
    """Boundary of the (n+1)-dimensional crosspolytope, built by hand."""
    labels = []
    for i in range(n + 1):
        labels.append(f"e{i}-")
        labels.append(f"e{i}+")
    maximal = []
    for signs in itertools.product((0, 1), repeat=n + 1):
        m = 0
        for i, s in enumerate(signs):
            m |= 1 << (2 * i + s)
        maximal.append(m)
    inv = tuple(i ^ 1 for i in range(2 * (n + 1)))
    return AntipodalComplex(SimplicialComplex(tuple(labels), tuple(sorted(maximal))), inv)


def fig_class():
    return ConceptClass.from_strings(["---", "-+-", "+--", "++-"])


class TestSimplicialComplex:
    def test_incomparability_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), (0b01, 0b11))

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), (0b01,))

    def test_from_maximal_filters(self):
        k = SimplicialComplex.from_maximal(("a", "b", "c"), [0b011, 0b001, 0b110])
        assert k.maximal == (0b011, 0b110)

    def test_membership_is_downward_closure(self):
        k = SimplicialComplex(("a", "b", "c"), (0b111,))
        assert k.has_simplex(0b101)
        assert k.has_simplex(0b010)

    def test_dim(self):
        assert SimplicialComplex(("a", "b", "c"), (0b111,)).dim() == 2


class TestRealizableComplex:
    def test_figure_class_counts(self):
        delta = realizable_complex(fig_class())
        assert len(delta.vertices) == 5
        assert len(delta.maximal) == 4
        assert delta.dim() == 2

    def test_cube_2_is_four_cycle(self):
        delta = realizable_complex(family_class("cube", 2))
        assert len(delta.vertices) == 4
        assert face_counts(delta) == (4, 4)

    def test_singleton_single_simplex(self):
        delta = realizable_complex(ConceptClass.from_strings(["-+-"]))
        assert len(delta.maximal) == 1
        assert len(delta.vertices) == 3

    def test_maximal_simplices_have_domain_size_vertices(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 5)
            size = rng.randint(1, min(10, 2**n))
            cls = ConceptClass(
                n,
                tuple(
                    PartialHypothesis.total(n, m)
                    for m in rng.sample(range(2**n), size)
                ),
            )
            delta = realizable_complex(cls)
            for s in delta.maximal:
                assert bin(s).count("1") == n

    def test_maximal_simplices_are_the_concept_graphs(self):
        # each concept's (point, label) vertices, looked up one by one
        rng = random.Random(3)
        for _ in range(300):
            cls = random_total_class(rng)
            delta = realizable_complex(cls)
            index = {parse_point_label(v): i for i, v in enumerate(delta.vertices)}
            want = sorted(
                mask_of(
                    index[(x, +1 if h.plus >> x & 1 else -1)]
                    for x in range(cls.domain_size)
                )
                for h in cls.hypotheses
            )
            assert list(delta.maximal) == want

    def test_point_labels_read_back(self):
        for x in (0, 1, 9, 10, 123):
            for sign in (-1, +1):
                assert parse_point_label(point_label(x, sign)) == (x, sign)
        # labels that point_label never writes
        for label in ("", "+", "0", "0*", "x+", "01+", "-1+", "1 +", "e0+", "[0+]", "\u0663+", "\u00b2+"):
            assert parse_point_label(label) is None, label
        # no ValueError where the interpreter caps the digits of an int
        # string (4300 by default), past which point_label writes nothing
        huge = SimplicialComplex(("1" * 5000 + "+", "1" * 5000 + "-"), (0b01, 0b10))
        flip = label_flip(huge)
        assert flip in ((None, None), (1, 0))
        assert complex_to_payload(huge)["involution"] == list(flip)

    def test_label_flip_reads_the_labels(self):
        # the flip pairs the two labels of one point; any other label has none
        k = SimplicialComplex(("0-", "e0+", "0+", "[1-]", "1-", "01+"), (0b111111,))
        assert label_flip(k) == (2, None, 0, None, None, None)
        assert label_flip(crosspolytope_complex(1).complex) == (None,) * 4

    def test_involution_partial(self):
        delta = realizable_complex(fig_class())
        # (2,-) has no antipode present()
        idx = delta.vertex_index()
        assert label_flip(delta)[idx["2-"]] is None
        assert label_flip(delta)[idx["0-"]] == idx["0+"]


class TestAntipodalSubcomplex:
    def test_figure_class_gives_four_cycle(self):
        ant = antipodal_subcomplex(fig_class())
        assert len(ant.complex.vertices) == 4
        assert face_counts(ant) == (4, 4)
        iso = complexes_isomorphic(ant, crosspolytope_complex(1), respect_involution=True)
        assert iso is not None

    def test_threshold_two_components(self):
        ant = antipodal_subcomplex(family_class("threshold", 3))
        # exactly the all-minus and all-plus simplices
        assert len(ant.complex.maximal) == 2
        m1, m2 = ant.complex.maximal
        assert m1 & m2 == 0
        assert ant.map_simplex(m1) == m2

    def test_singleton_empty(self):
        ant = antipodal_subcomplex(ConceptClass.from_strings(["+-"]))
        assert ant.is_empty

    def test_cube_equals_own_antipodal(self):
        delta = realizable_complex(family_class("cube", 3))
        ant = antipodal_subcomplex(family_class("cube", 3))
        assert sorted(ant.complex.maximal) == sorted(delta.maximal)

    def test_axioms_checked(self):
        pair = "a simplex contains an antipodal vertex pair"
        with pytest.raises(ValueError, match=pair):
            # involution with a fixed simplex pair violation: edge {a, b} with a<->b
            AntipodalComplex(SimplicialComplex(("a", "b"), (0b11,)), (1, 0))
        # a square a-b-c-d with a<->b, c<->d: the edge {a, b} is a side
        square = SimplicialComplex(("a", "b", "c", "d"), (0b0011, 0b0110, 0b1001, 0b1100))
        with pytest.raises(ValueError, match=pair):
            AntipodalComplex(square, (1, 0, 3, 2))
        # the edge {a, b} maps to {c, d}, which is not an edge
        k = SimplicialComplex(("a", "b", "c", "d"), (0b0011, 0b0100, 0b1000))
        with pytest.raises(ValueError, match="involution is not simplicial"):
            AntipodalComplex(k, (2, 3, 0, 1))
        # a triangle and an edge swapped by the involution
        k = SimplicialComplex(("a", "b", "c", "d", "e", "f"), (0b000111, 0b011000, 0b100000))
        with pytest.raises(ValueError, match="involution is not simplicial"):
            AntipodalComplex(k, (3, 4, 5, 0, 1, 2))


def oracle_has_simplex(k, mask):
    """The linear scan that ``has_simplex`` replaced: a subset test against
    every maximal simplex."""
    return any((mask & ~s) == 0 for s in k.maximal)


def random_complex(rng, max_vertices=10, max_simplices=12):
    """A complex from random simplices, with a singleton for every vertex
    they leave uncovered."""
    n = rng.randint(1, max_vertices)
    sims = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, max_simplices))]
    covered = 0
    for s in sims:
        covered |= s
    sims += [1 << v for v in range(n) if not covered >> v & 1]
    return SimplicialComplex.from_maximal(tuple(f"v{i}" for i in range(n)), sims)


def probe_masks(rng, k, count=200):
    """Masks to ask ``k`` about: 0, bits past the last vertex, faces of
    maximal simplices, faces plus one vertex, and random masks."""
    n = len(k.vertices)
    masks = {0, 1 << n, (1 << (n + 1)) - 1, 1 << (n + 3)}
    for s in k.maximal:
        masks.add(s)
        face = s & rng.randrange(1 << n)
        masks.add(face)
        masks.add(face | 1 << rng.randrange(n))
        masks.add(s | 1 << (n + rng.randrange(3)))
    if n <= 10:
        masks.update(range(1 << (n + 1)))
    else:
        masks.update(rng.randrange(1 << (n + 1)) for _ in range(count))
    return sorted(masks)


def template_complexes():
    """Every template kind up to dimension 3: crosspolytopes, barycentric
    boundaries, joins of two, and first subdivisions."""
    small = [make_crosspolytope(n) for n in range(4)]
    small += [make_barycentric_boundary(n) for n in range(4)]
    out = list(small)
    for a, b in itertools.product(small, repeat=2):
        if a.dimension + b.dimension + 1 <= 3:
            out.append(join_templates(a, b))
    for t in small:
        if t.dimension <= 2:
            out.append(subdivide_template(t))
    return out


class TestMembershipOracle:
    """``has_simplex`` by incidence against the linear scan it replaced."""

    def test_random_maximal_lists(self):
        rng = random.Random(89)
        checked = 0
        for _ in range(2000):
            k = random_complex(rng)
            for mask in probe_masks(rng, k):
                assert k.has_simplex(mask) == oracle_has_simplex(k, mask)
                checked += 1
        assert checked > 500_000

    def test_every_template_kind(self):
        rng = random.Random(97)
        kinds = set()
        for t in template_complexes():
            kinds.add(type(t.kind).__name__)
            k = t.complex.complex
            for mask in probe_masks(rng, k, count=3000):
                assert k.has_simplex(mask) == oracle_has_simplex(k, mask)
        assert kinds == {"CrosspolytopeKind", "BarycentricBoundaryKind", "JoinKind", "SubdividedKind"}

    def test_empty_complex(self):
        k = SimplicialComplex((), ())
        assert k.incidence == ()
        for mask in (0, 1, 0b10, 0b111):
            assert k.has_simplex(mask) is False
            assert oracle_has_simplex(k, mask) is False

    def test_empty_mask_and_bits_past_the_last_vertex(self):
        k = SimplicialComplex(("a", "b", "c"), (0b011, 0b110))
        assert k.has_simplex(0) is True
        assert k.has_simplex(0b1000) is False
        assert k.has_simplex(0b1011) is False
        assert k.has_simplex(-1) is False

    def test_incidence_is_the_transpose_and_not_a_field(self):
        rng = random.Random(101)
        for _ in range(200):
            k = random_complex(rng)
            twin = SimplicialComplex(k.vertices, k.maximal)
            assert len(k.incidence) == len(k.vertices)
            for v, col in enumerate(k.incidence):
                assert col == mask_of(j for j, s in enumerate(k.maximal) if s >> v & 1)
            assert sum(map(popcount, k.incidence)) == sum(map(popcount, k.maximal))
            # twin has not built its index: equality, hash and repr ignore it
            assert k == twin and hash(k) == hash(twin) and repr(k) == repr(twin)
            assert "incidence" not in repr(k)


def oracle_antipodal_subcomplex(delta):
    """The pairwise construction on a realizable complex, with its label
    flip: every disagreement set m1 & flip(m2), then the candidates
    contained in no other candidate."""
    involution = label_flip(delta)
    flippable = mask_of(i for i, j in enumerate(involution) if j is not None)

    def flip(mask):
        out = 0
        for i in bits(mask):
            out |= 1 << involution[i]
        return out

    candidates = set()
    for m1 in delta.maximal:
        for m2 in delta.maximal:
            s = m1 & flip(m2 & flippable) & flippable
            if s:
                candidates.add(s)
    keep = [
        s
        for s in candidates
        if not any(s != t and (s & ~t) == 0 for t in candidates)
    ]
    used = 0
    for s in keep:
        used |= s
    old_indices = list(bits(used))
    new_index = {o: i for i, o in enumerate(old_indices)}
    labels = tuple(delta.vertices[o] for o in old_indices)
    maximal = tuple(
        sorted(mask_of(new_index[i] for i in bits(s)) for s in keep)
    )
    return AntipodalComplex(
        SimplicialComplex(labels, maximal),
        tuple(new_index[involution[o]] for o in old_indices),
    )


def assert_same_antipodal(cls):
    """Compare the class-level builder with the oracle on the class's
    realizable complex, field by field; return the oracle's complex."""
    got = antipodal_subcomplex(cls)
    want = oracle_antipodal_subcomplex(realizable_complex(cls))
    assert got.complex.vertices == want.complex.vertices
    assert got.complex.maximal == want.complex.maximal
    assert got.involution == want.involution
    # the builder's vertices are the class's two-label points
    assert tuple(map(parse_point_label, want.complex.vertices)) == cls.label_columns.points
    return want


def random_total_class(rng, max_n=8, max_size=30):
    n = rng.randint(1, max_n)
    size = rng.randint(1, min(max_size, 2**n))
    masks = rng.sample(range(2**n), size)
    return ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks))


def bench_corpus():
    """bench/corpus.py, loaded by path: it generates class files without
    importing spheredim."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus_classes():
    """Every distinct class of the steady benchmark workloads, seeds 1 and 2."""
    corpus = bench_corpus()
    texts = set()
    for workload in corpus.STEADY_WORKLOADS:
        for seed in (1, 2):
            texts |= set(corpus.build(workload, seed).corpus.values())
    return [parse_class(t) for t in sorted(texts)]


def max_hamming_distance(cls):
    masks = [h.plus for h in cls.hypotheses]
    return max(bin(a ^ b).count("1") for a in masks for b in masks)


class TestAntipodalOracle:
    """The class-level construction against the pairwise filter on the
    realizable complex, which shares no code with it."""

    def test_every_class_on_at_most_three_points(self):
        classes = 0
        for n in (1, 2, 3):
            for cls in all_total_classes(n):
                assert_same_antipodal(cls)
                classes += 1
        assert classes == 3 + 15 + 255

    def test_bench_corpora(self, corpus_classes):
        assert len(corpus_classes) > 40
        for cls in corpus_classes:
            assert_same_antipodal(cls)

    def test_random_total_classes(self):
        rng = random.Random(6)
        for _ in range(2000):
            assert_same_antipodal(random_total_class(rng))

    def test_storage_round_trip(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "delta.json"
        simplicial = 0
        for _ in range(500):
            cls = random_total_class(rng, max_size=8)
            delta = realizable_complex(cls)
            store(delta, path)
            back = load("complex", path)
            # a label flip that is total, simplicial and free loads as an
            # AntipodalComplex (tests/test_storage.py covers that case)
            if not isinstance(back, AntipodalComplex):
                simplicial += 1
                assert back == delta
                assert oracle_antipodal_subcomplex(back) == antipodal_subcomplex(cls)
        assert simplicial > 120

    def test_membership_of_random_labelled_sets(self):
        """A labelled set is in the antipodal complex iff one hypothesis
        agrees with it and one agrees with its flip."""
        def agrees(cls, labels):
            return any(
                all(bool(h.plus >> x & 1) == (s > 0) for x, s in labels)
                for h in cls.hypotheses
            )

        rng = random.Random(8)
        checked = 0
        for _ in range(200):
            cls = random_total_class(rng, max_n=6, max_size=20)
            oracle = assert_same_antipodal(cls)
            index = {parse_point_label(v): i for i, v in enumerate(oracle.complex.vertices)}
            n = cls.domain_size
            for _ in range(20):
                points = rng.sample(range(n), rng.randint(1, n))
                sigma = [(x, rng.choice((-1, +1))) for x in points]
                member = agrees(cls, sigma) and agrees(cls, [(x, -s) for x, s in sigma])
                if all(p in index for p in sigma):
                    assert oracle.complex.has_simplex(mask_of(index[p] for p in sigma)) == member
                    checked += 1
                else:
                    assert not member
        assert checked > 1000

    def test_dimension_is_max_hamming_distance_minus_one(self, corpus_classes):
        for cls in corpus_classes:
            ant = antipodal_subcomplex(cls)
            assert ant.dim() == max_hamming_distance(cls) - 1

    def test_twelve_by_two_hundred(self):
        cls = parse_class(bench_corpus().scale(1).corpus["r12x200"])
        assert (cls.domain_size, len(cls)) == (12, 200)
        assert max_hamming_distance(cls) == 12
        assert library_max_hamming_distance(cls) == 12
        assert antipodal_subcomplex(cls).dim() == 11


def all_total_classes(n):
    """Every total class on n points: each nonempty set of sign vectors."""
    for chosen in range(1, 1 << (1 << n)):
        yield ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in bits(chosen)))


def small_and_random_total_classes():
    """All total classes on at most 3 points, then seeded random ones on 4
    to 8 points."""
    for n in (1, 2, 3):
        yield from all_total_classes(n)
    rng = random.Random(17)
    for n in (4, 5, 6, 7, 8, 8):
        for _ in range(2):
            size = rng.randint(2, min(24, 2**n))
            masks = rng.sample(range(2**n), size)
            yield ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks))


class TestLabelColumnsOracle:
    """The class's label columns against the pairwise filter on its
    realizable complex."""

    def test_membership_on_every_mask(self):
        classes = 0
        for cls in small_and_random_total_classes():
            ant = oracle_antipodal_subcomplex(realizable_complex(cls))
            cols = cls.label_columns
            assert cols.points == tuple(map(parse_point_label, ant.complex.vertices))
            assert ant.involution == tuple(i ^ 1 for i in range(len(cols.points)))
            for mask in range(1 << len(cols.points)):
                assert cols.has_simplex(mask) == ant.complex.has_simplex(mask), (cls.rows(), mask)
            # a mask past the last vertex is never a simplex
            assert not cols.has_simplex(1 << len(cols.points))
            classes += 1
        assert classes == 3 + 15 + 255 + 12

    def test_dimension_and_emptiness_from_hamming_distance(self, corpus_classes):
        for cls in itertools.chain(small_and_random_total_classes(), corpus_classes):
            ant = oracle_antipodal_subcomplex(realizable_complex(cls))
            assert library_max_hamming_distance(cls) == max_hamming_distance(cls)
            assert library_max_hamming_distance(cls) - 1 == ant.dim()
            assert (len(cls) == 1) == ant.is_empty

    def test_partial_class_rejected(self):
        cls = ConceptClass.from_strings(["+*", "--"])
        with pytest.raises(ClassFormatError, match="label_columns requires a total class"):
            cls.label_columns
        with pytest.raises(ClassFormatError, match="label_columns requires a total class"):
            antipodal_subcomplex(cls)
        with pytest.raises(ClassFormatError):
            library_max_hamming_distance(cls)


class TestBarycentricSubdivision:
    def test_boundary_of_triangle_gives_hexagon(self):
        k = SimplicialComplex(("1", "2", "3"), (0b011, 0b101, 0b110))
        sub = barycentric_subdivision(k)
        assert face_counts(sub) == (6, 6)

    def test_single_edge_gives_path(self):
        k = SimplicialComplex(("a", "b"), (0b11,))
        sub = barycentric_subdivision(k)
        assert face_counts(sub) == (3, 2)

    def test_square_cycle_gives_eight_cycle_with_antipodality(self):
        sq = crosspolytope_complex(1)
        sub = barycentric_subdivision(sq)
        assert isinstance(sub, AntipodalComplex)
        assert face_counts(sub) == (8, 8)

    def test_euler_characteristic_invariant(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 5)
            size = rng.randint(1, min(8, 2**n))
            cls = ConceptClass(
                n,
                tuple(
                    PartialHypothesis.total(n, m)
                    for m in rng.sample(range(2**n), size)
                ),
            )
            delta = realizable_complex(cls)
            sub = barycentric_subdivision(delta)
            assert euler_characteristic(delta) == euler_characteristic(sub)


class TestJoin:
    def test_join_of_points_is_four_cycle(self):
        d0 = crosspolytope_complex(0)
        j = join_complex(d0, d0)
        assert isinstance(j, AntipodalComplex)
        assert complexes_isomorphic(j, crosspolytope_complex(1), respect_involution=True)

    def test_cone_gains_vertex(self):
        k = SimplicialComplex(("a", "b"), (0b01, 0b10))
        v = SimplicialComplex(("p",), (0b1,))
        cone = join_complex(k, v)
        assert all(bin(s).count("1") == 2 for s in cone.maximal)

    def test_crosspolytope_join_identity(self):
        for a, b in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3)]:
            if a + b + 1 > 4:
                continue
            j = join_complex(crosspolytope_complex(a), crosspolytope_complex(b))
            assert complexes_isomorphic(
                j, crosspolytope_complex(a + b + 1), respect_involution=True
            ), (a, b)

    def test_join_associative_up_to_iso(self):
        p = SimplicialComplex(("p",), (0b1,))
        e = SimplicialComplex(("a", "b"), (0b11,))
        t = SimplicialComplex(("x", "y"), (0b01, 0b10))
        left = join_complex(join_complex(p, e), t)
        right = join_complex(p, join_complex(e, t))
        assert complexes_isomorphic(left, right)

    def test_product_class_delta_is_join_of_deltas(self):
        a = family_class("cube", 1)
        b = family_class("threshold", 2)
        ja = realizable_complex(a)
        jb = realizable_complex(b)
        joined = join_complex(ja, jb)
        prod = realizable_complex(product_class(a, b))
        assert complexes_isomorphic(joined, prod)


class TestIsomorphism:
    def test_identity(self):
        k = crosspolytope_complex(2)
        iso = complexes_isomorphic(k, k, respect_involution=True)
        assert iso is not None

    def test_size_mismatch(self):
        hexagon = barycentric_subdivision(
            SimplicialComplex(("1", "2", "3"), (0b011, 0b101, 0b110))
        )
        assert complexes_isomorphic(hexagon, crosspolytope_complex(1)) is None

    def test_same_counts_different_structure(self):
        # a 6-cycle vs two disjoint triangles: same face vector
        cycle = SimplicialComplex(
            tuple("abcdef"),
            (0b000011, 0b000110, 0b001100, 0b011000, 0b110000, 0b100001),
        )
        triangles = SimplicialComplex.from_maximal(
            tuple("abcdef"),
            [0b000011, 0b000101, 0b000110, 0b011000, 0b101000, 0b110000],
        )
        assert face_counts(cycle) == face_counts(triangles)
        assert complexes_isomorphic(cycle, triangles) is None

    def test_bijection_maps_maximal_onto_maximal(self):
        a = crosspolytope_complex(1)
        b = crosspolytope_complex(1)
        iso = complexes_isomorphic(a, b, respect_involution=True)
        maximal_b = set(b.complex.maximal)
        for s in a.complex.maximal:
            img = 0
            for i in range(4):
                if s & (1 << i):
                    img |= 1 << iso[i]
            assert img in maximal_b

    def test_cap(self):
        big = SimplicialComplex(tuple(f"v{i}" for i in range(70)), ((1 << 70) - 1,))
        with pytest.raises(CapExceededError):
            complexes_isomorphic(big, big)


class TestFaceCounts:
    def test_single_triangle(self):
        assert face_counts(SimplicialComplex(("a", "b", "c"), (0b111,))) == (3, 3, 1)

    def test_four_cycle(self):
        assert face_counts(crosspolytope_complex(1)) == (4, 4)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr("spheredim.complexes.DEFAULT_FACE_CAP", 1000)
        k = SimplicialComplex(tuple(f"v{i}" for i in range(30)), ((1 << 30) - 1,))
        with pytest.raises(CapExceededError):
            face_counts(k)


class TestPayload:
    def test_roundtrip_antipodal(self):
        k = crosspolytope_complex(1)
        payload = complex_to_payload(k)
        back = complex_from_payload(payload)
        assert isinstance(back, AntipodalComplex)
        assert complex_to_payload(back) == payload

    def test_overlapping_maximal_rejected(self):
        payload = {
            "vertices": ["a", "b"],
            "maximal_simplices": [[0], [0, 1]],
            "involution": [None, None],
        }
        with pytest.raises(ValueError):
            complex_from_payload(payload)
