"""Tests for antipodal domains, symmetrization, and disambiguation round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredim.concepts import (
    ConceptClass,
    DimensionVariant,
    PartialHypothesis,
    dimension,
    family_class,
)
from spheredim.disamb import (
    AntipodalDomain,
    Disambiguation,
    antipodal_extension,
    check_disambiguates,
    is_antipodal_class,
    pullback_disambiguation,
    representatives_restriction,
    sphere_from_disambiguation,
    symmetrize,
)
from spheredim.spheres import (
    BarycentricBoundaryKind,
    ClassAnalysis,
    CrosspolytopeKind,
    JoinKind,
    SubdividedKind,
    WitnessError,
    barycentric_witness,
    build_template,
    crosspolytope_witness,
    make_crosspolytope,
    verify_witness,
)

from oracles import closure_disambiguates, extension_pullback_rows

V = DimensionVariant


def cube(n):
    return family_class("cube", n)


def universal(n):
    return family_class("universal", n)


def random_class(rng, n, size):
    masks = rng.sample(range(2**n), size)
    return ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks))


class TestAntipodalDomain:
    def test_standard(self):
        d = AntipodalDomain.standard(3)
        assert d.size == 6
        assert d.pairing[0] == 3 and d.pairing[3] == 0
        assert d.representatives() == (0, 1, 2)

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            AntipodalDomain(2, (0, 1), (0, 1))

    def test_bad_representation_rejected(self):
        with pytest.raises(ValueError):
            AntipodalDomain(2, (1, 0), (0, 1))


class TestSymmetrize:
    def test_antipodal_class_is_fixed(self):
        ext, domain = antipodal_extension(cube(2))
        assert symmetrize(ext, domain) == ext

    def test_explicit_third_case(self):
        # one pair, hypothesis constant plus, representative is point 0
        domain = AntipodalDomain(2, (1, 0), (0, 0))
        cls = ConceptClass.from_strings(["++"])
        out = symmetrize(cls, domain)
        assert out.rows() == ("+-",)

    def test_output_always_antipodal(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 3)
            size = rng.randint(1, min(6, 2 ** (2 * n)))
            cls = random_class(rng, 2 * n, size)
            domain = AntipodalDomain.standard(n)
            assert is_antipodal_class(symmetrize(cls, domain), domain)

    def test_dimensions_do_not_increase(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 3)
            size = rng.randint(1, min(8, 2 ** (2 * n)))
            cls = random_class(rng, 2 * n, size)
            domain = AntipodalDomain.standard(n)
            sym = symmetrize(cls, domain)
            assert dimension(sym, V.PRIMAL) <= dimension(cls, V.PRIMAL)
            assert dimension(sym, V.DUAL_ANTIPODAL) <= dimension(
                cls, V.DUAL_ANTIPODAL
            )

    def test_antipodal_dual_equals_dual_antipodal(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 3)
            size = rng.randint(1, min(8, 2 ** (2 * n)))
            cls = random_class(rng, 2 * n, size)
            sym = symmetrize(cls, AntipodalDomain.standard(n))
            assert dimension(sym, V.DUAL) == dimension(sym, V.DUAL_ANTIPODAL)

    @given(st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=8))
    @settings(max_examples=60, derandomize=True)
    def test_symmetrize_idempotent(self, masks):
        cls = ConceptClass(6, tuple(PartialHypothesis.total(6, m) for m in sorted(masks)))
        domain = AntipodalDomain.standard(3)
        once = symmetrize(cls, domain)
        assert symmetrize(once, domain) == once


def restriction_extension_roundtrip_ok(cls, domain):
    """Check (H^r)^a = H for an antipodal class, under the canonical
    identification of the doubled representative domain with the original."""
    restricted, reps = representatives_restriction(cls, domain)
    ext, _ = antipodal_extension(restricted)
    k = len(reps)
    # identification: new point j is reps[j], new point k + j is its partner
    back = []
    for h in ext.hypotheses:
        plus = 0
        for j, x in enumerate(reps):
            if h.plus & (1 << j):
                plus |= 1 << x
            if h.plus & (1 << (k + j)):
                plus |= 1 << domain.pairing[x]
        back.append(plus)
    return back == [h.plus for h in cls.hypotheses]


class TestExtensionRestriction:
    def test_extension_is_antipodal_and_lossless(self):
        for cls in (cube(2), universal(3), family_class("threshold", 3)):
            ext, domain = antipodal_extension(cls)
            assert len(ext) == len(cls)
            assert is_antipodal_class(ext, domain)
            # (H^a)^r = H under the standard representation
            restricted, _ = representatives_restriction(ext, domain)
            assert restricted == cls

    def test_extension_preserves_dimensions(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            size = rng.randint(1, min(10, 2**n))
            cls = random_class(rng, n, size)
            ext, _ = antipodal_extension(cls)
            assert dimension(ext, V.PRIMAL) == dimension(cls, V.PRIMAL)
            assert dimension(ext, V.DUAL_ANTIPODAL) == dimension(
                cls, V.DUAL_ANTIPODAL
            )

    def test_restriction_roundtrip_on_antipodal_classes(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 3)
            size = rng.randint(1, min(8, 2**n))
            cls = random_class(rng, n, size)
            ext, domain = antipodal_extension(cls)
            assert restriction_extension_roundtrip_ok(ext, domain)

    def test_restriction_requires_antipodal(self):
        cls = ConceptClass.from_strings(["++", "--"])
        with pytest.raises(WitnessError):
            representatives_restriction(cls, AntipodalDomain.standard(1))

    def test_singleton_extension(self):
        ext, domain = antipodal_extension(ConceptClass.from_strings(["+-"]))
        assert len(ext) == 1
        assert is_antipodal_class(ext, domain)


class TestCheckDisambiguates:
    def test_full_antipodal_cube_on_square(self):
        template = make_crosspolytope(1)
        # all four antipodal sign assignments on the two pairs
        rows = []
        for a in "-+":
            for b in "-+":
                flip = {"+": "-", "-": "+"}
                rows.append(a + flip[a] + b + flip[b])
        # vertex order of the crosspolytope is (0,-),(0,+),(1,-),(1,+)
        cls = ConceptClass.from_strings(rows)
        d = Disambiguation(cls, template)
        report = check_disambiguates(d)
        assert report.ok and report.antipodal

    def test_missing_pattern_reported(self):
        template = make_crosspolytope(1)
        rows = ["-+-+", "-++-", "+--+"]  # one sign quadrant missing
        d = Disambiguation(ConceptClass.from_strings(rows), template)
        report = check_disambiguates(d)
        assert not report.ok
        assert report.failing_simplex is not None

    def test_vertex_mismatch_rejected(self):
        template = make_crosspolytope(1)
        with pytest.raises(ValueError):
            Disambiguation(ConceptClass.from_strings(["--+", "++-"]), template)


class TestMaximalCheck:
    TEMPLATES = (
        CrosspolytopeKind(0),
        CrosspolytopeKind(1),
        CrosspolytopeKind(2),
        BarycentricBoundaryKind(0),
        BarycentricBoundaryKind(1),
        JoinKind((CrosspolytopeKind(0), BarycentricBoundaryKind(1))),
        SubdividedKind(CrosspolytopeKind(1), 1),
    )

    @staticmethod
    def near_antipodal_class(rng, template):
        """Random rows antipodal under the template's involution, then up to
        three random rows, which make most classes non-antipodal."""
        inv = template.complex.involution
        n = len(inv)
        rows = set()
        for _ in range(rng.randint(1, 2 * n)):
            plus = 0
            for x, y in enumerate(inv):
                if (rng.random() < 0.5) if x < y else not plus >> y & 1:
                    plus |= 1 << x
            rows.add(plus)
        rows.update(rng.getrandbits(n) for _ in range(rng.randint(0, 3)))
        return ConceptClass(n, tuple(PartialHypothesis.total(n, p) for p in sorted(rows)))

    def test_agrees_with_closure_oracle(self):
        rng = random.Random(24)
        non_antipodal = covering = 0
        for kind in self.TEMPLATES:
            template = build_template(kind)
            for _ in range(600):
                d = Disambiguation(self.near_antipodal_class(rng, template), template)
                report = check_disambiguates(d)
                assert report.ok == closure_disambiguates(d), (kind, d.cls.rows())
                assert report.antipodal == is_antipodal_class(d.cls, d.domain)
                if not report.antipodal:
                    non_antipodal += 1
                    covering += report.ok
        print(f"non-antipodal {non_antipodal} of 4200, {covering} of them disambiguate")
        assert non_antipodal >= 2000
        assert covering >= 100

    def test_non_antipodal_class_checked_on_maximal_simplices(self):
        # crosspolytope 3 has 16 maximal simplices and 80 faces in all
        template = make_crosspolytope(3)
        inv = template.complex.involution
        antipodal = [
            sum(1 << x for x, y in enumerate(inv) if (x < y) == bool(signs >> (x // 2) & 1))
            for signs in range(16)
        ]
        rows = antipodal + [0]  # the all-minus row is not antipodal
        cls = ConceptClass(8, tuple(PartialHypothesis.total(8, p) for p in rows))
        report = check_disambiguates(Disambiguation(cls, template))
        assert report.ok and not report.antipodal
        assert report.simplices_checked == len(template.complex.maximal) == 16
        cls = ConceptClass(8, tuple(PartialHypothesis.total(8, p) for p in rows[1:]))
        report = check_disambiguates(Disambiguation(cls, template))
        assert not report.ok and not report.antipodal
        assert len(report.failing_simplex) == 4


class TestPullback:
    def test_cube_2_crosspolytope_pullback(self):
        w = crosspolytope_witness(cube(2), (0, 1))
        d = pullback_disambiguation(w)
        assert check_disambiguates(d).ok
        assert is_antipodal_class(d.cls, d.domain)
        assert len(d.cls) <= len(cube(2))

    def test_universal_3_hexagon_pullback(self):
        w = barycentric_witness(universal(3), (0, 1, 2))
        d = pullback_disambiguation(w)
        assert check_disambiguates(d).ok
        assert len(d.cls) <= 3

    def test_zero_sphere_pullback(self):
        w = crosspolytope_witness(cube(1), (0,))
        d = pullback_disambiguation(w)
        assert d.cls.domain_size == 2
        assert check_disambiguates(d).ok

    def test_invalid_witness_rejected(self):
        from spheredim.spheres import SphereWitness

        w = crosspolytope_witness(cube(2), (0, 1))
        broken = SphereWitness(w.template, w.vertex_map, w.cls, False)
        with pytest.raises(WitnessError):
            pullback_disambiguation(broken)

    def test_rows_equal_extension_oracle(self):
        classes = [
            family_class(name, n)
            for name, sizes in (
                ("cube", (1, 2, 3, 4)),
                ("universal", (2, 3, 4)),
                ("universal_plus", (2, 3)),
                ("threshold", (2, 5)),
                ("subsets_leq", (1, 2, 3)),
            )
            for n in sizes
        ]
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 7)
            classes.append(random_class(rng, n, rng.randint(2, min(12, 2**n))))
        witnesses = 0
        for cls in classes:
            analysis = ClassAnalysis(cls)
            for w in (analysis.crosspolytope, analysis.barycentric):
                if w is not None:
                    pulled = [h.plus for h in pullback_disambiguation(w).cls.hypotheses]
                    assert pulled == extension_pullback_rows(w), cls.rows()
                    witnesses += 1
        print(f"{witnesses} witnesses")
        assert witnesses >= 600

    def test_pullback_dimensions_bounded_by_source(self):
        for cls, wit in (
            (cube(2), crosspolytope_witness(cube(2), (0, 1))),
            (universal(3), barycentric_witness(universal(3), (0, 1, 2))),
            (universal(4), barycentric_witness(universal(4), (0, 1, 2, 3))),
        ):
            d = pullback_disambiguation(wit)
            assert dimension(d.cls, V.PRIMAL) <= dimension(cls, V.PRIMAL)
            assert dimension(d.cls, V.DUAL_ANTIPODAL) <= dimension(
                cls, V.DUAL_ANTIPODAL
            )


class TestSphereFromDisambiguation:
    def test_hand_built_square_disambiguation(self):
        template = make_crosspolytope(1)
        rows = []
        for a in "-+":
            for b in "-+":
                flip = {"+": "-", "-": "+"}
                rows.append(a + flip[a] + b + flip[b])
        d = Disambiguation(ConceptClass.from_strings(rows), template)
        w = sphere_from_disambiguation(d)
        assert w.dimension == 1
        assert w.embedded
        assert verify_witness(w)

    def test_non_antipodal_rejected(self):
        template = make_crosspolytope(0)
        d = Disambiguation(ConceptClass.from_strings(["++", "--"]), template)
        with pytest.raises(WitnessError):
            sphere_from_disambiguation(d)

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: crosspolytope_witness(cube(2), (0, 1)),
            lambda: crosspolytope_witness(cube(3), (0, 1, 2)),
            lambda: barycentric_witness(universal(3), (0, 1, 2)),
            lambda: barycentric_witness(universal(4), (0, 1, 2, 3)),
        ],
    )
    def test_roundtrip_preserves_dimension(self, maker):
        w = maker()
        d = pullback_disambiguation(w)
        back = sphere_from_disambiguation(d)
        assert back.dimension == w.dimension
        assert back.embedded
        assert verify_witness(back)
        # cover-size floor: a disambiguation needs at least dim + 2 concepts
        assert len(d.cls) >= w.dimension + 2
