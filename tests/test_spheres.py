"""Tests for sphere templates, witnesses, and spherical-dimension bounds."""

import dataclasses
import gc
import itertools
import random
from collections import Counter

import pytest

from spheredim import cli, complexes, concepts, disamb, extremal, signrank, spheres, storage
from spheredim.concepts import (
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
from spheredim.spheres import (
    BarycentricBoundaryKind,
    ClassAnalysis,
    CrosspolytopeKind,
    JoinKind,
    SphereTemplate,
    SphereWitness,
    SubdividedKind,
    WitnessError,
    barycentric_witness,
    build_template,
    crosspolytope_witness,
    join_witness,
    kind_from_payload,
    make_barycentric_boundary,
    make_crosspolytope,
    join_templates,
    sd_bounds,
    subdivide_template,
    verify_witness,
)

from oracles import complexes_isomorphic, face_counts

V = DimensionVariant


def cube(n):
    return family_class("cube", n)


def universal(n):
    return family_class("universal", n)


def threshold(d):
    return family_class("threshold", d)


class TestTemplates:
    def test_crosspolytope_structure(self):
        t = make_crosspolytope(2)
        assert t.dimension == 2
        assert len(t.complex.vertices) == 6
        assert len(t.complex.maximal) == 8

    def test_barycentric_boundary_structure(self):
        t = make_barycentric_boundary(1)
        assert t.dimension == 1
        assert face_counts(t.complex) == (6, 6)

    def test_barycentric_zero_sphere(self):
        t = make_barycentric_boundary(0)
        assert face_counts(t.complex) == (2,)

    def test_join_dimension_bookkeeping(self):
        j = join_templates(make_crosspolytope(0), make_crosspolytope(1))
        assert j.dimension == 2
        assert complexes_isomorphic(
            j.complex, make_crosspolytope(2).complex, respect_involution=True
        )

    def test_subdivided_template(self):
        t = subdivide_template(make_crosspolytope(1))
        assert t.dimension == 1
        assert face_counts(t.complex) == (8, 8)

    def test_payload_roundtrip(self):
        t = join_templates(make_crosspolytope(1), make_barycentric_boundary(0))
        back = build_template(kind_from_payload(t.kind_payload()))
        assert back == t
        assert build_template(t.kind) == t


def uncached_template(kind):
    """The oracle: the template a kind tree names, built from its leaves
    with no cache on any level."""
    if isinstance(kind, CrosspolytopeKind):
        return make_crosspolytope(kind.n)
    if isinstance(kind, BarycentricBoundaryKind):
        return make_barycentric_boundary(kind.n)
    if isinstance(kind, JoinKind):
        return join_templates(*(uncached_template(p) for p in kind.parts))
    return subdivide_template(uncached_template(kind.base), kind.depth)


SMALL_LEAVES = [CrosspolytopeKind(n) for n in range(3)] + [
    BarycentricBoundaryKind(n) for n in range(3)
]
CACHED_KINDS = (
    [CrosspolytopeKind(n) for n in range(5)]
    + [BarycentricBoundaryKind(n) for n in range(4)]
    + [JoinKind((a, b)) for a in SMALL_LEAVES for b in SMALL_LEAVES]
    + [JoinKind((CrosspolytopeKind(4), BarycentricBoundaryKind(0)))]
    + [JoinKind((BarycentricBoundaryKind(3), CrosspolytopeKind(0)))]
    + [SubdividedKind(k, depth) for k in SMALL_LEAVES for depth in (1, 2)]
    + [SubdividedKind(JoinKind((CrosspolytopeKind(0), CrosspolytopeKind(1))), 1)]
)


class TestTemplateCache:
    @pytest.mark.parametrize("kind", CACHED_KINDS, ids=repr)
    def test_cached_build_equals_an_uncached_one(self, kind):
        built = build_template(kind)
        assert built == uncached_template(kind)
        assert built.kind == kind
        assert build_template(kind) is built

    def test_join_of_other_than_two_parts_keeps_its_kind(self):
        c0 = CrosspolytopeKind(0)
        for kind in (JoinKind((c0,)), JoinKind((c0, c0, c0))):
            built = build_template(kind)
            assert built.kind == kind
            reference = make_crosspolytope(0)
            for _ in kind.parts[1:]:
                reference = join_templates(reference, make_crosspolytope(0))
            assert built.complex == reference.complex

    def test_constructors_share_the_held_template(self):
        a = crosspolytope_witness(cube(3), (0, 1, 2))
        b = crosspolytope_witness(cube(4), (1, 2, 3))
        assert b.template is a.template
        w, _ = join_witness(a, b)
        assert w.template is build_template(JoinKind((a.template.kind, b.template.kind)))

    @pytest.mark.parametrize("change", ["relabelled", "dropped pair"])
    def test_changed_complex_of_a_held_kind_fails_the_template_check(self, change):
        w = crosspolytope_witness(cube(2), (0, 1))
        complex_ = w.template.complex
        if change == "relabelled":
            # the join of two 0-spheres: the same masks under other labels
            other = build_template(JoinKind((CrosspolytopeKind(0), CrosspolytopeKind(0)))).complex
            assert other.maximal == complex_.maximal
            detail = "vertex set or involution differs"
        else:
            drop = complex_.maximal[0]
            pair = (drop, complex_.map_simplex(drop))
            kept = tuple(s for s in complex_.maximal if s not in pair)
            other = dataclasses.replace(complex_, maximal=kept)
            detail = "missing maximal simplex"
        template = SphereTemplate(w.template.kind, other)
        changed = SphereWitness(template, w.vertex_map, w.cls, True)
        report = verify_witness(changed)
        assert not report
        assert report.check == "template"
        assert report.detail.startswith(detail)
        assert build_template(w.template.kind) is w.template

    def test_a_template_lives_no_longer_than_its_holders(self):
        w = barycentric_witness(universal(4), (0, 1, 2, 3))
        kind = w.template.kind
        assert spheres._TEMPLATES[kind] is w.template
        del w
        gc.collect()
        assert kind not in spheres._TEMPLATES

    def test_load_builds_the_template_once(self, monkeypatch, tmp_path):
        storage.store(crosspolytope_witness(cube(3), (0, 1, 2)), tmp_path / "w.json")
        gc.collect()
        assert CrosspolytopeKind(2) not in spheres._TEMPLATES
        calls = count_calls(monkeypatch, ("make_crosspolytope", "_run_checks"))
        back = storage.load("witness", tmp_path / "w.json")
        assert verify_witness(back)
        assert calls == {"make_crosspolytope": 1, "_run_checks": 1}

    def test_a_template_built_elsewhere_is_checked_and_not_recorded(self):
        template = make_crosspolytope(1)
        w = crosspolytope_witness(cube(2), (0, 1))
        outside = SphereWitness(template, w.vertex_map, w.cls, True)
        assert verify_witness(outside)
        assert build_template(template.kind) is w.template


class TestCrosspolytopeWitness:
    def test_cube_3_full_witness(self):
        w = crosspolytope_witness(cube(3), (0, 1, 2))
        assert w.dimension == 2
        assert w.embedded
        assert verify_witness(w)

    def test_singleton_shattered_point(self):
        w = crosspolytope_witness(threshold(2), (0,))
        assert w.dimension == 0
        assert verify_witness(w)

    def test_unshattered_set_rejected(self):
        with pytest.raises(WitnessError):
            crosspolytope_witness(threshold(3), (0, 1))


class TestBarycentricWitness:
    def test_universal_3_hexagon(self):
        w = barycentric_witness(universal(3), (0, 1, 2))
        assert w.dimension == 1
        assert verify_witness(w)
        assert face_counts(w.template.complex) == (6, 6)

    def test_universal_2_zero_sphere(self):
        w = barycentric_witness(universal(2), (0, 1))
        assert w.dimension == 0
        assert verify_witness(w)

    def test_threshold_triple_rejected(self):
        with pytest.raises(WitnessError):
            barycentric_witness(threshold(3), (0, 1, 2))

    def test_universal_n_witness_dimension(self):
        for n in (3, 4, 5):
            w = barycentric_witness(universal(n), tuple(range(n)))
            assert w.dimension == n - 2
            assert verify_witness(w)


class TestJoinWitness:
    def test_two_shattered_singletons(self):
        a = crosspolytope_witness(cube(1), (0,))
        b = crosspolytope_witness(cube(1), (0,))
        w, product = join_witness(a, b)
        assert w.dimension == 1
        assert len(product) == 4
        assert verify_witness(w)

    def test_cube_2_squared(self):
        a = crosspolytope_witness(cube(2), (0, 1))
        w, product = join_witness(a, a)
        assert w.dimension == 3
        assert dimension(product, V.PRIMAL) == 4
        assert verify_witness(w)

    def test_universal_3_squared(self):
        a = barycentric_witness(universal(3), (0, 1, 2))
        w, product = join_witness(a, a)
        assert w.dimension == 3
        assert verify_witness(w)

    def test_invalid_input_rejected(self):
        a = crosspolytope_witness(cube(1), (0,))
        broken = SphereWitness(
            a.template, tuple(reversed(a.vertex_map)), a.cls, a.embedded
        )
        # reversing the map of a 0-sphere breaks equivariance pairing with itself
        if verify_witness(broken):
            broken = SphereWitness(a.template, a.vertex_map, a.cls, False)
        with pytest.raises(WitnessError):
            join_witness(broken, a)


class TestVerifyWitness:
    def test_sign_flip_mutation_reported(self):
        w = crosspolytope_witness(cube(2), (0, 1))
        vmap = list(w.vertex_map)
        vmap[0] = w.target.involution[vmap[0]]
        mutated = SphereWitness(w.template, tuple(vmap), w.cls, w.embedded)
        report = verify_witness(mutated)
        assert not report
        assert report.check in ("simplicial", "equivariance")

    def test_dropped_simplex_pair_reported(self):
        w = crosspolytope_witness(cube(2), (0, 1))
        complex_ = w.template.complex
        kept = list(complex_.maximal)
        drop = kept[0]
        partner = complex_.map_simplex(drop)
        kept = [s for s in kept if s not in (drop, partner)]
        from spheredim.complexes import AntipodalComplex
        from spheredim.spheres import SphereTemplate

        mutated_complex = AntipodalComplex(complex_.vertices, tuple(kept), complex_.involution)
        mutated = SphereWitness(
            SphereTemplate(w.template.kind, mutated_complex),
            w.vertex_map,
            w.cls,
            w.embedded,
        )
        report = verify_witness(mutated)
        assert not report
        assert report.check == "template"
        assert "missing" in report.detail

    def test_wrong_embedded_flag_reported(self):
        w = crosspolytope_witness(cube(2), (0, 1))
        mutated = SphereWitness(w.template, w.vertex_map, w.cls, False)
        report = verify_witness(mutated)
        assert not report
        assert report.check == "embedding"

    def test_transcript_on_success(self):
        w = crosspolytope_witness(cube(2), (0, 1))
        report = verify_witness(w)
        assert report.ok
        assert len(report.transcript) == 4


class TestKeptReport:
    def test_round_trip_checks_each_witness_once(self, monkeypatch, tmp_path):
        w = crosspolytope_witness(cube(3), (0, 1, 2))
        calls = count_calls(monkeypatch, ("_run_checks",))
        storage.store(w, tmp_path / "w.json")
        back = storage.load("witness", tmp_path / "w.json")
        assert verify_witness(back)
        w2 = disamb.sphere_from_disambiguation(disamb.pullback_disambiguation(back))
        assert verify_witness(w2)
        storage.store(w2, tmp_path / "sphere.json")
        # once for the loaded witness, once for the extracted sphere
        assert calls["_run_checks"] == 2

    def test_modified_copy_gets_its_own_report(self):
        w = crosspolytope_witness(cube(2), (0, 1))
        assert w.report.ok
        vmap = list(w.vertex_map)
        vmap[0] = w.target.involution[vmap[0]]
        flipped = dataclasses.replace(w, vertex_map=tuple(vmap))
        report = verify_witness(flipped)
        assert not report
        assert report.check in ("simplicial", "equivariance")
        assert verify_witness(w).ok

    def test_report_is_not_part_of_eq_hash_or_repr(self):
        read = crosspolytope_witness(cube(2), (0, 1))
        fresh = dataclasses.replace(read)
        assert read.report.ok
        assert "report" not in vars(fresh)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert "report" not in {f.name for f in dataclasses.fields(read)}


class TestWitnessOn:
    def test_pair_missing_from_the_target_is_a_witness_error(self):
        # point 1 of the class is constant, so (1, -) is no vertex
        template = build_template(CrosspolytopeKind(0))
        cls = ConceptClass.from_strings(["-+", "++"])
        with pytest.raises(WitnessError, match="vertex 0 has no image in the target"):
            spheres.witness_on(template, [(1, -1), (1, +1)], cls, True, "witness")


class TestSdBounds:
    def test_cube_families_exact(self):
        for n in range(1, 5):
            sb = sd_bounds(cube(n))
            assert (sb.lower, sb.upper) == (n - 1, n - 1)

    def test_singleton(self):
        sb = sd_bounds(ConceptClass.from_strings(["-+-"]))
        assert (sb.lower, sb.upper) == (-1, -1)

    def test_thresholds_pinned_to_zero(self):
        for d in (2, 3, 4):
            sb = sd_bounds(threshold(d))
            assert (sb.lower, sb.upper) == (0, 0)

    def test_universal_lower(self):
        for n in range(2, 6):
            sb = sd_bounds(universal(n))
            assert sb.lower == n - 2

    @pytest.mark.parametrize(
        "name, intervals",
        [
            ("universal", [(-1, -1), (0, 0), (1, 1), (2, 7), (3, 15)]),
            ("universal_plus", [(0, 0), (1, 3), (2, 7), (3, 15)]),
            ("subsets_leq", [(0, 0), (1, 2), (2, 3), (3, 4), (4, 5)]),
        ],
    )
    def test_named_family_intervals_pinned(self, name, intervals):
        # check data: a change to a bound changes these numbers, and says so
        got = []
        for n in range(1, len(intervals) + 1):
            sb = sd_bounds(family_class(name, n))
            got.append((sb.lower, sb.upper))
        assert got == intervals

    def test_universal_1_is_singleton(self):
        sb = sd_bounds(universal(1))
        assert (sb.lower, sb.upper) == (-1, -1)

    def test_lower_at_least_classic_bounds(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            size = rng.randint(2, min(16, 2**n))
            cls = ConceptClass(
                n,
                tuple(
                    PartialHypothesis.total(n, m)
                    for m in rng.sample(range(2**n), size)
                ),
            )
            sb = sd_bounds(cls)
            vc = dimension(cls, V.PRIMAL)
            vcda = dimension(cls, V.DUAL_ANTIPODAL)
            assert sb.lower <= sb.upper
            assert sb.lower >= vc - 1
            assert sb.lower >= vcda - 2
            for cert in sb.lower_certificates:
                if cert.witness is not None:
                    assert verify_witness(cert.witness)

    def test_low_vc_upper_bound(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(1, 6)
            size = rng.randint(2, 3)
            if size > 2**n:
                continue
            cls = ConceptClass(
                n,
                tuple(
                    PartialHypothesis.total(n, m)
                    for m in rng.sample(range(2**n), size)
                ),
            )
            if dimension(cls, V.PRIMAL) <= 1:
                assert sd_bounds(cls).upper <= 1

    def test_hexagon_certificate_for_nonthreshold(self):
        cls = ConceptClass.from_strings(["+--", "-+-", "--+"])
        sb = sd_bounds(cls)
        assert sb.lower == 1
        assert sb.upper == 1
        assert "hexagon" in [c.name for c in sb.lower_certificates]

    def test_certificate_names_present(self):
        sb = sd_bounds(cube(2))
        lower_names = [c.name for c in sb.lower_certificates]
        upper_names = [c.name for c in sb.upper_certificates]
        assert "crosspolytope" in lower_names
        assert "dimension bound" in upper_names


class TestSoundnessSweep:
    """Every total class on at most 3 points, and on 4 points one class per
    orbit of the cube's symmetries.  sd is monotone: a subclass H - h and a
    restriction H|S have their antipodal subcomplexes inside Delta_ant(H)
    equivariantly, so each certified lower bound of theirs is at most every
    sound upper bound of H.  No exact sd is needed."""

    @staticmethod
    def all_bounds():
        """sd_bounds of every total class on 1 to 3 points, keyed by the
        domain size and the set of '+' masks."""
        out = {}
        for n in (1, 2, 3):
            for chosen in range(1, 1 << (1 << n)):
                masks = frozenset(bits(chosen))
                cls = ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in sorted(masks)))
                out[n, masks] = sd_bounds(cls)
        return out

    def test_every_class_on_at_most_3_points(self):
        bounds = self.all_bounds()
        assert len(bounds) == 3 + 15 + 255
        for (n, masks), sb in bounds.items():
            assert sb.lower <= sb.upper
            for cert in sb.lower_certificates:
                if cert.witness is not None:
                    assert verify_witness(cert.witness), (n, sorted(masks), cert.name)
            if len(masks) > 1:
                for m in masks:
                    assert bounds[n, masks - {m}].lower <= sb.upper, (n, sorted(masks), m)
            # duplicate rows of a restriction collapse, as in a class
            for points in range(1, (1 << n) - 1):
                restricted = frozenset(
                    sum(1 << j for j, x in enumerate(bits(points)) if m >> x & 1)
                    for m in masks
                )
                sub = bounds[popcount(points), restricted]
                assert sub.lower <= sb.upper, (n, sorted(masks), points)
        loose = sum(sb.lower < sb.upper for (n, _), sb in bounds.items() if n == 3)
        assert loose == 122

    @staticmethod
    def cube_orbits():
        """The orbits of the nonempty classes on 4 points under the cube's
        384 symmetries (point permutations and per-point label flips), a
        class being the 16-bit mask of its concepts' '+' masks.  Returns the
        orbit representatives in increasing order, each the least mask of
        its orbit, and the representative of every mask.  Each symmetry acts
        on a class mask through two byte-lookup image tables."""
        pairs = []  # per symmetry, the image tables of the low and high byte
        for perm in itertools.permutations(range(4)):
            for flip in range(16):
                image = [mask_of(perm[x] for x in bits(v)) ^ flip for v in range(16)]
                pair = []
                for half in (image[:8], image[8:]):
                    table = [0] * 256
                    for byte in range(1, 256):
                        low = byte & -byte
                        table[byte] = table[byte ^ low] | 1 << half[low.bit_length() - 1]
                    pair.append(table)
                pairs.append(pair)
        rep = [0] * (1 << 16)
        reps = []
        for chosen in range(1, 1 << 16):
            if not rep[chosen]:
                reps.append(chosen)
                for lo, hi in pairs:
                    rep[lo[chosen & 255] | hi[chosen >> 8]] = chosen
        return reps, rep

    def test_every_class_on_4_points_up_to_symmetry(self):
        # every bound is invariant under the cube's symmetries, so one class
        # per orbit stands for its orbit, and a subclass or a restriction is
        # looked up through its orbit's representative.  H|S is read as the
        # class on 4 points that is '-' off S, whose antipodal subcomplex is
        # that of H|S, since a one-label point is no vertex of it
        reps, rep = self.cube_orbits()
        assert len(reps) == 401
        bounds = {}
        for chosen in reps:
            cls = ConceptClass(4, tuple(PartialHypothesis.total(4, m) for m in bits(chosen)))
            bounds[chosen] = sd_bounds(cls)
        for chosen, sb in bounds.items():
            assert sb.lower <= sb.upper
            for cert in sb.lower_certificates:
                if cert.witness is not None:
                    assert verify_witness(cert.witness), (chosen, cert.name)
            if chosen & (chosen - 1):
                for v in bits(chosen):
                    assert bounds[rep[chosen ^ 1 << v]].lower <= sb.upper, (chosen, v)
            for points in range(1, 15):
                restricted = mask_of(v & points for v in bits(chosen))
                assert bounds[rep[restricted]].lower <= sb.upper, (chosen, points)
        loose = [chosen for chosen, sb in bounds.items() if sb.lower < sb.upper]
        weight = Counter(rep[1:])
        print(f"loose sd intervals on 4 points: {len(loose)} of 401 orbits, "
              f"{sum(weight[c] for c in loose)} of 65535 classes")
        assert len(loose) == 374
        assert sum(weight[c] for c in loose) == 63502

    def test_seeded_classes_on_5_to_8_points(self):
        # 1,300 classes drawn from a fixed seed, chosen before any bound was
        # run on them: n = randint(5, 8) points and randint(2, 3n) distinct
        # random rows each.  A new bound changes the loose count and the
        # histogram of (lower, upper), which are pinned as check data
        rng = random.Random(2025)
        histogram = Counter()
        for _ in range(1300):
            n = rng.randint(5, 8)
            masks = rng.sample(range(1 << n), rng.randint(2, 3 * n))
            sb = sd_bounds(ConceptClass(n, tuple(PartialHypothesis.total(n, m) for m in masks)))
            assert sb.lower <= sb.upper, (n, masks)
            for cert in sb.lower_certificates:
                if cert.witness is not None:
                    assert verify_witness(cert.witness), (n, masks, cert.name)
            histogram[sb.lower, sb.upper] += 1
        loose = sum(count for (lower, upper), count in histogram.items() if lower < upper)
        print(f"loose sd intervals on 5 to 8 points: {loose} of 1300 classes")
        print("(lower, upper): count", dict(sorted(histogram.items())))
        assert loose == 1139
        assert histogram == {
            (0, 0): 102, (1, 1): 59, (1, 2): 4, (1, 3): 64, (1, 4): 192,
            (1, 5): 133, (1, 6): 65, (1, 7): 6, (2, 3): 4, (2, 4): 148,
            (2, 5): 197, (2, 6): 222, (2, 7): 86, (3, 6): 8, (3, 7): 10,
        }


# --- one analysis per class ----------------------------------------------


def count_calls(monkeypatch, names):
    """Count calls of the named library functions, wrapped under every
    module that holds them, as the functions themselves make them."""
    calls = dict.fromkeys(names, 0)
    for module in (cli, complexes, concepts, disamb, extremal, signrank, spheres, storage):
        for name in names:
            if name in vars(module):
                original = getattr(module, name)

                def wrapper(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
    return calls


def seeded_random_class():
    rng = random.Random(73)
    return ConceptClass(6, tuple(PartialHypothesis.total(6, m) for m in rng.sample(range(64), 14)))


ANALYSED = {
    "figure": ConceptClass.from_strings(["---", "-+-", "++-", "+--", "--+"]),
    "cube3": family_class("cube", 3),
    "random6x14": seeded_random_class(),
}


COMPLEX_BUILDERS = ("realizable_complex", "antipodal_subcomplex")

BUILDS_NO_COMPLEX = {
    **ANALYSED,
    "hexagon": ConceptClass.from_strings(["+--", "-+-", "--+"]),
    "single": ConceptClass.from_strings(["+-+"]),
    "threshold3": family_class("threshold", 3),
    "universal3": family_class("universal", 3),
}


class TestClassAnalysis:
    @pytest.mark.parametrize("name", sorted(ANALYSED))
    def test_report_computes_each_part_once(self, name, monkeypatch, tmp_path, capsys):
        calls = count_calls(
            monkeypatch, ("max_shattered_set", "dual_class", "is_extremal", "classify_low_vc")
        )
        path = tmp_path / "c.cls"
        path.write_text(format_class(ANALYSED[name]))
        assert cli.main(["report", str(path)]) == 0
        assert capsys.readouterr().out.startswith("class ")
        assert calls["max_shattered_set"] == 4
        assert calls["dual_class"] == 1
        assert calls["is_extremal"] == 1
        assert calls["classify_low_vc"] <= 1

    @pytest.mark.parametrize(
        "command, searches",
        [("report", 4), ("sd", 2), ("extremal", 1), ("dims", 4), ("witness", 2), ("classify", 0)],
    )
    def test_one_primal_search_per_class(self, command, searches, monkeypatch, tmp_path, capsys):
        # the shattered family is built once per class, the dual class
        # included, and kept with it, so VC, the Pajor count and the cubes
        # read one family; the antipodal searches keep their own level
        # searches, the rest of each command's searches
        families = {"report": 2, "sd": 1, "extremal": 1, "dims": 2, "witness": 1, "classify": 0}
        calls = count_calls(monkeypatch, ("_shattered_levels", "_monotone_family"))
        path = tmp_path / "c.cls"
        path.write_text(format_class(ANALYSED["figure"]))
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr().out
        assert calls["_shattered_levels"] == families[command]
        assert calls["_monotone_family"] == searches - families[command]

    @pytest.mark.parametrize("name", sorted(ANALYSED))
    def test_witness_builds_one_antipodal_subcomplex(self, name, monkeypatch, tmp_path, capsys):
        calls = count_calls(
            monkeypatch, COMPLEX_BUILDERS + ("crosspolytope_witness", "barycentric_witness")
        )
        path = tmp_path / "c.cls"
        path.write_text(format_class(ANALYSED[name]))
        assert cli.main(["witness", str(path)]) == 0
        assert '"kind": "witness"' in capsys.readouterr().out
        assert calls["antipodal_subcomplex"] == 1
        assert calls["realizable_complex"] == 0
        # only the chosen witness is built
        assert calls["crosspolytope_witness"] + calls["barycentric_witness"] == 1

    def test_witness_is_verified_twice(self, monkeypatch, tmp_path, capsys):
        # once by its constructor, once for the stored transcript; the
        # checks run on the first call, and the second reads the kept report.
        # The constructor and check (a) each ask for the template, which is
        # built once: check (a) gets the witness's own template back
        gc.collect()
        assert CrosspolytopeKind(2) not in spheres._TEMPLATES
        calls = count_calls(monkeypatch, ("verify_witness", "build_template", "make_crosspolytope"))
        path = tmp_path / "c.cls"
        path.write_text(format_class(ANALYSED["cube3"]))
        assert cli.main(["witness", str(path)]) == 0
        assert '"simplicial: ok"' in capsys.readouterr().out
        assert calls == {"verify_witness": 2, "build_template": 2, "make_crosspolytope": 1}

    @pytest.mark.parametrize("command", ["sd", "report", "classify"])
    @pytest.mark.parametrize("name", sorted(BUILDS_NO_COMPLEX))
    def test_sd_report_and_classify_build_no_complex(
        self, command, name, monkeypatch, tmp_path, capsys
    ):
        calls = count_calls(monkeypatch, COMPLEX_BUILDERS)
        path = tmp_path / "c.cls"
        path.write_text(format_class(BUILDS_NO_COMPLEX[name]))
        assert cli.main([command, str(path)]) == 0
        out = capsys.readouterr().out
        if name == "hexagon" and command != "classify":
            assert "hexagon" in out  # a lower certificate verified with no complex
        assert calls == dict.fromkeys(COMPLEX_BUILDERS, 0)

    @pytest.mark.parametrize("args", [["complex", "--antipodal"], ["witness"]])
    def test_complex_and_witness_still_build_the_antipodal_subcomplex(
        self, args, monkeypatch, tmp_path, capsys
    ):
        # from the class alone: neither builds the realizable complex
        calls = count_calls(monkeypatch, COMPLEX_BUILDERS)
        path = tmp_path / "c.cls"
        path.write_text(format_class(ANALYSED["cube3"]))
        assert cli.main(args + [str(path)]) == 0
        assert capsys.readouterr().out.startswith("{")
        assert calls == {"realizable_complex": 0, "antipodal_subcomplex": 1}

    @pytest.mark.parametrize("name", sorted(ANALYSED))
    def test_sd_bounds_of_a_class_and_of_its_analysis_agree(self, name):
        cls = ANALYSED[name]
        assert sd_bounds(ClassAnalysis(cls)) == sd_bounds(cls)

    def test_witness_choice(self):
        # universal 2: both constructions give dimension 0, and the tie
        # goes to the crosspolytope
        u2 = ClassAnalysis(family_class("universal", 2))
        assert isinstance(u2.witness().template.kind, CrosspolytopeKind)
        # universal 3: the barycentric witness is larger unless excluded
        u3 = ClassAnalysis(family_class("universal", 3))
        assert isinstance(u3.witness().template.kind, BarycentricBoundaryKind)
        assert u3.witness("crosspolytope").dimension == 0
        single = ClassAnalysis(ConceptClass.from_strings(["+-"]))
        assert single.witness() is None
        assert ClassAnalysis(family_class("threshold", 1)).witness("barycentric") is None
