"""Tests for sign-rank certificate verification and products."""

import dataclasses
import random
from fractions import Fraction

import pytest

from spheredim import signrank, storage
from spheredim.concepts import ConceptClass, family_class
from spheredim.signrank import (
    AMBIGUITY_THRESHOLD,
    SignRepresentation,
    product_representation,
    representation_from_payload,
    representation_payload,
    universal_representation,
    verify_representation,
)


def universal(n):
    return family_class("universal", n)


def oracle_first_violation(cls, rep):
    """The per-pair check with the generator dot product that
    ``verify_representation`` replaced: (hypothesis, point, reason word) of
    the first violation, or None."""
    exact = rep.is_exact
    for j, h in enumerate(cls.hypotheses):
        for x in range(cls.domain_size):
            dot = sum(a * b for a, b in zip(rep.hyp_vectors[j], rep.point_vectors[x]))
            if (dot == 0) if exact else (abs(dot) < AMBIGUITY_THRESHOLD):
                return j, x, "ambiguous"
            if (dot > 0) != bool(h.plus >> x & 1):
                return j, x, "wrong"
    return None


class TestVerify:
    @pytest.mark.parametrize("entries", ["int", "fraction", "float", "mixed"])
    def test_against_the_generator_dot_product(self, entries):
        # small random entries: the sums land on both sides of zero, on it
        # and, exact or not, strictly inside the ambiguity threshold, so
        # verified, ambiguous and wrong-sign reports all occur
        rng = random.Random(f"dot:{entries}")
        fraction = lambda: Fraction(rng.randint(-3, 3), rng.choice([1, 4, 10**6]))
        real = lambda: rng.choice([0.0, 1e-10, -1e-10, 0.1, -0.3, 1.7])
        draw = {
            "int": lambda: rng.randint(-2, 2),
            "fraction": fraction,
            "float": real,
            "mixed": lambda: rng.choice([fraction, real])(),
        }[entries]
        for _ in range(200):
            n, m, d = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
            masks = rng.sample(range(1 << n), min(m, 1 << n))
            cls = ConceptClass.from_strings(
                ["".join("+" if p >> x & 1 else "-" for x in range(n)) for p in masks]
            )
            rep = SignRepresentation(
                d,
                tuple(tuple(draw() for _ in range(d)) for _ in range(n)),
                tuple(tuple(draw() for _ in range(d)) for _ in masks),
            )
            report = verify_representation(cls, rep)
            want = oracle_first_violation(cls, rep)
            if want is None:
                assert report.ok and report.reason == "verified"
            else:
                j, x, word = want
                assert (report.ok, report.hypothesis, report.point) == (False, j, x)
                assert report.reason.startswith(word)

    def test_universal_certificates(self):
        for n in range(1, 7):
            rep = universal_representation(n)
            assert verify_representation(universal(n), rep)

    def test_zeroed_entry_is_ambiguous(self):
        rep = universal_representation(3)
        points = list(rep.point_vectors)
        points[1] = (0, points[1][1], points[1][2])
        broken = SignRepresentation(3, tuple(points), rep.hyp_vectors)
        report = verify_representation(universal(3), broken)
        assert not report
        assert "ambiguous" in report.reason

    def test_constant_class_dimension_one(self):
        cls = ConceptClass.from_strings(["-", "+"])
        rep = SignRepresentation(1, ((1,),), ((-1,), (1,)))
        assert verify_representation(cls, rep)

    def test_wrong_sign_located(self):
        cls = ConceptClass.from_strings(["-", "+"])
        rep = SignRepresentation(1, ((1,),), ((1,), (1,)))
        report = verify_representation(cls, rep)
        assert not report
        assert report.hypothesis == 0 and report.point == 0

    def test_rational_certificate_exact(self):
        cls = ConceptClass.from_strings(["-+"])
        rep = SignRepresentation(
            1,
            ((Fraction(-1, 3),), (Fraction(1, 7),)),
            ((Fraction(2, 5),),),
        )
        assert verify_representation(cls, rep)

    def test_exact_zero_is_violation_even_if_tiny_float_would_pass(self):
        cls = ConceptClass.from_strings(["+"])
        rep = SignRepresentation(1, ((Fraction(0),),), ((1,),))
        assert not verify_representation(cls, rep)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_representation(universal(2), universal_representation(3))


class TestKeptReports:
    def count_checks(self, monkeypatch):
        calls = []
        original = signrank._check_representation

        def counted(cls, rep):
            calls.append(cls)
            return original(cls, rep)

        monkeypatch.setattr(signrank, "_check_representation", counted)
        return calls

    def test_each_class_checked_once(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        rep = universal_representation(3)
        first = verify_representation(universal(3), rep)
        # an equal class built anew reads the same kept report
        assert verify_representation(universal(3), rep) is first
        assert first.ok and len(calls) == 1
        # another class of the same shape gets its own report
        other = ConceptClass.from_strings(["+" * 8, "-" * 8, "+-" * 4])
        assert not verify_representation(other, rep)
        assert len(calls) == 2
        assert set(rep.reports) == {universal(3), other}

    def test_modified_copy_is_checked_afresh(self, monkeypatch):
        rep = universal_representation(3)
        assert verify_representation(universal(3), rep)
        flipped = tuple(-v for v in rep.hyp_vectors[0])
        broken = dataclasses.replace(rep, hyp_vectors=(flipped,) + rep.hyp_vectors[1:])
        calls = self.count_checks(monkeypatch)
        assert not verify_representation(universal(3), broken)
        assert len(calls) == 1
        assert verify_representation(universal(3), rep)

    def test_reports_are_not_part_of_eq_hash_or_repr(self):
        read = universal_representation(2)
        fresh = universal_representation(2)
        verify_representation(universal(2), read)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)

    def test_loaded_representation_is_not_checked_again(self, monkeypatch, tmp_path):
        cls = universal(3)
        path = tmp_path / "rep.json"
        storage.store(universal_representation(3), path, cls=cls)
        calls = self.count_checks(monkeypatch)
        rep = storage.load("representation", path, cls=cls)
        assert verify_representation(cls, rep)
        assert len(calls) == 1


class TestProduct:
    def test_universal_3_squared(self):
        rep_a = universal_representation(3)
        rep, product = product_representation(
            universal(3), rep_a, universal(3), rep_a
        )
        assert rep.dimension == 6
        assert verify_representation(product, rep)

    def test_with_constant_class(self):
        cls = ConceptClass.from_strings(["-", "+"])
        one = SignRepresentation(1, ((1,),), ((-1,), (1,)))
        rep, product = product_representation(universal(2), universal_representation(2), cls, one)
        assert rep.dimension == 3
        assert verify_representation(product, rep)

    def test_unverified_input_rejected(self):
        cls = ConceptClass.from_strings(["-", "+"])
        bad = SignRepresentation(1, ((1,),), ((1,), (1,)))
        with pytest.raises(ValueError):
            product_representation(cls, bad, cls, bad)


class TestSdUpperHook:
    def test_sign_rank_upper_feeds_bounds(self):
        from spheredim.spheres import sd_bounds

        sb = sd_bounds(universal(3), universal_representation(3))
        assert "sign-rank bound" in [c.name for c in sb.upper_certificates]
        assert sb.upper <= 2

    def test_unverified_representation_adds_no_bound(self):
        from spheredim.spheres import sd_bounds

        rep = universal_representation(3)
        flipped = tuple(-v for v in rep.hyp_vectors[0])
        broken = SignRepresentation(3, rep.point_vectors, (flipped,) + rep.hyp_vectors[1:])
        # rejected outright, so no "sign-rank bound" can reach the interval
        with pytest.raises(ValueError, match="unverified sign representation: wrong sign"):
            sd_bounds(universal(3), broken)


class TestPayload:
    def test_roundtrip(self):
        cls = universal(2)
        rep = universal_representation(2)
        payload = representation_payload(cls, rep)
        back = representation_from_payload(cls, payload)
        assert back == rep
        assert verify_representation(cls, back)

    def test_fraction_encoding(self):
        cls = ConceptClass.from_strings(["-+"])
        rep = SignRepresentation(
            1, ((Fraction(-1, 3),), (Fraction(1, 7),)), ((Fraction(2, 5),),)
        )
        payload = representation_payload(cls, rep)
        assert payload["w"]["-+"] == [[2, 5]]
        back = representation_from_payload(cls, payload)
        assert back == rep
