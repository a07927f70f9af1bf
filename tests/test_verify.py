import pytest

from gmforms import verify
from gmforms.verify import (
    VERDICT_CONFIRMED,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_OUT_OF_RANGE,
    VERDICT_REFUTED,
    artin_class_d7,
    audit_d_2d,
    audit_generalized,
    audit_lemma,
    audit_theorem_d7,
    mersenne_crosscheck,
    run_suite,
)

G_47 = 140737471578113


class TestAuditLemma:
    def test_g7_row(self):
        checks = audit_lemma(1, 4, 113)
        assert checks.all_pass()

    def test_g47_row(self):
        checks = audit_lemma(5732351, 3925696, G_47)
        assert checks.all_pass()
        assert 5732351 % 8 == 7 and 3925696 % 8 == 0

    def test_negative_control(self):
        checks = audit_lemma(3, 2, 37)
        assert not checks.x_pm1_mod8

    def test_identity_enforced(self):
        with pytest.raises(ValueError):
            audit_lemma(1, 4, 114)


class TestArtin:
    def test_examples(self):
        assert artin_class_d7(5732351, 3925696) == "trivial"
        assert artin_class_d7(1, 4) == "rho"  # p = 7, outside the p > 7 regime
        assert artin_class_d7(8, 3) == "trivial"  # Mersenne control M_7 = 127


class TestTheoremD7:
    def test_p47_confirmed(self):
        record = audit_theorem_d7(47)
        assert record.verdict == VERDICT_CONFIRMED
        assert (record.x_mod8, record.y_mod8) == (7, 0)
        assert record.artin_trivial

    def test_p113_confirmed_with_paper_values(self):
        record = audit_theorem_d7(113)
        assert record.verdict == VERDICT_CONFIRMED
        assert record.representation.x == 79288509938147361
        assert record.representation.y == 24195412519312600

    def test_p11_hypothesis_not_met(self):
        record = audit_theorem_d7(11)
        assert record.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert not record.hypothesis_flags.p_mod8_ok
        assert not record.hypothesis_flags.legendre_minus_d_gp

    def test_p7_out_of_range(self):
        record = audit_theorem_d7(7)
        assert record.verdict == VERDICT_OUT_OF_RANGE
        assert record.representation is not None and record.y_mod8 == 4

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            audit_theorem_d7(5)


class TestGeneralized:
    def test_d7_matches_theorem_audit(self):
        assert audit_generalized(47, 7) == audit_theorem_d7(47)

    def test_d55_flags(self):
        record = audit_generalized(47, 55)
        # (2/55) = (2/5)(2/11) = +1 by the second supplement.
        assert record.hypothesis_flags.legendre_2_d

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            audit_generalized(47, 9)  # 9 = 9 (mod 24)
        with pytest.raises(ValueError):
            audit_generalized(47, 175)  # 175 = 7 (mod 24) but 5^2 | 175


class TestD2D:
    def test_p7_disagrees(self):
        record = audit_d_2d(7, 7)
        assert (record.rep_d, record.rep_2d, record.equivalent) == (True, False, False)

    def test_p47_agrees(self):
        record = audit_d_2d(47, 7)
        assert record.rep_d and record.rep_2d


class TestMersenneCrosscheck:
    def test_p7(self):
        record = mersenne_crosscheck(7)
        assert (record.x, record.y) == (8, 3)
        assert (record.x_mod8, record.y_mod8) == (0, 3)

    def test_p13(self):
        record = mersenne_crosscheck(13)
        assert record.m_value == 8191
        assert record.x_mod8 == 0 and record.y_mod8 in (3, 5)

    def test_composite_skipped(self):
        assert mersenne_crosscheck(37) is None  # 2^37 - 1 = 223 * 616318177

    def test_composite_exponent_skipped_without_test(self, monkeypatch):
        def fail(p):
            raise AssertionError(f"Lucas-Lehmer run for composite p = {p}")

        monkeypatch.setattr(verify, "lucas_lehmer", fail)
        for p in (4, 10, 25, 49):
            assert mersenne_crosscheck(p) is None

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError):
            mersenne_crosscheck(11)  # 11 = 2 (mod 3)


class TestRunSuite:
    def test_small_suite(self):
        records, summary = run_suite(120, [7])
        confirmed = [r.p for r in records if r.verdict == VERDICT_CONFIRMED]
        assert confirmed == [47, 73, 79, 113]
        assert summary["refuted"] == 0
        assert summary["out-of-theorem-range"] == 1  # p = 7

    def test_deterministic_and_parallel_equivalent(self):
        first = run_suite(120, [7])
        second = run_suite(120, [7])
        parallel = run_suite(120, [7], workers=4)
        assert first == second == parallel

    def test_confirmed_record_invariants(self, suite_600_d7):
        records, _ = suite_600_d7
        for r in records:
            if r.verdict != VERDICT_CONFIRMED:
                continue
            rep = r.representation
            assert rep.x**2 + r.d * rep.y**2 == r.g_value
            assert r.x_mod8 in (1, 7) and r.y_mod8 == 0
            assert r.artin_trivial and artin_class_d7(rep.x, rep.y) == "trivial"

    def test_lemma_holds_on_every_representation(self, suite_600_d7):
        # The elementary congruence lemma (x odd, x = +-1 mod 8, 4 | y) holds
        # on every solved instance, including the ones refuting the 8 | y claim.
        records, _ = suite_600_d7
        for r in records:
            if r.representation is not None:
                assert audit_lemma(r.representation.x, r.representation.y,
                                   r.g_value).all_pass(), r.p

    def test_counterexamples_to_eight_divides_y(self, suite_600_d7):
        # Frozen regression data: the audited claim fails at exactly these
        # exponents below 600.  Independently cross-checked (primality and
        # representation values) against sympy at build time.
        records, summary = suite_600_d7
        refuted = {r.p for r in records if r.verdict == VERDICT_REFUTED}
        assert refuted == {239, 353, 457}
        assert summary["refuted"] == 3
        for r in records:
            if r.verdict == VERDICT_REFUTED:
                assert r.hypothesis_flags.all_pass()
                assert r.y_mod8 == 4

    def test_mersenne_gaussian_dual_pattern(self, suite_600_d7):
        records, _ = suite_600_d7
        gaussian_confirmed = [r for r in records if r.verdict == VERDICT_CONFIRMED]
        assert gaussian_confirmed
        for r in gaussian_confirmed:
            assert r.x_mod8 in (1, 7) and r.y_mod8 == 0
        for p in (7, 13, 19, 31):
            record = mersenne_crosscheck(p)
            if record is not None:
                assert record.x_mod8 == 0 and record.y_mod8 in (3, 5)

    def test_invalid_pmax(self):
        with pytest.raises(ValueError):
            run_suite(5, [7])
