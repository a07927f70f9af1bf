
import pytest

from gmforms.arith import is_probable_prime, primes_up_to
from gmforms.gm import (
    _closed_form,
    gm_norm,
    gm_norm_oracle,
    predict_congruences,
    scan_exponents,
)

G_73 = 9444732965601851473921
G_113 = 10384593717069655112945804582584321

ODD_PRIMES_601 = [p for p in primes_up_to(601) if p > 2]


class TestEpsilon:
    # The symbol (2/p) that _closed_form returns beside G_p.
    def test_examples(self):
        assert _closed_form(7)[0] == 1
        assert _closed_form(5)[0] == -1
        assert _closed_form(47)[0] == 1

    def test_mod8_rule(self):
        for p in ODD_PRIMES_601:
            assert _closed_form(p)[0] == (1 if p % 8 in (1, 7) else -1)

    def test_invalid_p(self):
        for bad in (1, 2, 4, 9):
            with pytest.raises(ValueError):
                predict_congruences(bad)


class TestGmNorm:
    def test_paper_values(self):
        assert gm_norm(7).value == 113
        assert gm_norm(47).value == 140737471578113
        assert gm_norm(73).value == G_73
        assert gm_norm(113).value == G_113

    def test_invalid_p(self):
        for bad in (1, 2, 15):
            with pytest.raises(ValueError):
                gm_norm(bad)

    def test_primality_field(self):
        assert gm_norm(7).primality == "proven-small"
        assert gm_norm(113).primality == "probable-prime"
        assert gm_norm(13).primality == "composite"  # G_13 = 8321 = 53 * 157

    def test_primality_matches_bpsw_oracle(self):
        for p in primes_up_to(1200)[1:]:
            norm = gm_norm(p)
            assert (norm.primality != "composite") == is_probable_prime(norm.value), p

    def test_prime_factors_are_one_mod_4p(self):
        # The premise of the 4kp + 1 sieve in gm_norm.
        small_primes = primes_up_to(10**4)[1:]
        checked = 0
        for p in primes_up_to(2000)[1:]:
            value = gm_norm_oracle(p)
            for q in small_primes:
                if q < value and value % q == 0:
                    assert q % (4 * p) == 1, (p, q)
                    checked += 1
        assert checked > 50
        # A mod-8 filter on q would be wrong: both factors of G_13 are 5 mod 8.
        assert 53 * 157 == gm_norm_oracle(13) and 53 % 8 == 157 % 8 == 5


class TestOracle:
    def test_examples(self):
        assert gm_norm_oracle(7) == 113
        assert gm_norm_oracle(3) == 13  # norm(-3 + 2i)
        assert gm_norm_oracle(113) == G_113

    def test_formula_matches_oracle(self):
        for p in ODD_PRIMES_601:
            assert gm_norm(p).value == gm_norm_oracle(p)


class TestCongruences:
    def test_mod8_all(self):
        for p in ODD_PRIMES_601:
            if p > 3:
                assert gm_norm(p).value % 8 == 1

    def test_mod16_mod32(self):
        for p in ODD_PRIMES_601:
            if p % 8 in (1, 7):
                assert gm_norm(p).value % 16 == 1
                if p > 7:
                    assert gm_norm(p).value % 32 == 1

    def test_mod7_gated(self):
        for p in ODD_PRIMES_601:
            if p % 8 not in (1, 7):
                continue
            expected = 1 if p % 6 == 1 else 4
            assert gm_norm(p).value % 7 == expected

    def test_predictions(self):
        assert predict_congruences(47)[7] == (4, 4, True)
        assert predict_congruences(73)[7] == (1, 1, True)
        # p = 5 has (2/5) = -1 and G_5 = 41 = 6 (mod 7): the mod-7 rule
        # must be marked not-applicable there.
        assert predict_congruences(5)[7] == (4, 6, False)
        assert gm_norm(5).value == 41 and 41 % 7 == 6

    def test_prediction_flags(self):
        table = predict_congruences(7)
        assert table[8] == (1, 1, True) and table[16] == (1, 1, True)
        assert table[32] == (None, 17, False)  # G_7 = 113
        assert predict_congruences(3)[8] == (None, 5, False)  # G_3 = 13

    def test_applicable_predictions_hold(self):
        for p in ODD_PRIMES_601:
            value = gm_norm_oracle(p)
            table = predict_congruences(p)
            assert list(table) == [8, 16, 32, 7]
            for modulus, (predicted, actual, applicable) in table.items():
                assert actual == value % modulus, (p, modulus)
                if applicable:
                    assert actual == predicted, (p, modulus)


class TestScan:
    def test_contains_paper_exponents(self):
        hits = {norm.p for norm in scan_exponents(3, 120)}
        assert {7, 47, 73, 113} <= hits
        assert {5, 11, 19, 29, 79} <= hits

    def test_inclusive_bounds(self):
        hits = {norm.p for norm in scan_exponents(48, 72)}
        assert 47 not in hits and 73 not in hits
        assert {norm.p for norm in scan_exponents(47, 73)} >= {47, 73}

    def test_deterministic(self):
        assert scan_exponents(3, 120) == scan_exponents(3, 120)

    def test_all_results_probable_prime(self):
        for norm in scan_exponents(3, 120):
            assert norm.primality in ("proven-small", "probable-prime")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            scan_exponents(10, 5)
        with pytest.raises(ValueError):
            scan_exponents(1, 10)
