import random

import pytest

from gmforms.arith import is_probable_prime, primes_up_to
from gmforms.gm import (
    GaussianInt,
    epsilon,
    gm_norm,
    gm_norm_oracle,
    predict_congruences,
    scan_exponents,
)

G_73 = 9444732965601851473921
G_113 = 10384593717069655112945804582584321

ODD_PRIMES_601 = [p for p in primes_up_to(601) if p > 2]


class TestGaussianInt:
    def test_norm_multiplicative(self):
        rng = random.Random(6)
        for _ in range(500):
            z = GaussianInt(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
            w = GaussianInt(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
            assert (z * w).norm() == z.norm() * w.norm()

    def test_pow_matches_repeated_multiplication(self):
        z = GaussianInt(1, 1)
        acc = GaussianInt(1, 0)
        for k in range(12):
            assert z.pow(k) == acc
            acc = acc * z

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            GaussianInt(1, 1).pow(-1)


class TestEpsilon:
    def test_examples(self):
        assert epsilon(7) == 1
        assert epsilon(5) == -1
        assert epsilon(47) == 1

    def test_mod8_rule(self):
        for p in ODD_PRIMES_601:
            assert epsilon(p) == (1 if p % 8 in (1, 7) else -1)

    def test_invalid_p(self):
        for bad in (1, 2, 4, 9):
            with pytest.raises(ValueError):
                epsilon(bad)


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

    def test_conjugate_generator_same_norm(self):
        for p in (3, 7, 29, 113, 601):
            z = GaussianInt(1, 1).pow(p) - GaussianInt(1, 0)
            w = GaussianInt(1, -1).pow(p) - GaussianInt(1, 0)
            assert z.norm() == w.norm()


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
        pred = predict_congruences(47)
        assert pred.mod7 == 4 and pred.applicable["mod7"]
        pred = predict_congruences(73)
        assert pred.mod7 == 1 and pred.applicable["mod7"]
        # p = 5 has epsilon = -1 and G_5 = 41 = 6 (mod 7): the mod-7 rule
        # must be marked not-applicable there.
        pred = predict_congruences(5)
        assert not pred.applicable["mod7"]
        assert gm_norm(5).value == 41 and 41 % 7 == 6

    def test_prediction_flags(self):
        pred = predict_congruences(7)
        assert pred.applicable["mod8"] and pred.applicable["mod16"]
        assert not pred.applicable["mod32"]
        pred = predict_congruences(3)
        assert not pred.applicable["mod8"]


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
