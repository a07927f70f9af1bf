import builtins
import math
import random

import pytest

from bpsw import baillie_psw, strong_lucas_probable_prime, strong_probable_prime
from gmforms import arith
from gmforms.arith import (
    _fold_mod,
    _lucas_v,
    _squarings,
    is_probable_prime,
    jacobi,
    lucas_lehmer,
    primes_up_to,
    proth_test,
    sqrt_mod_prime,
)

G_47 = 140737471578113

#: OEIS A057429 (Gaussian Mersenne prime exponents) up to 1367.
A057429 = (3, 5, 7, 11, 19, 29, 47, 73, 79, 113, 151, 157, 163, 167, 239, 241,
           283, 353, 367, 379, 457, 997, 1367)


#: The square-free d = 7 (mod 24) below 200.
D_7_MOD_24 = (7, 31, 55, 79, 103, 127, 151, 199)


def g_value(p):
    # G_p by its closed formula, with (2/p) from p mod 8.
    eps = 1 if p % 8 in (1, 7) else -1
    return (1 << p) - eps * (1 << (p + 1) // 2) + 1


def m_value(p):
    return (1 << p) - 1


def tonelli_shanks(a, p):
    # Independent oracle (Tonelli, 1891; Shanks, 1973) for a residue a mod an
    # odd prime p: canonical root min(r, p - r).
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


@pytest.fixture(autouse=True)
def bounded_folds(monkeypatch):
    # Every fold arith runs must keep its output inside its contract.  A fold
    # that does not lets the operands grow at each squaring, so the tests
    # that use it would hang instead of failing.
    fold_mod = arith._fold_mod

    def checked_fold_mod(n):
        fold = fold_mod(n)
        if fold is None:
            return None
        limit = 1 << (n.bit_length() + 2)

        def checked(x):
            y = fold(x)
            assert abs(y) < limit, f"{n.bit_length()}-bit n, {y.bit_length()}-bit fold"
            return y

        return checked

    monkeypatch.setattr(arith, "_fold_mod", checked_fold_mod)


@pytest.fixture
def fold_all_sizes(monkeypatch):
    # Lower the crossover so that the fold runs at every size tested.
    monkeypatch.setattr(arith, "_FOLD_MIN_BITS", 0)


@pytest.fixture
def pow_calls(monkeypatch):
    # The argument tuples of every builtin pow call made inside arith.
    calls = []

    def spy(*args):
        calls.append(args)
        return builtins.pow(*args)

    monkeypatch.setattr(arith, "pow", spy, raising=False)
    return calls


SPECIAL_MODULI = {
    **{f"G_{p}": g_value(p) for p in (1367, 1999, 3041)},  # eps = +1
    **{f"G_{p}": g_value(p) for p in (997, 1373)},  # eps = -1
    **{f"M_{p}": m_value(p) for p in (607, 4423)},  # h = 1, eps = +1
}


#: (k, n) of the two folded shapes: 2^k - eps*2^((k+1)/2) + 1, where
#: k = 139 has h = 70, the least h folded, and 2^k - 1, with k >= 70.
FOLD_MODULI = {
    **{name: (int(name[2:]), n) for name, n in SPECIAL_MODULI.items()},
    "k139+": (139, (1 << 139) - (1 << 70) + 1),
    "k139-": (139, (1 << 139) + (1 << 70) + 1),
    "M_139": (139, m_value(139)),
}


def assert_not_prime(exc, n):
    # Exactly the failed-proof error: no subclass, ZeroDivisionError included.
    assert type(exc) is ArithmeticError and str(exc) == f"{n} is not prime", (exc, n)


def exponentiations(n):
    # Run proth_test when n has Proth form, and the p = 3 (mod 4) root when n
    # has that residue, each checked against builtin pow; return the
    # (base, exponent, modulus) of each builtin pow they make without a fold.
    expected = []
    if is_proth_form(n):
        a = 2
        while jacobi(a, n) == 1:
            a += 1
        euler = builtins.pow(a, (n - 1) // 2, n)
        assert proth_test(n) == (jacobi(a, n) == -1 and euler == n - 1), n
        if jacobi(a, n) == -1:
            expected.append((a, (n - 1) // 2, n))
    if n % 4 == 3:
        for a in (4, random.Random(n).randrange(n) ** 2 % n):
            r = builtins.pow(a, (n + 1) // 4, n)
            try:
                assert sqrt_mod_prime(a, n) == min(r, n - r) and r * r % n == a, n
            except ArithmeticError as exc:
                assert_not_prime(exc, n)
                assert r * r % n != a, n
            expected.append((a, (n + 1) // 4, n))
    return expected


class TestPowmod:
    """Modular powering by folded squaring chains, against builtin pow: the
    shift-and-add fold behind proth_test, sqrt_mod_prime and lucas_lehmer,
    and the _squarings chain of the first two."""

    @pytest.mark.parametrize("name", SPECIAL_MODULI)
    def test_special_forms_match_pow(self, name, fold_all_sizes):
        # The squaring chain, up to the k - 2 squares of the M_k root.
        n = SPECIAL_MODULI[name]
        k = n.bit_length()
        fold = arith._fold_mod(n)
        assert fold is not None
        rng = random.Random(name)
        for x in (0, 1, n - 1, -(n - 1), -7, rng.randrange(n)):
            for j in (0, 1, 2, 3, 70):
                assert _squarings(x, j, fold) % n == pow(x, 1 << j, n), (x, j)
        x = rng.randrange(n)
        assert _squarings(x, k - 2, fold) % n == pow(x, 1 << (k - 2), n)

    @pytest.mark.parametrize("name", SPECIAL_MODULI)
    def test_fold_is_a_short_residue(self, name, fold_all_sizes):
        n = SPECIAL_MODULI[name]
        fold = _fold_mod(n)
        rng = random.Random(name)
        for x in [0, 1, -1, n, -n, (n - 1) ** 2, -(n - 1) ** 2] + [
                rng.randrange(-(n * n) << 4, (n * n) << 4) for _ in range(200)]:
            y = fold(x)
            assert (x - y) % n == 0 and y.bit_length() <= n.bit_length() + 2, x

    @pytest.mark.parametrize("name", FOLD_MODULI)
    def test_gp_fold_matches_mod(self, name, fold_all_sizes):
        # Either fold on inputs up to 2^(2k+70), negative ones too.
        k, n = FOLD_MODULI[name]
        fold = _fold_mod(n)
        top = 1 << (2 * k + 70)
        rng = random.Random(name)
        edges = [top - 1, 1 << (2 * k), (1 << (2 * k)) - 1, (1 << (2 * k)) + (1 << 70),
                 (n - 1) ** 2, (1 << (k + 2)) ** 2, n, 1, 0]
        for x in edges + [-x for x in edges] + [
                rng.randrange(-top, top) >> rng.randrange(2 * k + 70) for _ in range(300)]:
            y = fold(x)
            assert (x - y) % n == 0 and abs(y) < 1 << (k + 2), x

    @pytest.mark.parametrize("name", FOLD_MODULI)
    def test_gp_fold_bounded_under_squaring(self, name, fold_all_sizes):
        k, n = FOLD_MODULI[name]
        fold = _fold_mod(n)
        # Starts at both ends of the fold's output range.
        for start in ((1 << (k + 2)) - 1, -(1 << (k + 1)) - (1 << ((k + 3) // 2))):
            x = start
            for _ in range(500):
                x = fold(x * x)
                assert abs(x) < 1 << (k + 2)
            assert x % n == pow(start, 1 << 500, n)

    @pytest.mark.parametrize("name", SPECIAL_MODULI)
    def test_chain_folds_each_square(self, name, fold_all_sizes, monkeypatch, pow_calls):
        n = SPECIAL_MODULI[name]
        folds = []
        fold_mod = arith._fold_mod

        def counted(m):
            fold = fold_mod(m)
            return lambda x: folds.append(x) or fold(x)

        monkeypatch.setattr(arith, "_fold_mod", counted)
        for j in (0, 1, 5, 70):
            folds.clear()
            _squarings(-7, j, arith._fold_mod(n))
            assert len(folds) == j
        # Proth on G_p: two chains of m - 1 = (p - 1)/2 squares.  The M_k root:
        # one chain of k - 2 squares.  Neither calls builtin pow.
        folds.clear()
        assert exponentiations(n)
        p = int(name[2:])
        assert len(folds) == (p - 1 if name.startswith("G") else 2 * (p - 2)) and pow_calls == []

    def test_only_two_shapes_fold(self, fold_all_sizes, pow_calls):
        folded = [m_value(k) for k in (70, 71, 139, 521)] + [
            (1 << k) - eps * (1 << (k + 1) // 2) + 1 for k in (139, 141, 521) for eps in (1, -1)]
        for n in folded:
            fold = arith._fold_mod(n)
            assert fold is not None, n
            for x in (0, 1, n - 1, -7):
                for j in (0, 1, 2, 12):
                    assert _squarings(x, j, fold) % n == builtins.pow(x, 1 << j, n), (x, j, n)
            pow_calls.clear()
            exponentiations(n)
            assert pow_calls == [], n
        others = [m_value(k) + s for k in (139, 521) for s in (2, -2)]
        for k in (139, 140, 521):
            others.append((1 << k) + 1)
            others += [(1 << k) - eps * (1 << h) + 1 for h in (2, 70, k // 2, k // 2 + 2, k - 1)
                       for eps in (1, -1) if 2 * h != k + 1]
        others += [(1 << 139) - (1 << 69) + 1, (1 << 139) + (1 << 69) + 1]
        # Both shapes one bit short of the 70-bit margin.
        others += [m_value(69), (1 << 137) - (1 << 69) + 1, (1 << 137) + (1 << 69) + 1]
        taken = 0
        for n in others:
            assert _fold_mod(n) is None, n
            pow_calls.clear()
            expected = exponentiations(n)
            assert pow_calls == expected, n
            taken += len(expected)
        assert taken >= 10

    def test_other_moduli_take_builtin_pow(self, fold_all_sizes, pow_calls):
        proth = 1234567 * 2**800 + 1  # Proth, but 1234567 is no 2^j +- 1
        odd = random.Random(7).randrange(1 << 1500) | 3
        for n in (proth, odd):
            assert _fold_mod(n) is None
            pow_calls.clear()
            expected = exponentiations(n)
            assert len(expected) == (1 if n == proth else 2) and pow_calls == expected

    def test_short_moduli_take_builtin_pow(self):
        bits = arith._FOLD_MIN_BITS
        assert _fold_mod(m_value(bits - 1)) is None
        assert _fold_mod(m_value(bits)) is not None

    def test_one_fold_built_per_chain(self, monkeypatch):
        # Proth's two chains and the M_k root's one each share a single fold.
        built = []
        fold_mod = arith._fold_mod

        def counted(n):
            built.append(n)
            return fold_mod(n)

        monkeypatch.setattr(arith, "_fold_mod", counted)
        n = SPECIAL_MODULI["G_1367"]
        assert proth_test(n)
        assert built == [n]
        built.clear()
        m = SPECIAL_MODULI["M_607"]
        r = sqrt_mod_prime(-7, m)
        assert r is not None and (r * r + 7) % m == 0
        assert built == [m]


#: Moduli for _lucas_v, prime and composite: three with no fold at any
#: size (101, 91 and G_13 = 53 * 157, whose h = 7), both shapes at the
#: margin (k = 139), and full-size G_p and M_p.
LUCAS_MODULI = {
    "101": 101, "91": 91, "k139+": (1 << 139) - (1 << 70) + 1,
    "k139-": (1 << 139) + (1 << 70) + 1, "M_127": m_value(127), "M_139": m_value(139),
    "G_997": g_value(997), "G_13": g_value(13), "M_607": m_value(607), "M_611": m_value(611),
}


class TestLucasV:
    @pytest.mark.parametrize("folds", (True, False), ids=("fold", "no-fold"))
    @pytest.mark.parametrize("name", LUCAS_MODULI)
    def test_matches_recurrence(self, name, folds, monkeypatch):
        n = LUCAS_MODULI[name]
        monkeypatch.setattr(arith, "_FOLD_MIN_BITS", 0 if folds else 1 << 20)
        shaped = name not in ("101", "91", "G_13")
        assert (_fold_mod(n) is not None) == (folds and shaped)
        rng = random.Random(name)
        for c in (0, 2, n - 1, -(n - 1), rng.randrange(n), -rng.randrange(n)):
            prev, v = 2, c % n  # V_0, V_1
            for m in range(1, 301):
                after = (c * v - prev) % n
                assert _lucas_v(c, m, n) % n == v, (c, m)
                prev, v = v, after


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 7) == 1
        assert jacobi(-7, G_47) == 1
        assert jacobi(6, 9) == 0
        assert jacobi(15, 35) == 0

    def test_even_or_zero_n_rejected(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)
        with pytest.raises(ValueError):
            jacobi(3, 0)

    def test_multiplicativity(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randrange(1, 10**6) * 2 + 1
            a = rng.randrange(-10**6, 10**6)
            b = rng.randrange(-10**6, 10**6)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_euler_criterion(self):
        rng = random.Random(4)
        for p in primes_up_to(10**4):
            if p == 2:
                continue
            for a in (2, -1, rng.randrange(0, p), rng.randrange(0, 10**9)):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi(a, p) == (euler if euler <= 1 else -1)

    def test_second_supplement(self):
        for n in range(1, 500, 2):
            expected = 1 if n % 8 in (1, 7) else -1
            assert jacobi(2, n) == expected


class TestSqrtModPrime:
    def test_examples(self):
        assert sqrt_mod_prime(0, 113) == 0
        r = sqrt_mod_prime(106, 113)
        assert r is not None and r <= 56 and r * r % 113 == 106
        # 106 = -7 mod 113 is a residue: 113 = 1^2 + 7*4^2
        assert sqrt_mod_prime(3, 7) is None

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            sqrt_mod_prime(1, 8)

    def test_exhaustive_small_primes(self):
        for p in primes_up_to(500):
            if p == 2:
                continue
            squares = {a * a % p for a in range(p)}
            for a in range(p):
                r = sqrt_mod_prime(a, p)
                if a in squares:
                    assert r is not None and r * r % p == a
                    assert r <= (p - 1) // 2
                else:
                    assert r is None
                    assert jacobi(a, p) == -1

    def test_big_prime(self):
        r = sqrt_mod_prime((-7) % G_47, G_47)
        assert r is not None and r * r % G_47 == (-7) % G_47

    def test_agrees_with_tonelli_shanks(self):
        rng = random.Random(6)
        for p in primes_up_to(2000)[1:]:
            for a in {1, 2, p - 1} | {rng.randrange(1, p) for _ in range(12)}:
                if pow(a, (p - 1) // 2, p) == 1:
                    assert sqrt_mod_prime(a, p) == tonelli_shanks(a, p), (a, p)

    def test_every_residue_one_mod_4(self):
        # Mueller's branch on every residue of every p = 1 (mod 4) below 600.
        for p in primes_up_to(600):
            if p % 4 == 1:
                for a in range(1, p):
                    expected = tonelli_shanks(a, p) if pow(a, (p - 1) // 2, p) == 1 else None
                    assert sqrt_mod_prime(a, p) == expected, (a, p)

    def test_discriminant_zero_is_skipped(self):
        # a*t^2 = 4 has (a*t^2 - 4 / p) = 0, so t is passed over.
        for p in [q for q in primes_up_to(2000) if q % 4 == 1] + [g_value(997), g_value(1367)]:
            assert sqrt_mod_prime(4, p) == 2
            for t in (2, 3):
                root = 2 * pow(t, -1, p) % p
                assert sqrt_mod_prime(root * root % p, p) == min(root, p - root)

    def test_composite_moduli_raise_not_prime(self):
        # An odd composite non-square n gives a true root, None or the
        # ArithmeticError "n is not prime", never another error: also where
        # the first t with (a*t^2 - 4 / n) = -1 shares a factor with n and
        # has no inverse.
        shared = 0
        for n in range(15, 400, 2):
            if is_probable_prime(n) or math.isqrt(n) ** 2 == n:
                continue
            for a in range(1, n):
                t = 1
                if n % 4 == 1 and jacobi(a, n) == 1:
                    while jacobi(a * t * t - 4, n) != -1:
                        t += 1
                if math.gcd(t, n) > 1:
                    shared += 1
                    with pytest.raises(ArithmeticError) as info:
                        sqrt_mod_prime(a, n)
                    assert_not_prime(info.value, n)
                    continue
                try:
                    r = sqrt_mod_prime(a, n)
                except ArithmeticError as exc:
                    assert_not_prime(exc, n)
                    continue
                assert r is None or (r * r % n == a and r <= (n - 1) // 2), (a, n)
        assert shared > 100
        with pytest.raises(ArithmeticError) as info:
            sqrt_mod_prime(2, 65)  # first t = 5
        assert_not_prime(info.value, 65)

    @pytest.mark.parametrize("p", A057429)
    def test_gaussian_mersenne_roots_match_euler(self, p):
        g = g_value(p)
        for d in D_7_MOD_24:
            r = sqrt_mod_prime(-d, g)
            if pow(-d, (g - 1) // 2, g) == 1:
                assert r is not None and r <= (g - 1) // 2, (p, d)
                assert r * r % g == (-d) % g, (p, d)
            else:
                assert r is None, (p, d)

    def test_g_3041(self):
        # 2-adic valuation of G_3041 - 1 is 1521: out of Tonelli-Shanks' reach.
        g = g_value(3041)
        r = sqrt_mod_prime(-7, g)
        assert r is not None and r <= (g - 1) // 2 and r * r % g == g - 7

    def test_composite_modulus_rejected(self):
        # A failed proof, not bad input: no `except ValueError` may catch it.
        # (2/65) = 1, yet 2 is a square neither mod 5 nor mod 13; every unit
        # mod 9 has Jacobi symbol 1, and 2 is not a square mod 9.
        for n in (65, 9):
            with pytest.raises(ArithmeticError) as info:
                sqrt_mod_prime(2, n)
            assert not isinstance(info.value, ValueError)
            assert_not_prime(info.value, n)


#: OEIS A014233: psi_k, the least odd composite that is a strong probable
#: prime to each of the first k prime bases, k = 1..12 (psi_7 = psi_8 and
#: psi_9 = psi_10 = psi_11).
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051, 318665857834031151167461)
#: Carmichael numbers: 7 divides the first three; the rest are Chernick's
#: (6k+1)(12k+1)(18k+1), every factor above 1000.
CARMICHAEL = (5394826801, 232250619601, 9746347772161, 9624742921, 11346205609)
#: Strong base-2 pseudoprimes p*(2p - 1) and p*(4p - 3) with p > 1000.
SPSP2 = (2284453, 5489641, 8725753, 4863127, 6787327, 8095447)


class TestIsProbablePrime:
    def test_examples(self):
        assert is_probable_prime(113)
        assert is_probable_prime(G_47)
        assert is_probable_prime(2113)  # G_11
        assert not is_probable_prime(2047)  # 2^11 - 1 = 23 * 89

    def test_agrees_with_sieve(self):
        for limit in (0, 1, 2, 10**6):
            primes = [n for n in range(limit + 1) if is_probable_prime(n)]
            assert primes_up_to(limit) == primes, limit

    def test_large_values(self):
        # Past psi_13 the library has no exact test; the oracle takes these.
        g_113 = 10384593717069655112945804582584321
        assert baillie_psw(g_113)
        assert not baillie_psw(g_113 * 113)
        assert not baillie_psw((1 << 128) - 1)
        with pytest.raises(ValueError, match="psi_13"):
            is_probable_prime(g_113)
        # Trial division still decides an n with a factor below 1000.
        assert not is_probable_prime(g_113 * 113)
        assert not is_probable_prime((1 << 128) - 1)
        # Perfect squares above 2^64 exercise the Lucas pre-screen.
        square = ((1 << 40) + 15) ** 2
        assert not baillie_psw(square) and not is_probable_prime(square)

    def test_refused_from_psi_13(self):
        # psi_13 = q * (2q - 1) is a strong probable prime to all 13 bases,
        # so the bound is strict: it raises and never returns True.
        q = 1287836182261
        psi_13 = q * (2 * q - 1)
        assert psi_13 == 3317044064679887385961981
        small = primes_up_to(1000)
        past = next(n for n in range(psi_13 + 2, psi_13 + 10**4, 2)
                    if all(n % r for r in small))
        for n in (psi_13, past):
            with pytest.raises(ValueError, match=f"^{n} is not below psi_13 = {psi_13},"):
                is_probable_prime(n)
        below = psi_13 - 168  # the largest prime below psi_13
        assert is_probable_prime(below) and baillie_psw(below)
        assert not is_probable_prime(below + 2)

    def test_between_trial_division_and_2_64(self):
        assert is_probable_prime((1 << 61) - 1)
        assert is_probable_prime((1 << 64) - 59)  # the largest prime below 2^64
        assert not is_probable_prime((1 << 64) - 57)
        for n in A014233 + CARMICHAEL + SPSP2:
            assert not is_probable_prime(n), n

    def test_strong_lucas_rejects_base_2_pseudoprimes(self):
        # Past trial division these pass the base-2 half, so the Lucas half
        # alone rejects them: psi_3 and psi_5..psi_12 (psi_12 > 2^64).
        survivors = [n for n in A014233 + SPSP2
                     if all(n % q for q in primes_up_to(1000))]
        assert len(survivors) == 12
        for n in survivors:
            assert strong_probable_prime(n), n
            assert not strong_lucas_probable_prime(n), n

    def test_strong_lucas_rejects_composite_gaussian_mersenne_norms(self):
        # Every G_p passes the base-2 half: with G_p - 1 = 2^m * k, k odd,
        # p | k, and G_p divides 2^(2p) + 1, so 2^(2k) = -1 (mod G_p).  On
        # G_p, Baillie-PSW rests on its Lucas half alone.
        composite = [p for p in primes_up_to(400) if p > 2 and p not in A057429]
        assert len(composite) == 57
        for p in composite:
            g = (1 << p) - jacobi(2, p) * (1 << (p + 1) // 2) + 1
            assert strong_probable_prime(g), p
            assert not strong_lucas_probable_prime(g), p


#: OEIS A217255, the strong Lucas pseudoprimes (Selfridge's parameters)
#: below 2*10^5.
A217255 = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
           75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
           162133, 176399, 176471, 189419, 192509, 197801)


class TestStrongLucas:
    def test_verdicts_below_2e5(self):
        # Every odd n: the primes pass, and of the composites exactly A217255.
        primes = set(primes_up_to(2 * 10**5)) - {2}
        passed = {n for n in range(1, 2 * 10**5, 2) if strong_lucas_probable_prime(n)}
        assert primes <= passed
        assert sorted(passed - primes) == list(A217255)


def is_proth_form(n):
    # Independent of proth_test's bit tricks: strip factors of 2 one by one.
    if n < 3:
        return False
    k, m = n - 1, 0
    while k % 2 == 0:
        k //= 2
        m += 1
    return k < 2**m


class TestProthTest:
    def test_examples(self):
        assert proth_test(3) and proth_test(13) and proth_test(113)
        assert proth_test(G_47)
        assert proth_test(9) is False  # a square
        assert not proth_test(8321)  # G_13 = 53 * 157

    def test_square_rejected_before_base_search(self, monkeypatch):
        # (a/n) = 1 for every unit a mod a square n, so the search for a base
        # with (a/n) = -1 would walk up to n's least prime factor.
        calls = []

        def counting_jacobi(a, n):
            calls.append(a)
            return jacobi(a, n)

        monkeypatch.setattr(arith, "jacobi", counting_jacobi)
        assert proth_test((2**64 + 1) ** 2) is False
        assert calls == []
        assert proth_test((2**128 + 1) ** 2) is False  # least prime ~ 6e16

    def test_agrees_with_sieve(self):
        primes = set(primes_up_to(10**5))
        proth = [n for n in range(10**5) if is_proth_form(n)]
        assert len(proth) > 400
        for n in proth:
            assert proth_test(n) == (n in primes), n

    def test_non_proth_rejected(self):
        for n in range(-2, 2000):
            if not is_proth_form(n):
                with pytest.raises(ValueError):
                    proth_test(n)
        with pytest.raises(ValueError):
            proth_test((1 << 128) - 1)


class TestLucasLehmer:
    def test_examples(self):
        assert lucas_lehmer(3) and lucas_lehmer(7) and lucas_lehmer(127)
        assert not lucas_lehmer(11)  # 2047 = 23 * 89
        assert not lucas_lehmer(9)  # composite exponent

    def test_even_or_small_p_rejected(self):
        for bad in (-1, 0, 1, 2, 4):
            with pytest.raises(ValueError):
                lucas_lehmer(bad)

    def test_agrees_with_bpsw_oracle(self):
        for p in primes_up_to(1300)[1:]:
            assert lucas_lehmer(p) == baillie_psw((1 << p) - 1), p
