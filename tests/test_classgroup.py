import math
import random

import pytest

from gmforms.arith import primes_up_to
from gmforms.classgroup import (
    compose,
    enumerate_reduced,
    form_pow,
    group_structure,
    inverse,
    principal_form,
    reduce,
    represented_by_class,
)
from gmforms.represent import cornacchia


def reduced_forms_oracle(d):
    # Independent double loop over (a, b); intentionally structured
    # differently from enumerate_reduced.
    found = set()
    bound = 0
    while 3 * bound * bound <= -d:
        bound += 1
    for b in range(-bound, bound + 1):
        a = max(abs(b), 1)
        while 4 * a * a <= b * b - d or a == abs(b):
            if a >= abs(b) and (b * b - d) % (4 * a) == 0:
                c = (b * b - d) // (4 * a)
                if a <= c and math.gcd(math.gcd(a, b), c) == 1:
                    if not (b < 0 and (a == c or a == abs(b))):
                        found.add((a, b, c))
            a += 1
    return found


def random_valid_form(rng):
    while True:
        a = rng.randrange(1, 60)
        b = rng.randrange(-120, 121)
        c = rng.randrange(1, 120)
        if not -10**5 <= b * b - 4 * a * c < 0:
            continue
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        return a, b, c


def random_sl2_image(f, rng):
    # f taken through a random word in T^k: (x, y) -> (x + k*y, y) and
    # S: (x, y) -> (-y, x), both in SL2(Z), so the class is unchanged.
    a, b, c = f
    for _ in range(rng.randrange(1, 6)):
        k = rng.randrange(-5, 6)
        a, b, c = a, b + 2 * k * a, a * k * k + b * k + c
        if rng.random() < 0.5:
            a, b, c = c, -b, a
    return a, b, c


def represents(f, n):
    # Exhaustive search: 4*a*n = (2*a*x + b*y)^2 + |D|*y^2 bounds |y|.
    a, b, c = f
    d = 4 * a * c - b * b
    y_max = math.isqrt(4 * a * n // d)
    for y in range(-y_max, y_max + 1):
        t = 4 * a * n - d * y * y
        r = math.isqrt(t)
        if r * r == t and any((s - b * y) % (2 * a) == 0 for s in (r, -r)):
            return True
    return False


class TestReduce:
    def test_examples(self):
        assert reduce((1, 0, 14)) == (1, 0, 14)
        assert reduce((14, 0, 1)) == (1, 0, 14)
        assert reduce((3, 2, 5)) == (3, 2, 5)

    def test_invalid_forms(self):
        with pytest.raises(ValueError):
            reduce((2, 0, 2))  # imprimitive
        with pytest.raises(ValueError):
            reduce((1, 5, 1))  # positive discriminant
        with pytest.raises(ValueError):
            reduce((-1, 0, -14))

    def test_idempotent_and_discriminant_preserving(self):
        rng = random.Random(8)
        for _ in range(10**4):
            f = random_valid_form(rng)
            (a, b, c), (ra, rb, rc) = f, reduce(f)
            assert abs(rb) <= ra <= rc and not (rb < 0 and (ra == -rb or ra == rc))
            assert reduce((ra, rb, rc)) == (ra, rb, rc)
            assert rb * rb - 4 * ra * rc == b * b - 4 * a * c


class TestEnumerate:
    def test_examples(self):
        assert enumerate_reduced(-28) == [(1, 0, 7)]
        assert enumerate_reduced(-8) == [(1, 0, 2)]
        assert set(enumerate_reduced(-56)) == {
            (1, 0, 14), (2, 0, 7),
            (3, 2, 5), (3, -2, 5),
        }
        assert enumerate_reduced(-7) == [(1, 1, 2)]

    def test_invalid_discriminant(self):
        for bad in (-6, -9, 0, 5):
            with pytest.raises(ValueError):
                enumerate_reduced(bad)

    def test_matches_double_loop_oracle(self):
        for d in range(-4000, 0):
            if d % 4 not in (0, 1):
                continue
            forms = enumerate_reduced(d)
            assert set(forms) == reduced_forms_oracle(d), d
            assert forms == sorted(forms)


class TestCompose:
    def test_identity_law(self):
        for d in (-56, -84, -7, -120):
            e = principal_form(d)
            for g in enumerate_reduced(d):
                assert compose(e, g) == reduce(g)

    def test_inverse_pair(self):
        assert compose((3, 2, 5), (3, -2, 5)) == (1, 0, 14)

    def test_square_of_order_four_element(self):
        assert compose((3, 2, 5), (3, 2, 5)) == (2, 0, 7)

    def test_mismatched_discriminants(self):
        with pytest.raises(ValueError):
            compose((1, 0, 14), (1, 0, 7))

    @pytest.mark.parametrize("d", [-56, -28, -84, -120, -924])
    def test_cayley_table(self, d):
        forms = enumerate_reduced(d)
        e = principal_form(d)
        table = {(f, g): compose(f, g) for f in forms for g in forms}
        # Closure, commutativity, inverses.
        for (f, g), fg in table.items():
            assert fg in forms
            assert fg == table[(g, f)]
        for f in forms:
            assert compose(f, inverse(f)) == e
        # Full associativity check.
        for f in forms:
            for g in forms:
                for h in forms:
                    assert compose(table[(f, g)], h) == compose(f, table[(g, h)])

    @pytest.mark.parametrize("d", [-56, -84, -420, -924, -1056])
    def test_composite_represents_product_of_first_coefficients(self, d):
        # Fixes the law itself, not only up to isomorphism: f represents
        # f[0] and g represents g[0], so their composite represents f[0]*g[0].
        forms = enumerate_reduced(d)
        for f in forms:
            for g in forms:
                assert represents(compose(f, g), f[0] * g[0]), (f, g)

    @pytest.mark.parametrize("d", [-56, -84, -420, -924, -1056, -8424])
    def test_non_reduced_inputs(self, d):
        rng = random.Random(d)
        forms = enumerate_reduced(d)
        for f in forms:
            for g in forms:
                ff, gg = random_sl2_image(f, rng), random_sl2_image(g, rng)
                assert reduce(ff) == f and reduce(gg) == g
                assert compose(ff, gg) == compose(f, g), (ff, gg)
                assert compose(ff, g) == compose(f, gg) == compose(f, g)
            ff = random_sl2_image(f, rng)
            assert inverse(ff) == inverse(f)
            assert form_pow(ff, 5) == form_pow(f, 5)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            form_pow((3, 2, 5), -1)


class TestTupleSurface:
    def test_forms_are_int_triples(self):
        f = (3, 2, 5)
        for g in (reduce((14, 0, 1)), compose(f, f), inverse(f), form_pow(f, 3),
                  principal_form(-56), *enumerate_reduced(-56),
                  *represented_by_class(113, -56)):
            assert type(g) is tuple and len(g) == 3, g
            assert all(type(x) is int for x in g), g

    def test_summary_lists_the_enumerated_forms(self):
        # h and the factors recorded for d = 4015 in perfbench/expected.json.
        s = group_structure(-8 * 4015)
        assert (s.h, s.cyclic_orders) == (80, [20, 2, 2])
        assert s.forms == [list(f) for f in enumerate_reduced(-8 * 4015)]


class TestGroupStructure:
    def test_examples(self):
        s = group_structure(-56)
        assert (s.h, s.cyclic_orders, s.has_order_4_element) == (4, [4], True)
        s = group_structure(-28)
        assert (s.h, s.cyclic_orders, s.has_order_4_element) == (1, [1], False)
        s = group_structure(-84)
        assert (s.h, s.cyclic_orders, s.has_order_4_element) == (4, [2, 2], False)
        for d, factors in ((-420, [2, 2, 2]), (-1056, [4, 2, 2]), (-1872, [4, 4]),
                           (-3080, [8, 2, 2]), (-3536, [8, 4]),
                           (-8 * 4015, [20, 2, 2]), (-8 * 4879, [16, 2, 2]),
                           (-8 * 5359, [16, 4]), (-8 * 4471, [24, 4]),
                           (-8 * 4807, [32, 2, 2])):
            s = group_structure(d)
            assert (s.h, s.cyclic_orders) == (math.prod(factors), factors), d
            assert s.has_order_4_element == (factors[0] % 4 == 0)

    def test_order_loop_bounded_by_h(self, stuck_compose):
        # Each order divides h = 4, so compose runs at most 3 times per form.
        with pytest.raises(ArithmeticError, match="h = 4"):
            group_structure(-56)
        assert len(stuck_compose) == 3

    def test_invariant_factors_consistent(self):
        for d in range(-1000, -2):
            if d % 4 not in (0, 1):
                continue
            s = group_structure(d)
            assert s.h == len(enumerate_reduced(d))
            product = 1
            for k in s.cyclic_orders:
                product *= k
            assert product == s.h
            # Invariant factors: each divides the previous (largest first).
            for big, small in zip(s.cyclic_orders, s.cyclic_orders[1:]):
                assert big % small == 0
            exponent = s.cyclic_orders[0]
            forms, e = enumerate_reduced(d), principal_form(d)
            for f in forms:
                assert form_pow(f, exponent) == e
            # Orders fix the group: in Z/k1 x ... x Z/kr, exactly
            # prod gcd(m, k) elements have order dividing m.
            for m in range(1, exponent + 1):
                if exponent % m == 0:
                    killed = sum(1 for f in forms if form_pow(f, m) == e)
                    assert killed == math.prod(math.gcd(m, k) for k in s.cyclic_orders)


class TestRepresentedByClass:
    def test_examples(self):
        assert represented_by_class(113, -28) == {(1, 0, 7)}
        classes_56 = represented_by_class(113, -56)
        assert classes_56 and (1, 0, 14) not in classes_56
        classes_3 = represented_by_class(3, -56)
        assert classes_3 and (1, 0, 14) not in classes_3

    def test_ramified_rejected(self):
        with pytest.raises(ValueError):
            represented_by_class(7, -56)
        with pytest.raises(ValueError):
            represented_by_class(2, -56)

    def test_principal_class_matches_representable(self):
        for d in (7, 14, 31, 62):
            principal = principal_form(-4 * d)
            for n in primes_up_to(10**4):
                if n < 3 or math.gcd(n, 8 * d) != 1:
                    continue
                by_class = principal in represented_by_class(n, -4 * d)
                assert by_class == (cornacchia(n, d) is not None), (n, d)
