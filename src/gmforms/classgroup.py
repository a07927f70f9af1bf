"""Binary quadratic forms of negative discriminant: reduction, Gauss
composition, class numbers, and class-group structure.

A form a*x^2 + b*x*y + c*y^2 is the tuple (a, b, c) of ints; it must be
primitive with a > 0 and b^2 - 4ac < 0.  Imprimitive input is rejected,
never silently divided down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import sqrt_mod_prime


def _check_form(f: tuple[int, int, int]) -> int:
    """The discriminant of f, once f is checked."""
    a, b, c = f
    if a <= 0:
        raise ValueError("form must have a > 0")
    disc = b * b - 4 * a * c
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if math.gcd(a, b, c) != 1:
        raise ValueError("form must be primitive")
    return disc


def _check_discriminant(d: int) -> None:
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and = 0 or 1 (mod 4)")


def _is_reduced(a: int, b: int, c: int) -> bool:
    return abs(b) <= a <= c and not (b < 0 and (a == -b or a == c))


def reduce(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """The unique reduced form equivalent to f (|b| <= a <= c, boundary b >= 0)."""
    _check_form(f)
    a, b, c = f
    while True:
        # Normalize: b -> b + 2ra into (-a, a]; r = 0 when b is there already.
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
        if a <= c:
            break
        a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return a, b, c


def principal_form(d: int) -> tuple[int, int, int]:
    """Identity class of discriminant d: (1, 0, -d/4) or (1, 1, (1-d)/4)."""
    _check_discriminant(d)
    if d % 4 == 0:
        return 1, 0, -d // 4
    return 1, 1, (1 - d) // 4


def inverse(f: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = f
    return reduce((a, -b, c))


def enumerate_reduced(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms of discriminant d, sorted by (a, b).

    The list length is the class number h(d).
    """
    _check_discriminant(d)
    forms = []
    a_max = math.isqrt(-d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if _is_reduced(a, b, c) and math.gcd(a, b, c) == 1:
                forms.append((a, b, c))
    return forms


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, x, y) with x*a + y*b = g = +-gcd(a, b); g < 0 is possible if b < 0.
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of form classes by Dirichlet's formula; returns the
    reduced composite (Buell, Binary Quadratic Forms, 4.2; Cohen, A Course in
    Computational Algebraic Number Theory, 5.4.2).

    With D the discriminant, s = (b1 + b2)/2, u*a1 + v*a2 = gcd(a1, a2) and
    e = gcd(a1, a2, s) = x*(u*a1 + v*a2) + w*s, the composite is
    (a3, b3, (b3^2 - D)/(4*a3)) with a3 = a1*a2/e^2 and
    b3 = (x*(u*a1*b2 + v*a2*b1) + w*(b1*b2 + D)/2)/e mod 2*a3.
    Flipping the signs of e, x and w together leaves it unchanged.
    """
    disc = _check_form(f)
    if _check_form(g) != disc:
        raise ValueError("discriminants must match")
    (a1, b1, _), (a2, b2, _) = f, g
    e1, u, v = _xgcd(a1, a2)
    e, x, w = _xgcd(e1, (b1 + b2) // 2)
    a3 = a1 * a2 // (e * e)
    b3 = (x * (u * a1 * b2 + v * a2 * b1) + w * ((b1 * b2 + disc) // 2)) // e % (2 * a3)
    return reduce((a3, b3, (b3 * b3 - disc) // (4 * a3)))


def form_pow(f: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    """k-th power of a class under composition, k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    result = principal_form(_check_form(f))
    base = f
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


@dataclass(frozen=True)
class ClassGroupSummary:
    discriminant: int
    h: int
    cyclic_orders: list[int]  # invariant factors, largest first
    has_order_4_element: bool
    forms: list[list[int]]  # [a, b, c] of each reduced form, sorted by (a, b)


def group_structure(d: int) -> ClassGroupSummary:
    """Class number and invariant-factor decomposition of the form class group.

    In Z/k1 x ... x Z/kr, n(m) = prod gcd(m, ki) elements satisfy x^m = 1.
    Counted from the element orders for each divisor m of h, the largest factor
    is the exponent e, the least m with n(m) = n(h); n(m) // gcd(m, e) counts
    the rest, so the split repeats while n(h) > 1.  Each order divides h, so a
    form whose first h powers miss the identity raises ArithmeticError.
    """
    forms = enumerate_reduced(d)
    h = len(forms)
    identity = principal_form(d)
    orders = []
    for f in forms:
        k, power = 1, f
        while power != identity:
            if k == h:
                raise ArithmeticError(f"first h = {h} powers of {f} miss the identity")
            power = compose(power, f)
            k += 1
        orders.append(k)
    divisors = [m for m in range(1, h + 1) if h % m == 0]
    counts = [sum(1 for k in orders if m % k == 0) for m in divisors]
    factors = []
    while counts[-1] > 1:
        factors.append(e := divisors[counts.index(counts[-1])])
        counts = [n // math.gcd(m, e) for m, n in zip(divisors, counts)]
    return ClassGroupSummary(
        discriminant=d,
        h=h,
        cyclic_orders=factors or [1],
        has_order_4_element=any(k % 4 == 0 for k in factors),
        forms=[list(f) for f in forms],
    )


def represented_by_class(n: int, d: int) -> set[tuple[int, int, int]]:
    """Reduced form classes of discriminant d that represent the prime n.

    One class (and its inverse) per square root of d mod 4n; empty when d is
    a non-residue mod n.  Requires gcd(n, 2d) = 1.
    """
    _check_discriminant(d)
    if n < 3 or math.gcd(n, 2 * d) != 1:
        raise ValueError("need odd prime n with gcd(n, 2d) = 1")
    r = sqrt_mod_prime(d % n, n)
    if r is None:
        return set()
    classes = set()
    for root in {r, n - r}:
        b = root if (root - d) % 2 == 0 else root + n  # match parity of d
        c = (b * b - d) // (4 * n)
        classes.add(reduce((n, b, c)))
    return classes
