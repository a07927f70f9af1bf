"""Audit pipeline: instantiate the congruence theorems on concrete Gaussian
Mersenne (and control Mersenne) primes and emit structured verdicts.

Verdicts: "confirmed" means hypotheses hold, a representation exists, and the
residues match.  "REFUTED" is reserved for the loud case where hypotheses and
representation are fine but the residues are wrong; the test suite treats any
such record as a build failure.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .arith import is_probable_prime, jacobi, lucas_lehmer
from .classgroup import group_structure
from .gm import gm_norm, scan_exponents
from .represent import Representation, cornacchia, representable

VERDICT_CONFIRMED = "confirmed"
VERDICT_HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VERDICT_NO_REPRESENTATION = "no-representation"
VERDICT_REFUTED = "REFUTED"
VERDICT_OUT_OF_RANGE = "out-of-theorem-range"


@dataclass(frozen=True)
class HypothesisFlags:
    p_mod8_ok: bool
    gp_probable_prime: bool
    legendre_2_d: bool
    legendre_minus_d_gp: bool
    class_group_order4: bool

    def all_pass(self) -> bool:
        return (
            self.p_mod8_ok
            and self.gp_probable_prime
            and self.legendre_2_d
            and self.legendre_minus_d_gp
            and self.class_group_order4
        )


@dataclass(frozen=True)
class VerificationRecord:
    p: int
    d: int
    g_value: int
    hypothesis_flags: HypothesisFlags
    representation: Optional[Representation]
    x_mod8: Optional[int]
    y_mod8: Optional[int]
    artin_trivial: Optional[bool]
    verdict: str


@dataclass(frozen=True)
class LemmaChecks:
    x_odd: bool
    y_even: bool
    four_divides_y: bool
    x_pm1_mod8: bool

    def all_pass(self) -> bool:
        return self.x_odd and self.y_even and self.four_divides_y and self.x_pm1_mod8


@dataclass(frozen=True)
class MersenneRecord:
    p: int
    m_value: int
    x: int
    y: int
    x_mod8: int
    y_mod8: int


@dataclass(frozen=True)
class DTwoDRecord:
    p: int
    d: int
    rep_d: bool
    rep_2d: bool
    equivalent: bool
    d_mod4: int


def _is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@functools.lru_cache(maxsize=None)
def _has_order4(discriminant: int) -> bool:
    return group_structure(discriminant).has_order_4_element


def audit_lemma(x: int, y: int, g: int) -> LemmaChecks:
    """Check each congruence step for a solved g = x^2 + 7*y^2 independently."""
    if x * x + 7 * y * y != g:
        raise ValueError("x^2 + 7*y^2 != g")
    return LemmaChecks(
        x_odd=x % 2 == 1,
        y_even=y % 2 == 0,
        four_divides_y=y % 4 == 0,
        x_pm1_mod8=x % 8 in (1, 7),
    )


def artin_class_d7(x: int, y: int) -> str:
    """Artin-symbol class of x + y*sqrt(-7): "trivial" iff x + 3y = +-1 (mod 8)."""
    return "trivial" if (x + 3 * y) % 8 in (1, 7) else "rho"


def _audit(p: int, d: int, flags: HypothesisFlags, g_value: int,
           out_of_range: bool) -> VerificationRecord:
    rep = None
    if flags.gp_probable_prime and g_value > d:
        rep = cornacchia(g_value, d)
    x_mod8 = rep.x % 8 if rep else None
    y_mod8 = rep.y % 8 if rep else None
    artin = artin_class_d7(rep.x, rep.y) == "trivial" if rep and d == 7 else None
    if out_of_range:
        verdict = VERDICT_OUT_OF_RANGE
    elif not flags.all_pass():
        verdict = VERDICT_HYPOTHESIS_NOT_MET
    elif rep is None:
        verdict = VERDICT_NO_REPRESENTATION
    elif x_mod8 in (1, 7) and y_mod8 == 0:
        verdict = VERDICT_CONFIRMED
    else:
        verdict = VERDICT_REFUTED
    return VerificationRecord(
        p=p,
        d=d,
        g_value=g_value,
        hypothesis_flags=flags,
        representation=rep,
        x_mod8=x_mod8,
        y_mod8=y_mod8,
        artin_trivial=artin,
        verdict=verdict,
    )


def audit_theorem_d7(p: int) -> VerificationRecord:
    """Audit y = 0 (mod 8) in G_p = x^2 + 7*y^2 for p > 7, p = +-1 (mod 8).

    p = 7 yields an out-of-theorem-range record: G_7 = 113 = 1 + 7*16 has
    y = 4, which the p > 7 hypothesis deliberately excludes.
    """
    if p < 7:
        raise ValueError("theorem audit needs p >= 7")
    norm = gm_norm(p)
    flags = HypothesisFlags(
        p_mod8_ok=p % 8 in (1, 7),
        gp_probable_prime=norm.primality in ("proven-small", "probable-prime"),
        legendre_2_d=jacobi(2, 7) == 1,
        legendre_minus_d_gp=jacobi(-7, norm.value) == 1,
        class_group_order4=_has_order4(-56),
    )
    return _audit(p, 7, flags, norm.value, out_of_range=(p == 7))


def audit_generalized(p: int, d: int) -> VerificationRecord:
    """Audit 8 | y in G_p = x^2 + d*y^2 for square-free d = 7 (mod 24).

    Hypothesis flags: (2/d) = 1, (-d/G_p) = 1, and an order-4 element in the
    form class group of discriminant -8d (the computable stand-in for the
    cyclic quartic extension the theorem assumes).
    """
    if d % 24 != 7 or not _is_squarefree(d):
        raise ValueError("d must be square-free and = 7 (mod 24)")
    if p < 7:
        raise ValueError("theorem audit needs p >= 7")
    norm = gm_norm(p)
    flags = HypothesisFlags(
        p_mod8_ok=p % 8 in (1, 7),
        gp_probable_prime=norm.primality in ("proven-small", "probable-prime"),
        legendre_2_d=jacobi(2, d) == 1,
        legendre_minus_d_gp=jacobi(-d, norm.value) == 1,
        class_group_order4=_has_order4(-8 * d),
    )
    return _audit(p, d, flags, norm.value, out_of_range=(p == 7))


def audit_d_2d(p: int, d: int) -> DTwoDRecord:
    """Compare representability of G_p by x^2 + d*y^2 vs x^2 + 2d*y^2.

    Reported as observational data; the equivalence is conditional on a
    field-equality hypothesis this artifact cannot decide.
    """
    if not _is_squarefree(d):
        raise ValueError("d must be square-free")
    norm = gm_norm(p)
    if math.gcd(norm.value, 2 * d) != 1:
        raise ValueError("ramified case gcd(G_p, 2d) > 1: not audited")
    rep_d = representable(norm.value, d)
    rep_2d = representable(norm.value, 2 * d)
    return DTwoDRecord(
        p=p,
        d=d,
        rep_d=rep_d,
        rep_2d=rep_2d,
        equivalent=rep_d == rep_2d,
        d_mod4=d % 4,
    )


def mersenne_crosscheck(p: int) -> Optional[MersenneRecord]:
    """Control experiment on 2^p - 1 = x^2 + 7*y^2 for p = 1 (mod 3).

    Expected dual pattern: 8 | x and y = +-3 (mod 8).  Returns None when
    2^p - 1 is composite (skipped record): at once for composite p, else as
    proved by Lucas-Lehmer.
    """
    if p % 3 != 1:
        raise ValueError("crosscheck needs p = 1 (mod 3)")
    if not is_probable_prime(p) or not lucas_lehmer(p):
        return None
    m = (1 << p) - 1
    rep = cornacchia(m, 7)
    if rep is None:
        return None
    return MersenneRecord(p=p, m_value=m, x=rep.x, y=rep.y,
                          x_mod8=rep.x % 8, y_mod8=rep.y % 8)


def run_suite(p_max: int, d_list: list[int],
              workers: int = 1) -> tuple[list[VerificationRecord], dict[str, int]]:
    """Audit every scanned Gaussian Mersenne prime exponent <= p_max against
    each d in d_list; returns records sorted by (p, d) plus summary counts."""
    if p_max < 7:
        raise ValueError("p_max must be >= 7")
    exponents = [norm.p for norm in scan_exponents(3, p_max) if norm.p >= 7]
    jobs = [(p, d) for p in exponents for d in sorted(set(d_list))]

    def one(job: tuple[int, int]) -> VerificationRecord:
        p, d = job
        if d == 7:
            return audit_theorem_d7(p)
        return audit_generalized(p, d)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(one, jobs))
    else:
        records = [one(job) for job in jobs]
    records.sort(key=lambda r: (r.p, r.d))
    summary = {
        "confirmed": 0,
        "hypothesis-not-met": 0,
        "no-representation": 0,
        "out-of-theorem-range": 0,
        "refuted": 0,
    }
    for record in records:
        key = "refuted" if record.verdict == VERDICT_REFUTED else record.verdict
        summary[key] += 1
    return records, summary
