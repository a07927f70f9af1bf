"""Audit pipeline: instantiate the congruence theorems on concrete Gaussian
Mersenne (and control Mersenne) primes and emit structured verdicts.

Verdicts: "confirmed" means hypotheses hold, a representation exists, and the
residues match.  "REFUTED" is reserved for the loud case where hypotheses and
representation are fine but the residues are wrong; the test suite treats any
such record as a build failure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .arith import NotPrimeError, is_probable_prime, jacobi, lucas_lehmer
from .classgroup import group_structure
from .gm import GmNorm, gm_norm, scan_exponents
from .represent import Representation, cornacchia

VERDICT_CONFIRMED = "confirmed"
VERDICT_HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VERDICT_NO_REPRESENTATION = "no-representation"
VERDICT_REFUTED = "REFUTED"
VERDICT_OUT_OF_RANGE = "out-of-theorem-range"

_T = TypeVar("_T")


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
class MersenneRecord:
    p: int
    m_value: int
    x: int
    y: int
    x_mod8: int
    y_mod8: int


def _is_squarefree(d: int) -> bool:
    return d >= 1 and all(d % (k * k) for k in range(2, math.isqrt(d) + 1))


def artin_class_d7(x: int, y: int) -> str:
    """Artin-symbol class of x + y*sqrt(-7): "trivial" iff x + 3y = +-1 (mod 8)."""
    return "trivial" if (x + 3 * y) % 8 in (1, 7) else "rho"


def check_d(d: int) -> None:
    """ValueError unless d is square-free and d = 7 (mod 24), as the audit needs."""
    if d % 24 != 7 or not _is_squarefree(d):
        raise ValueError(f"d must be square-free and = 7 (mod 24), got {d}")


def _d_facts(d: int) -> tuple[bool, bool]:
    # The hypotheses on d alone: (2/d) = 1, an order-4 element in Cl(-8d).
    return jacobi(2, d) == 1, group_structure(-8 * d).has_order_4_element


def _audit(norm: GmNorm, d: int, d_facts: tuple[bool, bool]) -> VerificationRecord:
    # Audit one computed norm against d; callers have validated p and d.
    p, g_value = norm.p, norm.value
    legendre_2_d, order4 = d_facts
    flags = HypothesisFlags(
        p_mod8_ok=norm.epsilon == 1,
        gp_probable_prime=norm.is_prime,
        legendre_2_d=legendre_2_d,
        legendre_minus_d_gp=jacobi(-d, g_value) == 1,
        class_group_order4=order4,
    )
    rep = cornacchia(g_value, d) if flags.gp_probable_prime else None
    x_mod8 = rep.x % 8 if rep else None
    y_mod8 = rep.y % 8 if rep else None
    artin = artin_class_d7(rep.x, rep.y) == "trivial" if rep and d == 7 else None
    if p == 7:
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
    return audit_generalized(p, 7)


def audit_generalized(p: int, d: int) -> VerificationRecord:
    """Audit 8 | y in G_p = x^2 + d*y^2 for square-free d = 7 (mod 24).

    Hypothesis flags: (2/d) = 1, (-d/G_p) = 1, and an order-4 element in the
    form class group of discriminant -8d (the computable stand-in for the
    cyclic quartic extension the theorem assumes).
    """
    check_d(d)
    if p < 7:
        raise ValueError("theorem audit needs p >= 7")
    return _audit(gm_norm(p), d, _d_facts(d))


def audit_d_2d(p: int, d: int) -> Optional[tuple[bool, bool]]:
    """Whether G_p is represented by (x^2 + d*y^2, x^2 + 2d*y^2).

    Reported as observational data; the equivalence is conditional on a
    field-equality hypothesis this artifact cannot decide.  Both forms are
    solved by Cornacchia on gm_norm's primality proof, not a fresh
    probable-prime test; a composite G_p gives None, unsolved.
    """
    if not _is_squarefree(d):
        raise ValueError("d must be square-free")
    norm = gm_norm(p)
    if math.gcd(norm.value, 2 * d) != 1:
        raise ValueError("ramified case gcd(G_p, 2d) > 1: not audited")
    if not norm.is_prime:
        return None
    return (cornacchia(norm.value, d) is not None,
            cornacchia(norm.value, 2 * d) is not None)


def _overlap(proof: Callable[[], bool], work: Callable[[], _T]) -> tuple[bool, _T]:
    """Return (proof(), work()), running proof() in a forked child meanwhile.

    The child answers by its exit status: 0 for True, 1 for False.  Any other
    status raises ChildProcessError, never a False proof: 2 if proof() raises,
    SystemExit and KeyboardInterrupt included, or -signal if it is killed.  A
    proof() that calls os._exit(0) or os._exit(1) itself gives that verdict.
    The child leaves by os._exit, so it never returns into the caller's stack
    and never flushes the stdio buffers it inherited.  If work() raises,
    KeyboardInterrupt included, the child is killed and reaped before the
    error propagates.  Without os.fork both run here, one after the other.
    """
    if not hasattr(os, "fork"):
        return proof(), work()
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if proof() else 1)
        finally:
            os._exit(2)
    try:
        result = work()
    except BaseException:
        import signal  # only this path needs it, so it stays out of import time

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code not in (0, 1):
        raise ChildProcessError(f"proof process exited with code {code}")
    return code == 0, result


def mersenne_crosscheck(p: int) -> Optional[MersenneRecord]:
    """Control experiment on 2^p - 1 = x^2 + 7*y^2 for p = 1 (mod 3).

    Expected dual pattern: 8 | x and y = +-3 (mod 8).  Returns None when
    2^p - 1 is composite (skipped record): at once for composite p, else as
    proved by Lucas-Lehmer.  Where os.fork exists, Lucas-Lehmer runs in a
    second process while this one takes the root of -7 on the chance that
    2^p - 1 is prime.  That process answers by its exit status: 0 prime,
    1 composite, anything else a failure, which raises ChildProcessError.  A
    composite verdict discards the root, a NotPrimeError included.  A prime
    2^p - 1 = 1 (mod 7) has (-7 / 2^p - 1) = 1 and h(-28) = 1, so it is
    always represented; a missing representation raises ArithmeticError.
    """
    if p % 3 != 1:
        raise ValueError("crosscheck needs p = 1 (mod 3)")
    if not is_probable_prime(p):
        return None
    m = (1 << p) - 1

    def root() -> Optional[Representation] | NotPrimeError:
        try:
            return cornacchia(m, 7)
        except NotPrimeError as exc:
            return exc

    prime, rep = _overlap(lambda: lucas_lehmer(p), root)
    if not prime:
        return None
    if isinstance(rep, NotPrimeError):
        raise rep
    if rep is None:
        raise ArithmeticError(f"prime 2^{p} - 1 has no representation x^2 + 7*y^2")
    return MersenneRecord(p=p, m_value=m, x=rep.x, y=rep.y,
                          x_mod8=rep.x % 8, y_mod8=rep.y % 8)


def run_suite(p_max: int,
              d_list: list[int]) -> tuple[list[VerificationRecord], dict[str, int]]:
    """Audit every scanned Gaussian Mersenne prime exponent <= p_max against
    each d in d_list; returns records sorted by (p, d) plus summary counts."""
    if p_max < 7:
        raise ValueError("p_max must be >= 7")
    d_values = sorted(set(d_list))
    for d in d_values:
        check_d(d)
    facts = {d: _d_facts(d) for d in d_values}
    records = [_audit(norm, d, facts[d])
               for norm in scan_exponents(7, p_max) for d in d_values]
    verdicts = (VERDICT_CONFIRMED, VERDICT_HYPOTHESIS_NOT_MET,
                VERDICT_NO_REPRESENTATION, VERDICT_OUT_OF_RANGE, VERDICT_REFUTED)
    summary = {v.lower(): sum(r.verdict == v for r in records) for v in verdicts}
    return records, summary
