"""Gaussian Mersenne norms: closed formula, Gaussian-integer oracle,
congruence predictions, and exponent scanning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import is_probable_prime, jacobi, primes_up_to, proth_test

#: Exponents above this are refused by the scanner (desk-scale cap).
DEFAULT_MAX_EXPONENT = 1200


@dataclass(frozen=True)
class GaussianInt:
    """An element of Z[i]."""

    re: int
    im: int

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def pow(self, k: int) -> "GaussianInt":
        """Square-and-multiply exponentiation, k >= 0."""
        if k < 0:
            raise ValueError("exponent must be >= 0")
        result = GaussianInt(1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


@dataclass(frozen=True)
class GmNorm:
    """One Gaussian Mersenne candidate: norm of (1+i)^p - 1."""

    p: int
    epsilon: int  # the symbol (2/p), +1 or -1
    value: int
    # proven-small (< 2^64) | probable-prime (>= 2^64) | composite.  Both
    # prime labels are proofs (see gm_norm); the strings are part of the
    # report format, so they keep their names.
    primality: str


@dataclass(frozen=True)
class CongruencePrediction:
    """Predicted residues of the norm, with per-modulus applicability flags.

    A prediction is marked applicable only under its hypothesis:
    mod 8 needs p > 3; mod 16 needs p = +-1 (mod 8); mod 32 additionally
    p > 7; the mod-7 residues need epsilon = +1 (see gate_mod7 note in
    the module tests: p = 5 violates the ungated claim).
    """

    p: int
    mod8: Optional[int]
    mod16: Optional[int]
    mod32: Optional[int]
    mod7: Optional[int]
    applicable: dict[str, bool]


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def epsilon(p: int) -> int:
    """The symbol (2/p): +1 iff p = +-1 (mod 8)."""
    _require_odd_prime(p)
    return jacobi(2, p)


#: Trial factors q = 4kp + 1 of G_p are tried up to this bound.
_SIEVE_LIMIT = 1 << 20


def _classify(p: int, value: int) -> str:
    step = 4 * p
    for q in range(step + 1, min(_SIEVE_LIMIT, math.isqrt(value)) + 1, step):
        if value % q == 0:
            return "composite"
    if not proth_test(value):
        return "composite"
    return "proven-small" if value < 1 << 64 else "probable-prime"


def gm_norm(p: int) -> GmNorm:
    """Norm 2^p - (2/p)*2^((p+1)/2) + 1 with its primality status.

    The status is proved, not probable.  Every prime factor q of G_p is
    = 1 (mod 4p).  An inert q would divide (1+i)^p - 1 and its conjugate,
    so i^p = ((1+i)/(1-i))^p = 1 (mod q), but i^p - 1 has norm 2; hence q
    splits in Z[i] and q = 1 (mod 4).  Modulo a prime above q, 1 + i has
    order p, so p | q - 1.  No mod-8 filter on q is valid: G_13 = 53 * 157
    with both factors = 5 (mod 8).

    Trial division by q = 4kp + 1 up to min(2^20, isqrt(G_p)) finds small
    factors; q need not be prime, and stopping at isqrt(G_p) keeps q a
    proper divisor.  Survivors go to Proth's test, since
    G_p - 1 = 2^((p+1)/2) * (2^((p-1)/2) - (2/p)) is a Proth number.
    """
    _require_odd_prime(p)
    eps = jacobi(2, p)
    value = (1 << p) - eps * (1 << (p + 1) // 2) + 1
    return GmNorm(p=p, epsilon=eps, value=value, primality=_classify(p, value))


def gm_norm_oracle(p: int) -> int:
    """Norm of (1+i)^p - 1 by direct Gaussian-integer exponentiation.

    Independent of the closed formula in gm_norm.
    """
    _require_odd_prime(p)
    mu = GaussianInt(1, 1).pow(p) - GaussianInt(1, 0)
    return mu.norm()


def predict_congruences(p: int) -> CongruencePrediction:
    """Predicted residues of the norm mod 8/16/32/7 for exponent p."""
    _require_odd_prime(p)
    eps = jacobi(2, p)
    plus_minus_one = p % 8 in (1, 7)
    mod7 = None
    if p % 6 == 1:
        mod7 = 1
    elif p % 6 == 5:
        mod7 = 4
    return CongruencePrediction(
        p=p,
        mod8=1 if p > 3 else None,
        mod16=1 if plus_minus_one else None,
        mod32=1 if plus_minus_one and p > 7 else None,
        mod7=mod7,
        applicable={
            "mod8": p > 3,
            "mod16": plus_minus_one,
            "mod32": plus_minus_one and p > 7,
            "mod7": eps == 1 and mod7 is not None,
        },
    )


def scan_exponents(p_min: int, p_max: int) -> list[GmNorm]:
    """All odd primes p in [p_min, p_max] whose norm is prime.

    Bounds are inclusive; results are in increasing p.
    """
    if p_min < 3 or p_min > p_max:
        raise ValueError("need 3 <= p_min <= p_max")
    hits = []
    for p in primes_up_to(p_max):
        if p < max(p_min, 3):
            continue
        norm = gm_norm(p)
        if norm.primality in ("proven-small", "probable-prime"):
            hits.append(norm)
    return hits
