"""Gaussian Mersenne norms: closed formula, Gaussian-integer oracle,
congruence predictions, and exponent scanning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import is_probable_prime, jacobi, primes_up_to, proth_test


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

    @property
    def is_prime(self) -> bool:
        return self.primality in ("proven-small", "probable-prime")


def _require_odd_prime(p: int) -> None:
    if p < 3 or not is_probable_prime(p):
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
    return _build_norm(p)


def _closed_form(p: int) -> tuple[int, int]:
    # (2/p) and the value of G_p, with no primality proof; p as for _build_norm.
    eps = jacobi(2, p)
    return eps, (1 << p) - eps * (1 << (p + 1) // 2) + 1


def _build_norm(p: int) -> GmNorm:
    # gm_norm for an odd prime p that the caller has already checked or sieved.
    eps, value = _closed_form(p)
    return GmNorm(p=p, epsilon=eps, value=value, primality=_classify(p, value))


def gm_norm_oracle(p: int) -> int:
    """Norm of (1+i)^p - 1 by square-and-multiply in Z[i].

    Works on (re, im) integer pairs, independent of the closed formula in
    gm_norm.
    """
    _require_odd_prime(p)
    re, im = 1, 0
    for bit in bin(p)[2:]:
        re, im = re * re - im * im, 2 * re * im
        if bit == "1":
            re, im = re - im, re + im  # times 1 + i
    return (re - 1) ** 2 + im ** 2


def predict_congruences(p: int) -> dict[int, tuple[Optional[int], bool]]:
    """Predicted residue of G_p by modulus 8, 16, 32, 7, and whether it applies.

    Mod 8 needs p > 3; mod 16 needs p = +-1 (mod 8); mod 32 additionally
    p > 7.  The mod-7 residue (1 for p = 1, 4 for p = 5 (mod 6)) needs
    epsilon = +1: p = 5 violates the ungated claim, as G_5 = 41 = 6 (mod 7).
    """
    eps = epsilon(p)

    def one_if(holds: bool) -> tuple[Optional[int], bool]:
        return (1 if holds else None), holds

    return {
        8: one_if(p > 3),
        16: one_if(eps == 1),
        32: one_if(eps == 1 and p > 7),
        7: ({1: 1, 5: 4}.get(p % 6), eps == 1),
    }


def scan_exponents(p_min: int, p_max: int) -> list[GmNorm]:
    """All odd primes p in [p_min, p_max] whose norm is prime.

    Bounds are inclusive; results are in increasing p.  The scan trusts its
    sieve: unlike gm_norm, it tests no p for primality.
    """
    if p_min < 3 or p_min > p_max:
        raise ValueError("need 3 <= p_min <= p_max")
    norms = (_build_norm(p) for p in primes_up_to(p_max) if p >= p_min)
    return [norm for norm in norms if norm.is_prime]
