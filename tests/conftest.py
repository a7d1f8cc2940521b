"""Shared fixtures. The trial-division oracle is deliberately naive and
independent of the package internals."""

from __future__ import annotations

import math

import pytest


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


@pytest.fixture(scope="session")
def oracle_primes_10k() -> list[int]:
    return trial_division_primes(10**4)


@pytest.fixture(scope="session")
def oracle_prime_set_10k(oracle_primes_10k) -> set[int]:
    return set(oracle_primes_10k)


def smallest_goldbach_p(limit: int) -> dict[int, int]:
    """For every even n in [6, limit], the smallest odd prime p with
    n - p an odd prime, found by trial division."""
    odd_primes = trial_division_primes(limit)[1:]
    prime_set = set(odd_primes)
    out = {}
    for n in range(6, limit + 1, 2):
        out[n] = next(p for p in odd_primes if n - p in prime_set)
    return out


@pytest.fixture(scope="session")
def oracle_goldbach_p() -> dict[int, int]:
    # covers limits up to two blocks past the second block boundary
    from ova360.goldbach import BLOCK_EVENS

    return smallest_goldbach_p(6 + 4 * BLOCK_EVENS + 16)


@pytest.fixture
def bitmap_without_three(monkeypatch):
    """Make the Goldbach scan read 3 as composite, so that 6 = 3 + 3
    (and 8 = 3 + 5) have no decomposition: an injected finding."""
    from ova360 import goldbach, primality

    def without_three(limit):
        bitmap = primality.odd_prime_bitmap(limit)
        bitmap[1] = False
        return bitmap

    monkeypatch.setattr(goldbach, "odd_prime_bitmap", without_three)
