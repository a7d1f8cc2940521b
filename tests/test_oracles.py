"""Cross-checks of the package's primality machinery against
independent oracles: naive trial division and sympy."""

from __future__ import annotations

import random

import numpy as np
import sympy
from conftest import eratosthenes_primes, trial_division_primes

from ova360.mersenne import lucas_lehmer
from ova360.primality import is_prime, is_prime_big, sieve_primes


def test_sieve_matches_trial_division(oracle_primes_10k):
    assert sieve_primes(10**4).tolist() == oracle_primes_10k


def test_list_sieve_oracle_matches_trial_division(oracle_primes_10k):
    # the Goldbach oracle's primes, which reach past a million
    assert eratosthenes_primes(10**4) == oracle_primes_10k
    for limit in range(12):
        assert eratosthenes_primes(limit) == trial_division_primes(limit)


def test_is_prime_matches_trial_division(oracle_primes_10k):
    # every n below 1e6 divided by every prime to its square root: the
    # table's first two bands, one base and bases 2 and 3
    n = np.arange(10**6)
    prime = n >= 2
    for q in oracle_primes_10k:
        if q * q >= n.size:
            break
        prime &= (n % q != 0) | (n == q)
    got = [m for m in range(n.size) if is_prime(m)]
    assert got == np.flatnonzero(prime).tolist()


def test_is_prime_matches_sympy_on_random_64bit():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(2, 1 << 63)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_big_known_values():
    assert is_prime_big(2**61 - 1)
    assert is_prime_big(2**89 - 1)
    assert not is_prime_big(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime_big(2**67 - 1 + 0)
    assert is_prime_big((1 << 127) - 1)


def test_is_prime_big_matches_sympy_above_64bit():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1 << 64, 1 << 70) | 1
        assert is_prime_big(n) == sympy.isprime(n), n


def test_lucas_lehmer_agrees_with_direct_primality():
    for p in range(3, 608):
        if is_prime(p):
            assert lucas_lehmer(p) == is_prime_big((1 << p) - 1), p
