"""Residue arithmetic modulo 360 for primes.

Library layout: primality (sieves and tests), ova (decomposition and
residue sets), goldbach (scans and interval constructions), mersenne
(residue classes and Lucas-Lehmer), landau (k**2+1 families), matrix
(indicator matrices and density diagnostics), render (report text),
cli (command line).
"""

from __future__ import annotations

__version__ = "1.0.0"

from .errors import (
    BoundError,
    CounterexampleFound,
    DomainError,
    GoldenDataError,
    NotMersennePrime,
    OvaError,
    UnknownOva,
)
from .ova import OvaDecomposition, ResidueClass, decompose, residue_sets
from .primality import is_prime, is_prime_big, sieve_primes

__all__ = [
    "BoundError",
    "CounterexampleFound",
    "DomainError",
    "GoldenDataError",
    "NotMersennePrime",
    "OvaError",
    "OvaDecomposition",
    "ResidueClass",
    "UnknownOva",
    "decompose",
    "is_prime",
    "is_prime_big",
    "residue_sets",
    "sieve_primes",
    "__version__",
]
