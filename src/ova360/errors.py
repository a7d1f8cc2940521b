"""Exception types shared across the package.

The CLI maps these onto exit codes: domain and bound violations exit 1,
mathematical findings (counterexamples, golden-data mismatches) exit 2.
"""

from __future__ import annotations


class OvaError(Exception):
    """Base class for all package errors."""


class DomainError(OvaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BoundError(OvaError, ValueError):
    """An argument exceeds a resource bound: a module constant (the
    MAX_* names) measured on a 2-core x86-64 VM."""


class NotMersennePrime(DomainError):
    """The exponent does not yield a Mersenne prime."""


class UnknownOva(DomainError):
    """The residue has no registered quadratic link family."""


class GoldenDataError(OvaError):
    """A bundled golden data file is missing or malformed."""


class CounterexampleFound(OvaError):
    """A verification sub-mode found a value violating the claimed property."""
