"""Exception types shared across the package, and check_range, the one
range check.

The CLI maps these onto exit codes: domain and bound violations exit 1,
mathematical findings (counterexamples, golden-data mismatches) exit 2.

check_range words every range message and picks its class. A value
below the domain raises DomainError("{name} must be >= {low}, got
{value}"); a value past a MAX_* bound raises BoundError("{name} {value}
exceeds {bound} {high}"), where bound names the limit, as in "prime
list bound".
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


def check_range(name: str, value: int, low: int | None = None,
                high: int | None = None, bound: str = "bound") -> None:
    """Raise DomainError if value < low, BoundError if value > high; an
    end left None is not checked."""
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise BoundError(f"{name} {value} exceeds {bound} {high}")
