"""Exception types shared across the package.

Every computational module raises one of these instead of a bare ValueError,
so callers (and the command line driver) can map failures to exit codes
without string matching.
"""

from __future__ import annotations


class NCHodgeError(Exception):
    """Base class for all package errors."""


class ModulusError(NCHodgeError):
    """Modulus is not a prime or a prime square, or two operands disagree."""


class ShapeError(NCHodgeError):
    """Matrix or complex dimensions are incompatible."""


class NotAComplexError(NCHodgeError):
    """A claimed differential pair does not compose to zero."""


class WindowError(NCHodgeError):
    """A homology degree was requested outside the trusted window."""


class ConstructionError(NCHodgeError):
    """Input data fails a structural validity check (associativity, unit, ...)."""


class ReductionMismatchError(ConstructionError):
    """A mod p**2 lift does not reduce to the claimed mod p algebra."""


class ResourceError(NCHodgeError):
    """The entries a computation would write exceed the configured cap."""

    def __init__(self, message: str, count: int | None = None, cap: int | None = None,
                 level: int | None = None):
        super().__init__(message)
        self.count, self.cap, self.level = count, cap, level


class ParityError(NCHodgeError):
    """p = 2 requested where an odd prime is required."""


class OrderError(NCHodgeError):
    """A claimed group action does not have the stated order."""


class CartierError(NCHodgeError):
    """The p-th power comparison map failed to be bijective where required."""


class SubdivisionMismatchError(NCHodgeError):
    """The subdivided cyclic pipeline disagreed with the direct one."""


class InternalCheckError(NCHodgeError):
    """A self-certificate failed; indicates a bug, not bad input."""
