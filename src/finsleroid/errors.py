"""Typed errors raised by the finsleroid kernels.

Operations raise instead of returning NaN: silent NaN propagation hides
bugs in the tensor stack.
"""


class FinsleroidError(ValueError):
    """Base class for all domain errors of this package."""


class OutOfRangeError(FinsleroidError):
    """A scalar argument lies outside its admissible range (e.g. |g| >= 2)."""


class ZeroVectorError(FinsleroidError):
    """Operation requires a nonzero vector."""


class OnAxisError(FinsleroidError):
    """A quantity with no limit on the symmetry axis (q = 0), as the Cartan
    tensor; the verifier's chart oracles also raise it in the plane (Z = 0)."""


class CollinearError(FinsleroidError):
    """Operation requires a linearly independent pair of vectors."""


class DegenerateChordError(FinsleroidError):
    """Geodesic chord with coincident endpoints."""


class NumericalDomainError(FinsleroidError):
    """A radicand or inverse-trig argument left its admissible domain."""


class NoRootError(FinsleroidError):
    """Root bracketing failed for an implicit scalar equation."""


class ObtuseInputError(FinsleroidError):
    """Operation is defined for acute vector pairs only."""


class MaxIterationsError(FinsleroidError):
    """Iterative refinement failed to converge within the iteration budget."""
