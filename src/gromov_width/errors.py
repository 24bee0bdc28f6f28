"""Exception hierarchy.

Callers mostly care about two families: HypothesisFailure means the input
describes a legitimate object that fails one of the hypotheses the width
formula needs (the CLI exits 1), while InvalidInput means the data itself is
malformed or outside the tool's domain (the CLI exits 2).
"""


class Error(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(Error):
    """Malformed, inconsistent, or out-of-domain input data."""


class HypothesisFailure(Error):
    """Valid input that fails a hypothesis of the width computation."""


# lattice

class ZeroVector(InvalidInput):
    """An operation that needs a nonzero vector received zero."""


class DimensionMismatch(InvalidInput):
    """Vectors of incompatible lengths were combined."""


class NotUnimodular(InvalidInput):
    """A set of normals does not extend to a Z-basis of the lattice."""


# polytope

class Unbounded(InvalidInput):
    """The half-space intersection is unbounded."""


class Empty(InvalidInput):
    """The half-space intersection is empty."""


class NotDelzant(InvalidInput):
    """Smoothness fails: a degenerate vertex, or vertex normals that are not a Z-basis."""


class NotMonotone(HypothesisFailure):
    """No lattice translation puts every facet offset at -1."""


# circle actions

class AmbiguousMax(InvalidInput):
    """Two fixed components share the maximal moment value."""


class NotEnoughComponents(InvalidInput):
    """All fixed components sit at a single moment level."""


class NotOrdered(InvalidInput):
    """Gradient-sphere endpoints must have strictly increasing moment values."""


class EmptyProduct(InvalidInput):
    """A product of zero actions was requested."""


class InconsistentComponent(InvalidInput):
    """Vertices of one fixed component disagree about its weight data."""


class CrossCheckFailed(Error):
    """Two independent computations of the same invariant disagree."""


class HypothesisFailed(HypothesisFailure):
    """A hypothesis check failed; carries the witness and a diagnostic gap.

    raw_difference is the gap between the two highest moment levels.  When a
    hypothesis fails that number is NOT a width; it is reported so the caller
    can see what the formula would have produced.
    """

    def __init__(self, check: str, witness: str, raw_difference=None):
        self.check = check
        self.witness = witness
        self.raw_difference = raw_difference
        message = f"{check}: {witness}"
        if raw_difference is not None:
            message += f"; raw H_max - s = {raw_difference} (diagnostic only)"
        super().__init__(message)


# toric

class NotAVertex(InvalidInput):
    """The given point is not a vertex of the polytope."""


# grassmannian

class InvalidRange(InvalidInput):
    """Grassmannian parameters must satisfy 1 <= k <= m - k."""


# seidel

class DegreeMismatch(Error):
    """A graded entry violates the degree-zero constraint or leaves a gap."""
