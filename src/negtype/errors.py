"""Exception hierarchy shared across the package.

The package's own exceptions derive from :class:`NegTypeError`, so callers
can catch the whole family at once. Invalid input raises a ``NegTypeError``
subclass or a ``ValueError`` (a wrong shape, a non-finite entry, a power out
of the float range, an argument below its least value), and the CLI maps
both to exit 1; :class:`ToleranceFailure`, a failed internal numerical
self-check, maps to exit 3.
"""

from __future__ import annotations


class NegTypeError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- metric ----

class AsymmetricMatrix(NegTypeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"distance matrix is not symmetric at ({i}, {j})")


class NonzeroDiagonal(NegTypeError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"diagonal entry ({i}, {i}) is not zero")


class NonpositiveOffDiagonal(NegTypeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"off-diagonal entry ({i}, {j}) is not strictly positive")


class TriangleViolation(NegTypeError):
    """d(i, j) > d(i, k) + d(k, j) beyond tolerance."""

    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(
            f"triangle inequality violated: d({i},{j}) > d({i},{k}) + d({k},{j})"
        )


class NonpositiveExponent(NegTypeError):
    pass


class NonpositiveScale(NegTypeError):
    pass


class DisconnectedGraph(NegTypeError):
    pass


class SinglePoint(NegTypeError):
    pass


# -------------------------------------------------------------- spectral ----

class NotSymmetric(NegTypeError):
    pass


class NoConvergence(NegTypeError):
    pass


class DimensionMismatch(NegTypeError):
    pass


# ------------------------------------------------------------------- gap ----

class TooManyPoints(NegTypeError):
    def __init__(self, n: int, cap: int):
        self.n, self.cap = n, cap
        super().__init__(f"{n} points exceeds the enumeration cap of {cap}")


class NotNegativeType(NegTypeError):
    pass


class NotInF0(NegTypeError):
    pass


class NotStrict(NegTypeError):
    pass


# ---------------------------------------------------------------- bounds ----

class TooFewPoints(NegTypeError):
    pass


class ZeroGap(NegTypeError):
    pass


# ------------------------------------------------------------------ glue ----

class BridgeTooShort(NegTypeError):
    pass


class LabelCollision(NegTypeError):
    pass


class ComponentNotStrict(NegTypeError):
    pass


class BoundaryOrWorse(NegTypeError):
    pass


# ----------------------------------------------------------- ultrametric ----

class NotUltrametric(NegTypeError):
    pass


class NegativeEntry(NegTypeError):
    pass


# ------------------------------------------------------------------- I/O ----

class ParseError(NegTypeError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ToleranceFailure(NegTypeError):
    """An internal numerical self-check failed (CLI exit code 3)."""
