"""Exception types shared across the package."""


class CuspwindError(Exception):
    """Base class for all library errors."""


# --- fuchsian -------------------------------------------------------------

class GroupValidationError(CuspwindError):
    """Base class for presentation validation failures."""


class NotUnitDeterminant(GroupValidationError):
    pass


class NoParabolic(GroupValidationError):
    pass


class Elementary(GroupValidationError):
    pass


class NotFree(GroupValidationError):
    """Interval disjointness or the Markov covering failed."""


# --- coding ---------------------------------------------------------------

class OutsideAllIntervals(CuspwindError):
    """Boundary point is on an interval endpoint or outside the coding domain."""


class CodingStalled(CuspwindError):
    """Orbit hit an interval endpoint before the requested number of blocks."""


class ReachedCusp(CodingStalled):
    """Orbit reached a cusp: ``word`` holds the blocks closed before it,
    and ``cusp`` is the orbit's point there, which may lie within
    ``fuchsian.ANGLE_TOL`` of the cusp rather than on it."""

    def __init__(self, word, cusp: float):
        super().__init__("orbit reached the cusp %.12g after %d blocks"
                         % (cusp, len(word)))
        self.word, self.cusp = word, cusp


# --- gdms -----------------------------------------------------------------

class NoSignChange(CuspwindError):
    """Root bracketing for the pressure equation failed."""


class InvalidCurve(CuspwindError, ValueError):
    """A free energy or spectrum curve breaks a validated invariant."""


# --- spectrum -------------------------------------------------------------

class NotConvex(CuspwindError):
    """Sampled function violates convexity above the noise floor."""
