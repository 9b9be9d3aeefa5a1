"""Structured errors shared across the package."""


class CityGuardError(Exception):
    pass


class MalformedPolygonError(CityGuardError):
    """Polygon-set operand with a self-intersecting or degenerate boundary."""


class SceneValidationError(CityGuardError):
    """Raised by validate_scene; carries the full list of violations.

    Each violation is a tuple (code, detail) where code is one of
    OVERLAPPING_HOLES, HOLE_TOUCHES_BOUNDARY, NOT_A_RECTANGLE, MALFORMED_HOLE
    (no area, or not strictly convex and CCW), DEGENERATE_POSITION and
    detail identifies the offending holes, or
    COORDINATE_OUT_OF_RANGE or EMPTY_BOUNDS (bounds without area) and
    detail ("bounds",).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{code}{detail}" for code, detail in self.violations))


class DegeneratePositionError(CityGuardError):
    """Two holes share an edge-supporting axis line; placement algorithms refuse."""


class EmptyStaircaseError(CityGuardError):
    """staircase_guards called on a zero-stair staircase (k=0)."""


class PlacementIncompleteError(CityGuardError):
    """A placement failed its own certification.  Never an accepted outcome."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class GenerationFailedError(CityGuardError):
    def __init__(self, message, failed_property=None):
        self.failed_property = failed_property
        super().__init__(message)
