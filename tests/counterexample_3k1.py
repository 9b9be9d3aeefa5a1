"""A fixed counterexample for the rotated 3k+1 family.

`gen_3k1_necessity(2)` with a third hole, a steeply tilted rectangle west
of the square.  It passes properties 1-4 of `check_3k1_properties`, yet 9
= 3k wall-aligned vertex guards cover it, so those properties, as
checked, do not force 3k+1 guards.  The generator refuses k = 3 for this
reason; the tests keep the scene to exercise the property checks at
three holes.
"""

from cityguard.geom import make_axis_rect, make_convex_quad
from cityguard.model import Scene, validate_scene

MINIMUM = 9


def rot3k1_counterexample() -> Scene:
    return validate_scene(Scene(
        bounds=make_axis_rect(-464, -392, 320, 320),
        holes=(make_convex_quad([(0, -256), (256, 0), (0, 256), (-256, 0)]),
               make_convex_quad([(-328, -328), (-136, -328), (-136, -136), (-328, -136)]),
               make_convex_quad([(-390, -278), (-400, -318), (-360, -328), (-350, -288)]))))
