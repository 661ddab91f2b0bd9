"""Built-in group presentations.

``gamma2-type``: the free product of the parabolic cyclic groups generated
by z -> z+2 and z -> z/(2z+1) (the principal congruence subgroup of level
two).  The four coding intervals are the arcs cut by {-1, 0, 1, oo}; the
limit set is the whole circle and the Poincare exponent is 1.  The points
+-1 are accidental cusps (fixed by products such as (z+2)(z/(-2z+1))), so
touching side pairs exist and C1 = 0.

``one-cusp-one-hyperbolic``: one parabolic pair fixing 0 and one
hyperbolic pair of translation length 2*log(5) with axis over (-3, 3).
All interval gaps are genuine (second-kind group), the sides stay a
positive distance apart and the constants are non-degenerate.
"""

import math

GAMMA2 = {
    "name": "gamma2-type",
    "generators": [
        {
            "label": "a",
            "inverse_label": "A",
            "kind": "parabolic",
            "matrix": [1.0, 2.0, 0.0, 1.0],
            "interval": [1.0, math.inf],
            "interval_inverse": [math.inf, -1.0],
        },
        {
            "label": "b",
            "inverse_label": "B",
            "kind": "parabolic",
            "matrix": [1.0, 0.0, 2.0, 1.0],
            "interval": [0.0, 1.0],
            "interval_inverse": [-1.0, 0.0],
        },
    ],
}

# h = (1/5) [[13, 36], [4, 13]]: trace 26/5, fixed points -3 (repelling)
# and 3 (attracting); the interval endpoints are exact images:
# h(-2) = 2 and h(-5) = 29/7.
ONE_CUSP_ONE_HYPERBOLIC = {
    "name": "one-cusp-one-hyperbolic",
    "generators": [
        {
            "label": "a",
            "inverse_label": "A",
            "kind": "parabolic",
            "matrix": [1.0, 0.0, 2.0, 1.0],
            "interval": [0.0, 1.0],
            "interval_inverse": [-1.0, 0.0],
        },
        {
            "label": "h",
            "inverse_label": "H",
            "kind": "hyperbolic",
            "matrix": [2.6, 7.2, 0.8, 2.6],
            "interval": [2.0, 4.142857142857143],
            "interval_inverse": [-5.0, -2.0],
        },
    ],
}

PRESETS = {
    "gamma2-type": GAMMA2,
    "one-cusp-one-hyperbolic": ONE_CUSP_ONE_HYPERBOLIC,
}


def preset_config(name: str) -> dict:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            "unknown preset %r; available: %s" % (name, ", ".join(sorted(PRESETS)))
        ) from None
