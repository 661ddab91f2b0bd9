"""Known answers as a ratchet: the engine's distance from each answer
stays below a bound set just above its distance today.

Each row holds the answer, where it comes from, the engine's quantity on
the default run of its preset (cap 400, the 33 default betas) and the
bound.  The engine's errors come from the bucket operator's
discretisation, not from the truncation, so they do not shrink with the
cap.  A change that makes a number better tightens its row's bound, and
says so with the old and the new bound; no bound is ever loosened.

Answers:

* delta(Gamma(2)) = t(0) = 1 exactly: Gamma(2) is a lattice, so its
  Poincare exponent is 1.
* The other rows are the values of the collocated operator (Chebyshev
  collocation in the circle angle, the winding sums by Gauss rules),
  reproduced by independent prototypes that converged to the digits
  given here: t(1) and delta_c on Gamma(2), and t(0), t(1) and delta_c
  on one-cusp.
"""

import pytest

from cuspwind import gdms
from cuspwind.config import config_from_preset
from cuspwind.fuchsian import build_group
from cuspwind.induced import fuchsian_system

GAMMA2, ONECUSP = "gamma2-type", "one-cusp-one-hyperbolic"

# (preset, quantity, answer, bound); the error today is in the comment
ROWS = [
    (GAMMA2, "t(0)", 1.0, 0.0188),  # 1.871e-2
    (GAMMA2, "t(1)", 0.890832873988, 0.0456),  # 4.555e-2
    (GAMMA2, "delta_c", 0.872670362058, 0.0518),  # 5.175e-2
    (ONECUSP, "t(0)", 0.605373009866567, 2.22e-7),  # 2.219e-7
    (ONECUSP, "t(1)", 0.423653533481690, 1.41e-5),  # 1.409e-5
    (ONECUSP, "delta_c", 0.4082354813779, 1.80e-5),  # 1.792e-5
]


@pytest.fixture(scope="module")
def engine():
    """The engine's quantities on each preset's default run: t(0) off the
    default curve as ``spectrum`` solves it, t(1) by one solve on the same
    system, and delta_c."""
    values = {}
    for preset in sorted({row[0] for row in ROWS}):
        cfg = config_from_preset(preset)
        pres = build_group(cfg.group_config())
        sysm = fuchsian_system(pres, cfg.cap)
        curve = gdms.free_energy_curve(sysm, cfg.betas())
        curve.validate()
        values[preset, "t(0)"] = float(curve.t[list(curve.betas).index(0.0)])
        values[preset, "t(1)"] = gdms.free_energy(sysm, 1.0).t
        values[preset, "delta_c"] = gdms.delta_c(pres).t
    return values


@pytest.mark.parametrize("preset, quantity, answer, bound", ROWS,
                         ids=["%s-%s" % row[:2] for row in ROWS])
def test_known_answer(engine, preset, quantity, answer, bound):
    assert abs(engine[preset, quantity] - answer) <= bound
