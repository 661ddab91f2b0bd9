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
* alpha0(Gamma(2)) = -t'(0) = 2c / pi^2 exactly, with c the series
  sum_(k>=2) 2 log(k-1) log(k^2 / (k^2-1)) (``series_c``); the engine's
  alpha0 is the one ``spectrum`` reports off the default curve.
* t(0) does not depend on the chart: its spread over the preset's own
  chart and its conjugates by z + 0.3, 4z and z / (0.4z + 1) is 0.
* t(0), t(1) and delta_c do not depend on the Markov partition: their
  spread between one-cusp's preset arcs and its arcs at i
  (``PARTITIONS``) is 0.
* The other rows are the values of the collocated operator (Chebyshev
  collocation in the circle angle, the winding sums by Gauss rules),
  reproduced by independent prototypes that converged to the digits
  given here: t(1) and delta_c on Gamma(2), and t(0), t(1) and delta_c
  on one-cusp.
"""

import math

import pytest

from cuspwind import gdms
from cuspwind.config import config_from_preset
from cuspwind.fuchsian import build_group, conjugate_config
from cuspwind.induced import fuchsian_system
from cuspwind.mobius import MobiusMap
from cuspwind.spectrum import spectrum

GAMMA2, ONECUSP = "gamma2-type", "one-cusp-one-hyperbolic"

# z + 0.3, 4z and z / (0.4z + 1)
CHARTS = ((1.0, 0.3, 0.0, 1.0), (2.0, 0.0, 0.0, 0.5), (1.0, 0.0, 0.4, 1.0))


def series_c(n: int = 1000) -> float:
    """c = sum_(k>=2) g(k), g(k) = 2 log(k-1) log(k^2 / (k^2-1)): the terms
    below n explicitly, the rest by Euler-Maclaurin, int_n^inf g + g(n)/2
    - g'(n)/12, whose next term is below 1e-20 at n = 1000.  The integral
    is taken term by term in g(x) = 2 (log x - sum_j x^-j / j)
    sum_m x^-2m / m, from int_n^inf x^-p log x = n^(1-p) (log n / (p-1) +
    1 / (p-1)^2) and int_n^inf x^-p = n^(1-p) / (p-1)."""
    def g(k):
        return 2.0 * math.log(k - 1.0) * math.log1p(1.0 / (k * k - 1.0))

    parts = [g(k) for k in range(2, n)]
    for m in range(1, 5):
        p = 2 * m
        parts.append(2.0 / m * n ** (1 - p)
                     * (math.log(n) / (p - 1) + 1.0 / (p - 1) ** 2))
        parts.extend(-2.0 / (m * j) * n ** (1 - p - j) / (p + j - 1)
                     for j in range(1, 9))
    x = float(n)
    dg = 2.0 * (math.log1p(1.0 / (x * x - 1.0)) / (x - 1.0)
                - 2.0 * math.log(x - 1.0) / (x * (x * x - 1.0)))
    return math.fsum(parts) + g(n) / 2.0 - dg / 12.0


# Another Markov partition of a preset, by the arcs at i: the arc of g is
# where g^-1 expands in the circle chart.  One-cusp's a keeps the preset's
# arcs, and h's become (2, 4.5) and (-4.5, -2), with h(-4.5) = 4.5 and
# h(-2) = 2, against the preset's (2, 29/7) and (-5, -2).
PARTITIONS = {
    ONECUSP: {
        "name": "one-cusp-arcs-at-i",
        "generators": [
            {"label": "a", "inverse_label": "A", "kind": "parabolic",
             "matrix": [1.0, 0.0, 2.0, 1.0],
             "interval": [0.0, 1.0], "interval_inverse": [-1.0, 0.0]},
            {"label": "h", "inverse_label": "H", "kind": "hyperbolic",
             "matrix": [2.6, 7.2, 0.8, 2.6],
             "interval": [2.0, 4.5], "interval_inverse": [-4.5, -2.0]},
        ],
    },
}

# (preset, quantity, answer, bound); the error today is in the comment
ROWS = [
    (GAMMA2, "t(0)", 1.0, 0.0188),  # 1.871e-2
    (GAMMA2, "t(1)", 0.890832873988, 0.0456),  # 4.555e-2
    (GAMMA2, "delta_c", 0.872670362058, 0.0518),  # 5.175e-2
    (GAMMA2, "alpha0", 2.0 * series_c() / math.pi ** 2, 0.119),  # 1.1872e-1
    (GAMMA2, "t(0) spread", 0.0, 0.0131),  # 1.3045e-2
    (ONECUSP, "t(0)", 0.605373009866567, 2.22e-7),  # 2.219e-7
    (ONECUSP, "t(1)", 0.423653533481690, 1.41e-5),  # 1.409e-5
    (ONECUSP, "delta_c", 0.4082354813779, 1.80e-5),  # 1.792e-5
    (ONECUSP, "t(0) spread", 0.0, 1.02e-5),  # 1.0098e-5
    (ONECUSP, "t(0) partition spread", 0.0, 7.7e-8),  # 7.669e-8
    (ONECUSP, "t(1) partition spread", 0.0, 3.11e-7),  # 3.106e-7
    (ONECUSP, "delta_c partition spread", 0.0, 3.67e-7),  # 3.664e-7
]


@pytest.fixture(scope="module")
def engine():
    """The engine's quantities on each preset's default run: t(0) off the
    default curve as ``spectrum`` solves it, alpha0 as ``spectrum``
    reports it off that curve, t(1) by one solve on the same system,
    delta_c, the spread of t(0) over the preset's chart and ``CHARTS``,
    and the distance of t(0), t(1) and delta_c from those on the preset's
    other partition in ``PARTITIONS``, each by one solve."""
    values = {}
    for preset in sorted({row[0] for row in ROWS}):
        cfg = config_from_preset(preset)
        pres = build_group(cfg.group_config())
        sysm = fuchsian_system(pres, cfg.cap)
        curve = gdms.free_energy_curve(sysm, cfg.betas())
        curve.validate()
        t0 = float(curve.t[list(curve.betas).index(0.0)])
        values[preset, "t(0)"] = t0
        values[preset, "alpha0"] = spectrum(curve).alpha0
        values[preset, "t(1)"] = gdms.free_energy(sysm, 1.0).t
        values[preset, "delta_c"] = gdms.delta_c(
            fuchsian_system(pres, 2, restricted=True)).t
        ts = [t0]
        for chart in CHARTS:
            moved = build_group(conjugate_config(
                cfg.group_config(), MobiusMap.from_entries(*chart)))
            ts.append(gdms.free_energy(fuchsian_system(moved, cfg.cap),
                                       0.0).t)
        values[preset, "t(0) spread"] = max(ts) - min(ts)
        if preset in PARTITIONS:
            arcs = build_group(PARTITIONS[preset])
            arcs_sys = fuchsian_system(arcs, cfg.cap)
            for quantity, value in (
                    ("t(0)", gdms.free_energy(arcs_sys, 0.0).t),
                    ("t(1)", gdms.free_energy(arcs_sys, 1.0).t),
                    ("delta_c", gdms.delta_c(
                        fuchsian_system(arcs, 2, restricted=True)).t)):
                values[preset, quantity + " partition spread"] = abs(
                    value - values[preset, quantity])
    return values


@pytest.mark.parametrize("preset, quantity, answer, bound", ROWS,
                         ids=["%s-%s" % row[:2] for row in ROWS])
def test_known_answer(engine, preset, quantity, answer, bound):
    assert abs(engine[preset, quantity] - answer) <= bound


def test_series_c():
    # the Euler-Maclaurin tail closes the sum: at n = 100 the first
    # neglected term moves c by 2e-11, and n = 1000 and 10000 agree
    assert series_c() == pytest.approx(series_c(10_000), abs=1e-15)
    assert series_c(100) == pytest.approx(series_c(), abs=1e-10)
    assert 2.0 * series_c() / math.pi ** 2 == pytest.approx(
        0.277508504185874, abs=1e-15)
