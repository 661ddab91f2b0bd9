import math

import numpy as np
import pytest

from cuspwind import gdms
from cuspwind import spectrum as sp
from cuspwind.config import RunConfig
from cuspwind.errors import InvalidCurve, NotConvex
from cuspwind.gdms import FreeEnergyCurve
from cuspwind.induced import fuchsian_system
from oracles import (
    WIDE_BETAS,
    InsufficientGridReach,
    endpoint_slopes,
    legendre,
)


def synthetic_curve(betas, fn):
    betas = np.asarray(betas, dtype=float)
    t = np.array([fn(b) for b in betas])
    return FreeEnergyCurve(betas, t, t - (0.5 - betas),
                           np.zeros(len(betas)), np.zeros(len(betas), int))


@pytest.fixture(scope="module")
def onecusp_curve(onecusp):
    sysm = fuchsian_system(onecusp, 200)
    return gdms.free_energy_curve(sysm, WIDE_BETAS)


# --- legendre ---------------------------------------------------------------

def test_legendre_quadratic_self_dual():
    c = np.linspace(-5, 5, 101)
    vals, att = legendre(c, c ** 2 / 2.0, np.linspace(-4, 4, 17))
    ps = np.linspace(-4, 4, 17)
    assert np.abs(vals - ps ** 2 / 2.0).max() <= (c[1] - c[0]) ** 2
    assert att.all()


def test_legendre_affine():
    c = np.linspace(-2, 2, 41)
    a, b = 0.7, -1.3
    vals, att = legendre(c, a + b * c, np.array([b, b + 0.5]))
    assert vals[0] == pytest.approx(-a, abs=1e-12)
    assert att[0] == False  # sup of an affine function sits on the boundary
    assert not att[1]


def test_legendre_involution():
    c = np.linspace(-3, 3, 121)
    g = np.cosh(c)  # strictly convex
    ps = np.linspace(-8, 8, 161)
    ghat, _ = legendre(c, g, ps)
    back, att = legendre(ps, ghat, c[30:-30])
    assert np.abs(back - g[30:-30]).max() <= 5e-3


def test_legendre_rejects_nonconvex():
    c = np.linspace(-1, 1, 21)
    with pytest.raises(NotConvex):
        legendre(c, -c ** 2, [0.0])


# --- spectrum on synthetic curves -------------------------------------------

def test_synthetic_sqrt_curve_slopes_finite():
    betas = np.linspace(-5, 5, 81)
    curve = synthetic_curve(betas, lambda b: math.sqrt(1.0 + b * b))
    spec = sp.spectrum(curve)
    # -t' = -b/sqrt(1+b^2), monotone decreasing, range inside (-1, 1)
    lo, hi = spec.alphas[0], spec.alphas[-1]
    assert lo == pytest.approx(-5.0 / math.sqrt(26.0), abs=1e-3)
    assert hi == pytest.approx(5.0 / math.sqrt(26.0), abs=1e-3)
    es = endpoint_slopes(spec, lo=lo, hi=hi)
    assert abs(es.left_parametric) <= 5.0
    assert abs(es.right_parametric) <= 5.0
    assert es.diverging == (False, False)


def test_synthetic_degenerate_alpha_range():
    # psi proportional to zeta makes t affine: alpha is constant
    betas = np.linspace(-4, 4, 33)
    curve = synthetic_curve(betas, lambda b: 1.0 - 0.5 * b)
    alphas = sp.spectrum(curve).alphas
    lo, hi = alphas[0], alphas[-1]
    assert hi - lo <= 1e-10
    assert lo == pytest.approx(0.5)


def test_endpoint_reach_guard():
    betas = np.linspace(-2, 2, 21)
    curve = synthetic_curve(betas, lambda b: math.sqrt(1.0 + b * b))
    spec = sp.spectrum(curve)
    with pytest.raises(InsufficientGridReach):
        endpoint_slopes(spec)  # nowhere near [0, 1]


def test_spectrum_rows_follow_decreasing_beta():
    # t = 0.6 + s(beta) with s' from -1 to 0, flat for beta > 0 up to a
    # few ulps of noise, so alpha there is 0 with noise of either sign;
    # the noise must not reorder the rows
    betas = np.array([-20.0 + 1.25 * k for k in range(33)])
    noise = np.resize([1, -3, 2, 0, -1, 3, -2], len(betas)) * 2.0 ** -52
    t = np.where(betas <= -1.0, 0.1 - betas,
                 0.6 + np.where(betas <= 0.0, betas * betas / 2.0, noise))
    spec = sp.spectrum(synthetic_curve(betas, dict(zip(betas, t)).get))
    right = spec.alphas[spec.beta_source > 1.0]
    assert right.min() < 0.0 < right.max()
    assert np.all(np.abs(right) <= 1e-14)
    assert list(spec.beta_source) == list(betas[::-1])
    assert spec.alphas[-1] == 1.0


@pytest.mark.parametrize("betas", [
    np.linspace(5.0, -5.0, 21),
    np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0]),
    np.array([0.0]),
], ids=["descending", "repeated", "single"])
def test_spectrum_rejects_betas_not_strictly_increasing(betas):
    # rows run by decreasing beta because the increasing grid is reversed,
    # never sorted: any other grid is refused, convex as its t may be
    curve = synthetic_curve(betas, lambda b: math.sqrt(1.0 + b * b))
    with pytest.raises(InvalidCurve, match="strictly increasing"):
        sp.spectrum(curve)


def test_spectrum_rows_on_the_default_grid(onecusp):
    betas = RunConfig().betas()
    curve = gdms.free_energy_curve(fuchsian_system(onecusp, 60), betas)
    spec = sp.spectrum(curve)
    assert list(spec.beta_source) == sorted(betas, reverse=True)
    assert list(spec.err_t) == list(curve.err_t[::-1])
    assert spec.validate()


def test_validate_rejects_alpha_below_zero():
    def curve(alpha_first):
        return sp.SpectrumCurve(np.array([alpha_first, 0.5, 1.0]),
                                np.array([0.4, 0.7, 0.5]),
                                np.array([5.0, 0.0, -5.0]), np.zeros(3),
                                0.5)

    assert curve(0.0).validate()
    assert curve(-1e-10).validate()
    with pytest.raises(InvalidCurve, match="alpha"):
        curve(-1e-6).validate()


def test_validate_rejects_f_above_one():
    # f is the Hausdorff dimension of a subset of the circle
    def curve(f_top):
        return sp.SpectrumCurve(np.array([0.0, 0.5, 1.0]),
                                np.array([0.4, f_top, 0.5]),
                                np.array([5.0, 0.0, -5.0]), np.zeros(3),
                                0.5)

    assert curve(1.0).validate()
    assert curve(1.0 + 1e-10).validate()
    with pytest.raises(InvalidCurve, match="exceeds 1"):
        curve(1.0 + 1e-6).validate()


# --- spectrum on a real curve -------------------------------------------------

def test_spectrum_max_at_t0(onecusp_curve):
    spec = sp.spectrum(onecusp_curve)
    k0 = int(np.argmin(np.abs(onecusp_curve.betas)))
    t0 = onecusp_curve.t[k0]
    assert spec.f.max() == pytest.approx(t0, abs=1e-3)
    # maximum realized at alpha* = -t'(0) = alpha0
    astar = spec.alphas[int(np.argmax(spec.f))]
    assert astar == pytest.approx(spec.alpha0, abs=1e-6)
    assert spec.validate()


def test_spectrum_alpha_range_brackets(onecusp_curve):
    alphas = sp.spectrum(onecusp_curve).alphas
    lo, hi = alphas[0], alphas[-1]
    assert -0.02 <= lo <= 0.02
    assert 0.98 <= hi <= 1.02


def test_spectrum_endpoints(onecusp, onecusp_curve):
    spec = sp.spectrum(onecusp_curve)
    restricted = fuchsian_system(onecusp, 2, restricted=True)
    dc = gdms.free_energy(restricted, 0.0).t
    assert abs(spec.f[0] - dc) <= 0.05
    assert abs(spec.f[-1] - 0.5) <= 0.05


def test_spectrum_slope_divergence_flags(onecusp_curve):
    spec = sp.spectrum(onecusp_curve)
    es = endpoint_slopes(spec)
    assert abs(es.left_parametric) > 1e3
    assert abs(es.right_parametric) > 1e3
    assert es.diverging == (True, True)
    # difference quotients saturate but keep the right signs
    assert es.left_quotient > 0.0
    assert es.right_quotient < 0.0


def test_parametric_matches_direct_transform(onecusp_curve):
    spec = sp.spectrum(onecusp_curve)
    mask = (spec.alphas > 0.05) & (spec.alphas < 0.95)
    vals, att = legendre(onecusp_curve.betas, onecusp_curve.t,
                            -spec.alphas[mask])
    grid_tol = float(np.diff(onecusp_curve.betas).min()) ** 2
    assert np.all(att)
    assert np.abs((-vals) - spec.f[mask]).max() <= 2.0 * max(grid_tol, 1e-4)


def test_monotone_refinement(onecusp):
    """Halving the grid changes f by no more than the previous change."""
    sysm = fuchsian_system(onecusp, 100)
    probes = np.array([-4.0, -2.0, 2.0, 4.0])

    def f_at(step):
        betas = sorted(set(list(np.arange(-12.0, 12.01, step)) + [-30., 30.]))
        curve = gdms.free_energy_curve(sysm, betas)
        spec = sp.spectrum(curve)
        out = []
        for b in probes:
            k = int(np.argmin(np.abs(spec.beta_source - b)))
            out.append(spec.f[k])
        return np.array(out)

    f4, f2, f1 = f_at(4.0), f_at(2.0), f_at(1.0)
    change_coarse = np.abs(f2 - f4).max()
    change_fine = np.abs(f1 - f2).max()
    assert change_fine <= change_coarse + 1e-9


def test_alpha0_is_the_slope_at_beta_zero_or_nan():
    # t = log(e^-beta + 1) - log 2 + 1/2 has -t'(beta) = 1 / (1 + e^beta),
    # 1/2 at beta = 0; a grid without beta = 0 has no alpha0, while the
    # beta nearest 0 there (-6.67) has alpha 0.9987
    def fn(b):
        return math.log1p(math.exp(-b)) - math.log(2.0) + 0.5

    spec = sp.spectrum(synthetic_curve(np.linspace(-20.0, 20.0, 33), fn))
    assert spec.alpha0 == pytest.approx(0.5, abs=1e-4)
    # here the node at 0 reads 1.7e-16, the grid's rounding
    rounded = synthetic_curve(np.linspace(-0.3, 0.1, 5) * 3.0, fn)
    assert sp.spectrum(rounded).alpha0 == pytest.approx(0.5, abs=1e-2)
    assert math.isnan(sp.spectrum(
        synthetic_curve(np.linspace(-20.0, 20.0, 4), fn)).alpha0)
