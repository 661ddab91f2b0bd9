import math

import numpy as np
import pytest
from scipy.integrate import quad

from cuspwind.mobius import (
    MobiusMap,
    PlanePoint,
    apply_boundary,
    apply_plane,
    boundary_angle,
    boundary_from_angle,
    compose,
    geodesic_distance_between,
    hyperbolic_distance,
    parabolic_power,
)
from oracles import (
    DegenerateArc,
    arc_length_above_height,
    circle_derivative_magnitude,
    close_to,
)

INF = math.inf


def random_map(rng):
    while True:
        a, b, c, d = rng.uniform(-3.0, 3.0, size=4)
        det = a * d - b * c
        if det > 0.1:
            return MobiusMap.from_entries(a, b, c, d)


def test_compose_inverse_pair_is_identity():
    t = MobiusMap.from_entries(1.0, 2.0, 0.0, 1.0)
    s = MobiusMap.from_entries(1.0, -2.0, 0.0, 1.0)
    assert compose(t, s).is_identity()


def test_compose_identity_law():
    m = MobiusMap.from_entries(2.0, 1.0, 3.0, 2.0)
    assert close_to(compose(MobiusMap.identity(), m), m)
    assert close_to(compose(m, MobiusMap.identity()), m)


def test_compose_direct_product():
    m1 = MobiusMap.from_entries(1, 2, 0, 1)
    m2 = MobiusMap.from_entries(1, 0, 2, 1)
    prod = compose(m1, m2)
    expect = MobiusMap.from_entries(5, 2, 2, 1)
    assert close_to(prod, expect)


def test_normalization_efter_construction_and_composition():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_map(rng)
        assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12
        n = compose(m, random_map(rng))
        assert abs(n.a * n.d - n.b * n.c - 1.0) <= 1e-12
        assert compose(m, m.inverse()).is_identity(1e-12)


def test_compose_associativity_bulk():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        m1, m2, m3 = (random_map(rng) for _ in range(3))
        lhs = compose(compose(m1, m2), m3)
        rhs = compose(m1, compose(m2, m3))
        assert close_to(lhs, rhs, 1e-10)


def test_apply_boundary_examples():
    t = MobiusMap.from_entries(1.0, 2.0, 0.0, 1.0)
    assert apply_boundary(t, 0.5) == pytest.approx(2.5)
    inv = MobiusMap.from_entries(0.0, -1.0, 1.0, 0.0)  # z -> -1/z
    assert apply_boundary(inv, INF) == pytest.approx(0.0)
    m = MobiusMap.from_entries(1, 0, 2, 1)
    assert apply_boundary(m, 1.0) == pytest.approx(1.0 / 3.0)


def test_apply_boundary_pole_goes_to_infinity():
    inv = MobiusMap.from_entries(0.0, -1.0, 1.0, 0.0)
    assert math.isinf(apply_boundary(inv, 0.0))


def test_circle_derivative_chain_rule_handles_infinity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = random_map(rng)
        n = random_map(rng)
        x = rng.uniform(-4.0, 4.0)
        lhs = circle_derivative_magnitude(compose(m, n), x)
        rhs = circle_derivative_magnitude(m, apply_boundary(n, x)) * \
            circle_derivative_magnitude(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-9)
    m = random_map(rng)
    assert circle_derivative_magnitude(m, INF) > 0.0


def test_hyperbolic_distance_values():
    i = PlanePoint(0.0, 1.0)
    assert hyperbolic_distance(i, i) == 0.0
    assert hyperbolic_distance(i, PlanePoint(0.0, 2.0)) == pytest.approx(math.log(2.0))
    assert hyperbolic_distance(i, PlanePoint(1.0, 1.0)) == pytest.approx(
        math.acosh(1.5)
    )


def test_distance_is_mobius_invariant():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = random_map(rng)
        z = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.05, 4.0))
        w = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.05, 4.0))
        d0 = hyperbolic_distance(z, w)
        d1 = hyperbolic_distance(apply_plane(m, z), apply_plane(m, w))
        assert abs(d0 - d1) <= 1e-10 * max(1.0, d0)


def test_plane_action_preserves_upper_half_plane():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = random_map(rng)
        z = PlanePoint(rng.uniform(-10, 10), rng.uniform(1e-3, 10.0))
        assert apply_plane(m, z).y > 0.0


def test_arc_length_closed_form_n3():
    # excursion over height 1/2 of the unit-radius arc
    val = arc_length_above_height(1.0, 0.5)
    assert val == pytest.approx(math.log(7.0 + 4.0 * math.sqrt(3.0)), rel=1e-12)
    assert math.log(3.0 * 4.0) <= val <= math.log(4.0 * 4.0)


def test_arc_length_against_quadrature():
    for n in (4, 10, 37):
        r = (n - 1) / 2.0
        h = 0.5
        a = math.sqrt(r * r - h * h)
        integral, err = quad(lambda t: r / (r * r - t * t), -a, a, epsabs=0.0,
                             epsrel=1e-12, limit=200)
        assert arc_length_above_height(r, h) == pytest.approx(integral, rel=1e-9)


def test_arc_length_excursion_bounds_for_all_n():
    for n in range(3, 51):
        r = (n - 1) / 2.0
        val = arc_length_above_height(r, 0.5)
        lo = math.log(3.0 * (n - 1) ** 2)
        hi = math.log(4.0 * (n - 1) ** 2)
        assert lo <= val <= hi


def test_arc_length_empty_limit_and_error():
    assert arc_length_above_height(1.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(DegenerateArc):
        arc_length_above_height(1.0, 1.0)
    with pytest.raises(DegenerateArc):
        arc_length_above_height(0.5, 0.7)


def test_parabolic_power_closed_form():
    g = MobiusMap.from_entries(1, 0, 2, 1)
    m = parabolic_power(g, 17)
    expect = MobiusMap.from_entries(1, 0, 34, 1)
    assert close_to(m, expect, 1e-12)
    gneg = MobiusMap.from_entries(-1.0, 0.0, 4.0, -1.0)  # trace -2 representative
    assert close_to(parabolic_power(gneg, 3),
                    MobiusMap.from_entries(1.0, 0.0, -12.0, 1.0), 1e-12)


def test_boundary_angle_roundtrip_and_monotonicity():
    xs = [-50.0, -1.0, -0.2, 0.0, 0.7, 1.0, 42.0]
    angles = [boundary_angle(x) for x in xs]
    assert angles == sorted(angles)
    assert boundary_angle(INF) == pytest.approx(2.0 * math.pi)
    for x in xs:
        assert boundary_from_angle(boundary_angle(x)) == pytest.approx(x, abs=1e-9)


def test_geodesic_distance_between_known_value():
    # imaginary axis vs semicircle over (1, 4): cosh d = 2.5/1.5
    d = geodesic_distance_between(0.0, INF, 1.0, 4.0)
    assert d == pytest.approx(math.acosh(2.5 / 1.5), rel=1e-12)
    # shared ideal endpoint -> asymptotic, distance zero
    assert geodesic_distance_between(0.0, 1.0, 1.0, 2.0) == 0.0
    # crossing geodesics
    assert geodesic_distance_between(-1.0, 1.0, 0.0, 5.0) == 0.0


def test_fixed_points_classification():
    t = MobiusMap.from_entries(1.0, 2.0, 0.0, 1.0)
    assert t.is_parabolic()
    assert t.fixed_points() == [INF]
    g = MobiusMap.from_entries(1, 0, 2, 1)
    assert g.is_parabolic()
    assert g.fixed_points()[0] == pytest.approx(0.0)
    ab = compose(t, g)
    assert ab.trace() ** 2 > 4.0
    fp = sorted(ab.fixed_points())
    assert fp[0] == pytest.approx(1.0 - math.sqrt(2.0))
    assert fp[1] == pytest.approx(1.0 + math.sqrt(2.0))
