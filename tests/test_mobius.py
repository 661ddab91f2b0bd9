import math

import numpy as np
import pytest
from scipy.integrate import quad

from cuspwind.mobius import (
    MobiusMap,
    apply_angle,
    apply_boundary,
    boundary_angle,
    boundary_from_angle,
    boundary_vector,
    compose,
    parabolic_power,
    vector_angle,
)
from oracles import (
    DegenerateArc,
    apply_plane,
    arc_length_above_height,
    circle_derivative_magnitude,
    close_to,
    geodesic_distance_between,
    hyperbolic_distance,
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
    assert close_to(compose(MobiusMap.from_entries(1, 0, 0, 1), m), m)
    assert close_to(compose(m, MobiusMap.from_entries(1, 0, 0, 1)), m)


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
    i = complex(0.0, 1.0)
    assert hyperbolic_distance(i, i) == 0.0
    assert hyperbolic_distance(i, complex(0.0, 2.0)) == pytest.approx(
        math.log(2.0))
    assert hyperbolic_distance(i, complex(1.0, 1.0)) == pytest.approx(
        math.acosh(1.5)
    )


def test_distance_is_mobius_invariant():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = random_map(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4.0))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4.0))
        d0 = hyperbolic_distance(z, w)
        d1 = hyperbolic_distance(apply_plane(m, z), apply_plane(m, w))
        assert abs(d0 - d1) <= 1e-10 * max(1.0, d0)


def test_plane_action_preserves_upper_half_plane():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = random_map(rng)
        z = complex(rng.uniform(-10, 10), rng.uniform(1e-3, 10.0))
        assert apply_plane(m, z).imag > 0.0


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


def angle_geodesic_distance(*xs):
    """``geodesic_distance_between`` of the real endpoints xs."""
    return geodesic_distance_between(*map(boundary_angle, xs))


def test_geodesic_distance_between_known_value():
    # imaginary axis vs semicircle over (1, 4): cosh d = 2.5/1.5
    d = angle_geodesic_distance(0.0, INF, 1.0, 4.0)
    assert d == pytest.approx(math.acosh(2.5 / 1.5), rel=1e-12)
    # shared ideal endpoint -> asymptotic, distance zero
    assert angle_geodesic_distance(0.0, 1.0, 1.0, 2.0) == 0.0
    # crossing geodesics
    assert angle_geodesic_distance(-1.0, 1.0, 0.0, 5.0) == 0.0
    # an endpoint read as 2 pi + theta is the same point
    assert geodesic_distance_between(
        math.pi, 2.0 * math.pi, boundary_angle(1.0) + 2.0 * math.pi,
        boundary_angle(4.0)) == pytest.approx(d, rel=1e-12)


def test_geodesic_distance_matches_the_plane_cross_ratio():
    # for a < b < c < d the geodesics (a, b) and (c, d) are disjoint, with
    # cosh d = 1 + 2 (d - a)(c - b) / ((b - a)(d - c)); the distance is an
    # isometry invariant, so it must not move under a Moebius map either
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b, c, d = np.sort(rng.uniform(-5.0, 5.0, size=4))
        want = math.acosh(1.0 + 2.0 * (d - a) * (c - b) / ((b - a) * (d - c)))
        assert angle_geodesic_distance(a, b, c, d) == pytest.approx(
            want, rel=1e-10)
        m = random_map(rng)
        assert geodesic_distance_between(
            *(apply_angle(m, boundary_angle(x)) for x in (a, b, c, d))) \
            == pytest.approx(want, rel=1e-10)



def test_apply_angle_is_the_boundary_action_in_angles():
    # apply_angle(m, angle(x)) = angle(m(x)) mod 2 pi at random points,
    # at oo and at the pole -d/c, which m sends to oo
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = random_map(rng)
        xs = [INF, -m.d / m.c, *rng.uniform(-10.0, 10.0, size=4)]
        for x in xs:
            got = apply_angle(m, boundary_angle(x))
            want = boundary_angle(apply_boundary(m, x))
            assert 0.0 <= got <= 2.0 * math.pi
            assert abs((got - want + math.pi) % (2.0 * math.pi) - math.pi) \
                <= 1e-9
    # the translation z + 1 fixes oo, which vector_angle reads as 0
    t = MobiusMap.from_entries(1.0, 1.0, 0.0, 1.0)
    assert apply_angle(t, 2.0 * math.pi) == 0.0
    assert apply_angle(t, boundary_angle(0.0)) == pytest.approx(
        boundary_angle(1.0), abs=1e-15)


def test_vector_angle_inverts_boundary_vector():
    for theta in np.linspace(0.0, 2.0 * math.pi, 17)[:-1]:
        v = boundary_vector(theta)
        assert vector_angle(v) == pytest.approx(theta, abs=1e-15)
        assert vector_angle((-v[0], -v[1])) == pytest.approx(theta, abs=1e-15)


def test_nilpotent_part_squares_to_zero_for_either_sign():
    # the trace -2 representative of z / (4z + 1) has the same N as the
    # trace +2 one, bit for bit
    pos = MobiusMap(1.0, 0.0, 4.0, 1.0)
    neg = MobiusMap(-1.0, -0.0, -4.0, -1.0)
    assert pos.nilpotent() == neg.nilpotent() == (0.0, 0.0, 4.0, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_map(rng)
        p = compose(compose(m, pos), m.inverse())
        n0, n1, n2, n3 = p.nilpotent()
        scale = max(map(abs, (n0, n1, n2, n3)))
        for entry in (n0 * n0 + n1 * n2, n0 * n1 + n1 * n3,
                      n2 * n0 + n3 * n2, n2 * n1 + n3 * n3):
            assert abs(entry) <= 1e-9 * scale * scale
