import math

import pytest

from cuspwind.geometry import Horoball, horoballs_disjoint
from cuspwind.mobius import boundary_angle
from oracles import (
    Geodesic,
    horoball_depth,
    horoball_point,
    hyperbolic_distance,
)


def horoball_at(x, diameter):
    """The horoball of euclidean diameter ``diameter`` at the finite x."""
    n = math.hypot(x, 1.0)
    return Horoball((x / n, 1.0 / n), (1.0 + x * x) / diameter)


@pytest.mark.parametrize("lo, hi, inside, outside", [
    (-1.0, 1.0, (0.0, 0.5), (0.0, 2.0)),
    (0.0, math.inf, (3.0, 0.1), (-3.0, 0.1)),
    # an arc through oo: the complement of the half-disc over (-1, 1)
    (1.0, -1.0, (0.0, 2.0), (0.0, 0.5))])
def test_geodesic_over_arc_ends_and_side(lo, hi, inside, outside):
    inside, outside = complex(*inside), complex(*outside)
    a, b = boundary_angle(lo), boundary_angle(hi)
    g = Geodesic.over_arc(a, (b - a) % (2.0 * math.pi))
    t = g.axis
    assert boundary_angle(t.b / t.d) == pytest.approx(a)  # T(0)
    assert boundary_angle(t.a / t.c if t.c else math.inf) == pytest.approx(b)
    assert g.sinh_distance(inside) > 0.0 > g.sinh_distance(outside)
    # sinh of the distance from the vertical line over 0 is x / y
    if (lo, hi) == (0.0, math.inf):
        assert g.sinh_distance(complex(3.0, 0.1)) == pytest.approx(30.0)


def test_geodesic_through_points_is_parametrised_by_arc_length():
    z, w = complex(0.3, 0.7), complex(-2.0, 0.05)
    g = Geodesic.through(z, w)
    assert g.param(z) == pytest.approx(0.0, abs=1e-14)
    assert g.param(w) == pytest.approx(hyperbolic_distance(z, w))
    for s in (-1.0, 0.5, 2.0):
        p = g.point_at(s)
        assert g.param(p) == pytest.approx(s)
        assert hyperbolic_distance(z, p) == pytest.approx(abs(s))


def test_crossing_of_two_geodesics():
    # the axis crosses the semicircle over (-2, 2) at 2i, and misses the
    # one over (1, 3)
    axis = Geodesic.through(complex(0.0, 1.0), complex(0.0, 3.0))
    semi = Geodesic.over_arc(boundary_angle(-2.0),
                             boundary_angle(2.0) - boundary_angle(-2.0))
    (s,) = axis.crossings(semi)
    assert s == pytest.approx(math.log(2.0))
    far = Geodesic.over_arc(boundary_angle(1.0),
                            boundary_angle(3.0) - boundary_angle(1.0))
    assert axis.crossings(far) == []


def test_crossings_with_horocircles():
    axis = Geodesic.through(complex(0.0, 1.0), complex(0.0, 3.0))
    # the line Im z = 2 (base oo, an end of the axis): one crossing
    assert axis.horoball_crossings(Horoball((1.0, 0.0), 2.0)) \
        == pytest.approx([math.log(2.0)])
    # the circle of diameter 1 at 1/4 meets x = 0 at 1/2 -+ sqrt(3/16)
    got = axis.horoball_crossings(horoball_at(0.25, 1.0))
    assert got == pytest.approx(
        [math.log(0.5 - math.sqrt(0.1875)), math.log(0.5 + math.sqrt(0.1875))])
    assert axis.horoball_crossings(horoball_at(1.0, 1.0)) == []


def test_horoball_depth_and_horocircle_points():
    ball = horoball_at(2.0, 0.5)
    assert ball.angle == pytest.approx(boundary_angle(2.0))
    assert horoball_depth(ball, complex(2.0, 0.5)) == pytest.approx(0.0)
    # depth is the distance below the horocircle, along the vertical line
    assert horoball_depth(ball, complex(2.0, 0.5 / math.e)) \
        == pytest.approx(1.0)
    assert horoball_depth(ball, complex(2.0, 1.0)) < 0.0
    for x in (-3.0, 0.0, 0.4):
        assert horoball_depth(ball, horoball_point(ball, x)) \
            == pytest.approx(0.0, abs=1e-12)


def test_horoball_disjointness_is_relative_at_tangency():
    # tangent balls far out: diameters 1e4 at 0 and at 1e4, whose
    # euclidean test read their squared distance 1e8 against 1e8 - 1e-9
    a, b = horoball_at(0.0, 1e4), horoball_at(1e4, 1e4)
    assert horoballs_disjoint(a, b)
    assert not horoballs_disjoint(a, horoball_at(1e4, 1.0001e4))
    assert horoballs_disjoint(Horoball((1.0, 0.0), 1.0), horoball_at(5.0, 1.0))
    assert not horoballs_disjoint(Horoball((1.0, 0.0), 1.0),
                                  Horoball((1.0, 0.0), 3.0))
