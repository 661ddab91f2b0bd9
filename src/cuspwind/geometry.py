"""Geodesics and horoballs in one Moebius-covariant form.

A boundary point is a homogeneous vector v of R^2, the point v1 / v2; the
point oo is (1, 0) and needs no case of its own.

* A geodesic is the orientation-preserving map T that sends the imaginary
  axis onto it.  The parameter of a point z is log Im T^-1 z, its signed
  arc length along the geodesic from T(i); a geodesic over a boundary arc
  has T(0) at the arc's lower end and T(oo) at its upper end, and its
  half-plane over the arc is Re T^-1 z > 0.  Crossings with another
  geodesic or a horocircle are solved on the axis after mapping by T^-1.
* A horoball is {z : Im z >= k |p2 z - p1|^2} for a homogeneous base p and
  a height k.  A Moebius map M carries it to the horoball of base M p and
  the same k, so k k' (p x p')^2 is an invariant of two horoballs; with p
  a unit vector, k is the euclidean height of the horocircle in the chart
  where the rotation about i that sends p to oo has been applied.
"""

from __future__ import annotations

import math
from functools import cached_property

from .mobius import (
    MobiusMap,
    apply_plane,
    apply_vector,
    boundary_vector,
    vector_angle,
)

# Relative tolerance of the tangency k k' (p x p')^2 = 1 of two horoballs:
# Gamma(2)'s cusps are pairwise tangent.
TANGENCY_TOL = 1e-9


def cross(p: tuple, q: tuple) -> float:
    return p[0] * q[1] - p[1] * q[0]


class Geodesic:
    """The image of the imaginary axis under the map ``axis`` (T)."""

    def __init__(self, axis: MobiusMap):
        self.axis = axis

    @staticmethod
    def over_arc(theta: float, arc: float) -> "Geodesic":
        """The geodesic over the boundary arc from circle angle theta to
        theta + arc (0 < arc < 2 pi): T(0) is its lower end, T(oo) its
        upper end, and T(i) the point of the geodesic nearest to the centre
        i of the circle chart."""
        hi, lo = boundary_vector(theta + arc), boundary_vector(theta)
        # det [hi lo] = sin(arc / 2) > 0
        return Geodesic(MobiusMap.from_entries(hi[0], lo[0], hi[1], lo[1]))

    @staticmethod
    def through(z: complex, w: complex) -> "Geodesic":
        """The geodesic from z through w, with T(i) = z, so that the
        parameter of w is the distance d(z, w)."""
        s = math.sqrt(z.imag)
        # u + iv is w seen from z: its image under w -> (w - Re z) / Im z
        u, v = (w.real - z.real) / z.imag, w.imag / z.imag
        # the rotation about i by phi turns the Cayley disc by 2 phi; it
        # takes the axis point of height e^d to u + iv
        phi = 0.5 * math.atan2(-2.0 * u, u * u + v * v - 1.0)
        c, r = math.cos(phi), math.sin(phi)
        return Geodesic(MobiusMap.from_entries(
            s * c - z.real * r / s, s * r + z.real * c / s, -r / s, c / s))

    @cached_property
    def _inverse(self) -> MobiusMap:
        return self.axis.inverse()

    def param(self, z: complex) -> float:
        return math.log(apply_plane(self._inverse, z).imag)

    def point_at(self, s: float) -> complex:
        return apply_plane(self.axis, complex(0.0, math.exp(s)))

    def sinh_distance(self, z: complex) -> float:
        """sinh of the signed distance of z from the geodesic, positive on
        the half-plane Re T^-1 z > 0."""
        w = apply_plane(self._inverse, z)
        return w.real / w.imag

    def crossings(self, other: "Geodesic") -> list:
        """The parameter of the crossing with another geodesic, if any: its
        ends T^-1 T'(0) and T^-1 T'(oo) lie on either side of the axis, and
        the crossing is at the height sqrt(-x x') of the axis."""
        m = other.axis
        x0, y0 = apply_vector(self._inverse, (m.b, m.d))
        x1, y1 = apply_vector(self._inverse, (m.a, m.c))
        if x0 * y0 * x1 * y1 >= 0.0:
            return []
        return [0.5 * math.log(-(x0 * x1) / (y0 * y1))]

    def horoball_crossings(self, ball: "Horoball") -> list:
        """Parameters of the crossings with the horocircle, in increasing
        order.  With q = T^-1 p, the axis point iy lies on it where
        k q2^2 y^2 - y + k q1^2 = 0."""
        q = apply_vector(self._inverse, ball.base)
        a, b = ball.height * q[0] ** 2, ball.height * q[1] ** 2
        disc = 1.0 - 4.0 * a * b
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        # a base at an end of the axis (a or b zero) leaves one crossing
        out = [math.log(2.0 * a / (1.0 + sq))] if a > 0.0 else []
        if b > 0.0:
            out.append(math.log((1.0 + sq) / (2.0 * b)))
        return out


class Horoball:
    """{z : Im z >= k |p2 z - p1|^2} for the unit base p = ``base`` and the
    height k = ``height``."""

    def __init__(self, base: tuple, height: float):
        self.base, self.height = base, height

    @property
    def angle(self) -> float:
        """Circle angle of the base, in [0, 2 pi] (``vector_angle``)."""
        return vector_angle(self.base)

    def depth(self, z: complex) -> float:
        """Signed distance of z from the horocircle, positive inside."""
        p = self.base
        return math.log(z.imag / (self.height * (
            (p[1] * z.real - p[0]) ** 2 + (p[1] * z.imag) ** 2)))

    def point_at(self, x: float) -> complex:
        """The point x + ik of the horocircle, moved by the rotation about
        i that sends oo to the base (x = 0 is the point nearest to i)."""
        p = self.base
        return apply_plane(MobiusMap(p[0], -p[1], p[1], p[0]),
                           complex(x, self.height))


def horoballs_disjoint(b1: Horoball, b2: Horoball) -> bool:
    """Disjoint interiors; tangency counts as disjoint."""
    return b1.height * b2.height * cross(b1.base, b2.base) ** 2 \
        >= 1.0 - TANGENCY_TOL
