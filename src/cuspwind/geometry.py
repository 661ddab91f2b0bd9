"""Horoballs in one Moebius-covariant form.

A boundary point is a homogeneous vector v of R^2, the point v1 / v2; the
point oo is (1, 0) and needs no case of its own.  A horoball is
{z : Im z >= k |p2 z - p1|^2} for a homogeneous base p and a height k.  A
Moebius map M carries it to the horoball of base M p and the same k, so
k k' (p x p')^2 is an invariant of two horoballs; with p a unit vector, k
is the euclidean height of the horocircle in the chart where the rotation
about i that sends p to oo has been applied.  A presentation keeps one
horoball per cusp, and ``build_group`` refuses two that overlap.
"""

from __future__ import annotations

from .mobius import vector_angle

# Relative tolerance of the tangency k k' (p x p')^2 = 1 of two horoballs:
# Gamma(2)'s cusps are pairwise tangent.
TANGENCY_TOL = 1e-9


def cross(p: tuple, q: tuple) -> float:
    return p[0] * q[1] - p[1] * q[0]


class Horoball:
    """{z : Im z >= k |p2 z - p1|^2} for the unit base p = ``base`` and the
    height k = ``height``."""

    def __init__(self, base: tuple, height: float):
        self.base, self.height = base, height

    @property
    def angle(self) -> float:
        """Circle angle of the base, in [0, 2 pi] (``vector_angle``)."""
        return vector_angle(self.base)


def horoballs_disjoint(b1: Horoball, b2: Horoball) -> bool:
    """Disjoint interiors; tangency counts as disjoint."""
    return b1.height * b2.height * cross(b1.base, b2.base) ** 2 \
        >= 1.0 - TANGENCY_TOL
