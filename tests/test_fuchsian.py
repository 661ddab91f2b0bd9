import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from cuspwind import geometry
from cuspwind.errors import (
    Elementary,
    GroupValidationError,
    NoParabolic,
    NotFree,
    NotUnitDeterminant,
)
from cuspwind.fuchsian import (
    ANGLE_TOL,
    CircleInterval,
    _core_gaps,
    _limit_set_bounds,
    angle_distance,
    build_group,
    conjugate_config,
    constant_c0,
    core_boundary_samples,
    constants_c1,
)
from cuspwind.mobius import (
    MobiusMap,
    apply_boundary,
    apply_plane,
    boundary_angle,
    boundary_from_angle,
    compose,
    geodesic_distance_between,
    hyperbolic_distance,
)
from cuspwind.presets import preset_config
from oracles import close_to, contains_interval

TRANSLATION_ONE = MobiusMap.from_entries(1.0, 1.0, 0.0, 1.0)


def rotated(entry_updates, base_name="gamma2-type"):
    cfg = preset_config(base_name)
    out = {"name": "mutated", "generators": []}
    for entry in cfg["generators"]:
        e = dict(entry)
        e.update(entry_updates.get(entry["label"], {}))
        out["generators"].append(e)
    return out


# --- intervals --------------------------------------------------------------

def real_arc(lo, hi):
    """The arc between the real boundary points lo and hi."""
    return CircleInterval.between(boundary_angle(lo), boundary_angle(hi))


def test_interval_wrap_membership_and_midpoint():
    j = real_arc(1.0, math.inf)  # (1, oo)
    assert j.contains(boundary_angle(2.0))
    assert not j.contains(boundary_angle(0.5))
    assert not j.contains(boundary_angle(1.0))
    assert boundary_from_angle(j.point_at(0.5)) == pytest.approx(
        1.0 + math.sqrt(2.0))
    jw = real_arc(math.inf, -1.0)  # [-oo, -1)
    assert jw.contains(boundary_angle(-5.0))
    assert not jw.contains(boundary_angle(0.0))
    assert boundary_from_angle(jw.point_at(0.5)) == pytest.approx(
        -1.0 - math.sqrt(2.0))


def test_offset_on_arc_sends_a_point_past_the_arc_to_the_nearer_end():
    j = real_arc(0.0, 1.0)

    def offset_on_arc(x):
        return j.offset_on_arc(boundary_angle(x))

    assert offset_on_arc(0.5) == j.offset(boundary_angle(0.5))
    assert offset_on_arc(1.0 + 1e-6) == j.arc
    # just below lo the offset reads 2 pi - eps
    assert j.offset(boundary_angle(-1e-6)) > math.pi
    assert offset_on_arc(-1e-6) == 0.0
    assert offset_on_arc(-0.5) == 0.0
    assert offset_on_arc(5.0) == j.arc


def test_interval_disjointness_allows_touching():
    j1 = real_arc(0.0, 1.0)
    j2 = real_arc(1.0, math.inf)
    j3 = real_arc(0.5, 2.0)
    assert j1.disjoint_from(j2)
    assert not j1.disjoint_from(j3)


@pytest.mark.parametrize("lo", [1e17, -1e17])
def test_endpoints_coinciding_across_infinity_are_rejected(lo):
    # +-1e17 lies 2e-17 rad from oo on either side; the arc to oo is
    # degenerate whichever side the rounding puts it
    with pytest.raises(GroupValidationError):
        real_arc(lo, math.inf)
    with pytest.raises(GroupValidationError):
        real_arc(math.inf, lo)


@settings(max_examples=300, deadline=None)
@given(lo1=st.floats(0.0, 2.0 * math.pi), arc1=st.floats(0.01, 6.2),
       lo2=st.floats(0.0, 2.0 * math.pi), arc2=st.floats(0.01, 6.2),
       touch=st.sampled_from([None, "after", "before"]))
def test_disjointness_against_sampled_points(lo1, arc1, lo2, arc2, touch):
    # disjoint_from agrees with sampling both arcs' interiors, on a grid
    # and 1e-6 of the arc from each end; arcs that touch at one end are
    # disjoint exactly when the rest of the circle holds the other arc.
    # An end lies on the other's start or 1e-4 or more away from it, where
    # the samples next to the ends see any overlap
    if touch == "after":
        lo2 = lo1 + arc1
    elif touch == "before":
        lo2 = lo1 - arc2
    for gap in (lo2 - lo1 - arc1, lo1 - lo2 - arc2):
        assume(not 1e-12 <= angle_distance(gap, 0.0) <= 1e-4)
    j1 = CircleInterval.between(lo1, lo1 + arc1)
    j2 = CircleInterval.between(lo2, lo2 + arc2)
    fracs = [1e-6, 1.0 - 1e-6] + [(k + 0.5) / 400 for k in range(400)]
    overlap = any(j1.contains(j2.point_at(f)) for f in fracs) \
        or any(j2.contains(j1.point_at(f)) for f in fracs)
    assert j1.disjoint_from(j2) == j2.disjoint_from(j1) == (not overlap)


# --- build_group ------------------------------------------------------------

def test_gamma2_builds_and_counts(gamma2):
    # two cusps, both of a parabolic pair, and no hyperbolic pair
    assert sorted(horoball_labels(gamma2)) == ["A", "B", "a", "b"]
    assert sorted(gamma2.gens) == ["A", "B", "a", "b"]
    assert gamma2.gens["a"].inverse == "A" and gamma2.gens["B"].inverse == "b"


def test_markov_covering_on_endpoints(any_group):
    # image of each interval under the expanding branch covers exactly the
    # complement of the paired interval; check every other interval fits
    for label in any_group.gens:
        g = any_group.gens[label]
        img = g.interval.image(g.map.inverse())
        for other in any_group.gens:
            if other == g.inverse:
                continue
            assert contains_interval(img, any_group.gens[other].interval,
                                     tol=1e-9)


def test_single_parabolic_is_elementary():
    cfg = {
        "name": "one-parabolic",
        "generators": [preset_config("gamma2-type")["generators"][0]],
    }
    with pytest.raises(Elementary):
        build_group(cfg)


def test_no_parabolic_rejected():
    h = preset_config("one-cusp-one-hyperbolic")["generators"][1]
    h2 = dict(h)
    h2.update({
        "label": "k", "inverse_label": "K",
        "matrix": [2.6, -7.2, -0.8, 2.6],
        "interval": [-4.142857142857143, -2.0],
        "interval_inverse": [2.0, 5.0],
    })
    with pytest.raises(NoParabolic):
        build_group({"name": "pure-hyperbolic", "generators": [h, h2]})


def test_overlapping_intervals_not_free():
    cfg = rotated({"b": {"interval": [0.0, 1.5]}})
    with pytest.raises(NotFree):
        build_group(cfg)


def test_bad_determinant_rejected():
    cfg = rotated({"a": {"matrix": [1.0, 2.0, 0.0, 1.1]}})
    with pytest.raises(NotUnitDeterminant):
        build_group(cfg)


@pytest.mark.parametrize("update", [
    {"kind": "elliptic"}, {"matrix": [-1.0, 0.0, 0.0, -1.0]},
    {"interval": [1.0, 1.0]}, {"interval_inverse": ["inf", "inf"]}])
def test_invalid_geometry_is_a_validation_error(update):
    # an unknown kind, the identity and a degenerate arc, passed to
    # build_group directly rather than through a config file
    with pytest.raises(GroupValidationError):
        build_group(rotated({"a": update}))


def test_repeated_label_rejected():
    # the second generator taking the first one's inverse label would
    # replace that inverse
    a, b = preset_config("gamma2-type")["generators"]
    with pytest.raises(GroupValidationError, match="'A' is used by two"):
        build_group({"name": "dup",
                     "generators": [a, dict(b, inverse_label="A")]})


def test_markov_mismatch_not_free():
    # shrink one interval: endpoint correspondence breaks
    cfg = rotated({"b": {"interval": [0.1, 0.9]}})
    with pytest.raises(NotFree):
        build_group(cfg)


# --- horocircles ------------------------------------------------------------

def horoball_labels(pres) -> list:
    """The labels whose generators carry a horoball."""
    return [label for label, g in pres.gens.items()
            if g.horoball is not None]


def diameter(h) -> float:
    """Euclidean diameter of the horoball of a finite base x: the disc
    Im z >= k |z - x|^2 / (1 + x^2), with p2^2 = 1 / (1 + x^2)."""
    return 1.0 / (h.height * h.base[1] ** 2)


def test_horocircle_translation_one_has_height_half():
    # no full validation needed: exercise the constructor directly
    from cuspwind.fuchsian import _horocircle_from_map

    h = _horocircle_from_map(TRANSLATION_ONE)
    assert h.base == pytest.approx((1.0, 0.0))  # the point oo
    assert h.height == pytest.approx(0.5)


def test_horocircle_z_plus_two_has_height_one(gamma2):
    h = gamma2.gens["a"].horoball
    assert angle_distance(h.angle, boundary_angle(math.inf)) == 0.0
    assert h.height == pytest.approx(1.0)


def test_horocircle_quarter_inversion_case():
    # gamma = Delta^{-1} (z+1) Delta with Delta = -1/(4z): circle at 0 of
    # euclidean height 1/2
    delta = MobiusMap.from_entries(0.0, -1.0, 4.0, 0.0)
    gamma = compose(compose(delta.inverse(), TRANSLATION_ONE), delta)
    from cuspwind.fuchsian import _horocircle_from_map

    h = _horocircle_from_map(gamma)
    assert h.angle == pytest.approx(boundary_angle(0.0))
    assert diameter(h) == pytest.approx(0.5)


def check_horocircles_invariant(pres):
    # g maps its horocircle onto itself, and moves each point of it by
    # acosh 3, the displacement of z -> z + 1 at height 1/2
    for label in horoball_labels(pres):
        h, g = pres.gens[label].horoball, pres.gens[label].map
        for k in range(16):
            pt = h.point_at(math.tan(math.pi * ((k + 0.5) / 16 - 0.5)))
            assert h.depth(pt) == pytest.approx(0.0, abs=1e-10)
            img = apply_plane(g, pt)
            assert h.depth(img) == pytest.approx(0.0, abs=1e-10)
            assert hyperbolic_distance(pt, img) == pytest.approx(
                math.acosh(3.0), abs=1e-10)


def test_horocircle_invariant_under_its_parabolic(any_group):
    check_horocircles_invariant(any_group)


# the charts z + 0.3, 4z, z / (0.4z + 1) and a rotation of the Cayley disc
# that sends Gamma(2)'s cusp 1 to -1e4
CHARTS = ((1.0, 0.3, 0.0, 1.0), (2.0, 0.0, 0.0, 0.5), (1.0, 0.0, 0.4, 1.0),
          (math.cos(math.pi / 4 + 1e-4), math.sin(math.pi / 4 + 1e-4),
           -math.sin(math.pi / 4 + 1e-4), math.cos(math.pi / 4 + 1e-4)))


@pytest.mark.parametrize("chart", CHARTS)
@pytest.mark.parametrize("name", ["gamma2-type", "one-cusp-one-hyperbolic"])
def test_horocircle_invariant_in_conjugated_charts(name, chart):
    # the horoball of a conjugated parabolic is the image of the preset's
    m = MobiusMap.from_entries(*chart)
    pres = build_group(conjugate_config(preset_config(name), m))
    check_horocircles_invariant(pres)
    preset = build_group(preset_config(name))
    for label in horoball_labels(pres):
        h, h0 = pres.gens[label].horoball, preset.gens[label].horoball
        pt = apply_plane(m, h0.point_at(0.7))
        assert h.depth(pt) == pytest.approx(0.0, abs=1e-9)
        assert angle_distance(
            h.angle, boundary_angle(apply_boundary(
                m, boundary_from_angle(h0.angle)))) <= 1e-9


def test_horoballs_pairwise_disjoint(any_group):
    balls = any_group.cusps
    for b1, b2 in itertools.combinations(balls, 2):
        assert geometry.horoballs_disjoint(b1, b2)


# Charts in which Gamma(2)'s tangent horoballs were once read as
# overlapping (an absolute tolerance of 1e-9 on euclidean coordinates of
# 1e2-1e4): rotations of the Cayley disc by 2 theta, theta = pi i / 2000,
# and near the angles that send a cusp to oo, and perfbench's seeded
# charts 315 and 575.
def _rotation(theta):
    return (math.cos(theta), math.sin(theta), -math.sin(theta),
            math.cos(theta))


NEAR_CUSP_CHARTS = (
    _rotation(math.pi / 2000), _rotation(495 * math.pi / 2000),
    _rotation(998 * math.pi / 2000), _rotation(1503 * math.pi / 2000),
    _rotation(1.0353218432956627e-4), _rotation(math.pi / 2 + 1.32e-4),
    _rotation(3 * math.pi / 4 - 2e-4),
    (0.8576720443732561, -0.5173843309805979, -0.0021566560698725065,
     1.167247815322501),
    (0.9812315905607525, 0.014531857608840886, 0.0009417783863197987,
     1.0191413478829427))


@pytest.mark.parametrize("chart", NEAR_CUSP_CHARTS)
def test_gamma2_builds_in_charts_near_a_cusp_at_infinity(chart):
    pres = build_group(conjugate_config(preset_config("gamma2-type"),
                                        MobiusMap.from_entries(*chart)))
    balls = pres.cusps
    assert len(balls) == 4
    # each cusp touches two others: k k' (p x p')^2 = 1
    invariants = sorted(b1.height * b2.height
                        * geometry.cross(b1.base, b2.base) ** 2
                        for b1, b2 in itertools.combinations(balls, 2))
    assert invariants[:4] == pytest.approx([1.0] * 4, rel=1e-12)


def test_gamma2_accidental_cusps_found(gamma2):
    angles = sorted(h.angle for h in gamma2.cusps[2:])
    assert angles == pytest.approx([boundary_angle(-1.0),
                                    boundary_angle(1.0)])
    for h in gamma2.cusps[2:]:
        assert diameter(h) == pytest.approx(1.0)


def test_onecusp_has_no_accidental_cusps(onecusp):
    assert onecusp.cusps[1:] == ()


@st.composite
def charts(draw):
    """perfbench's chart family z -> lam z / (c z + 1) + u, as a map."""
    u, c = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    s = math.sqrt(draw(st.floats(0.5, 2.0)))
    return MobiusMap.from_entries(s + u * c / s, u / s, c / s, 1.0 / s)


N_CUSPS = {"gamma2-type": 4, "one-cusp-one-hyperbolic": 1}


def check_cusps(pres, n_cusps):
    # one horoball per parabolic pair, the first label's, in config order;
    # then the accidental ones, each at an end shared by two arcs
    labels = list(pres.gens)
    firsts = [label for label, g in pres.gens.items() if g.parabolic
              and labels.index(g.inverse) > labels.index(label)]
    assert len(pres.cusps) == n_cusps
    assert all(ball is pres.gens[label].horoball
               for ball, label in zip(pres.cusps, firsts))
    ends = [theta for g in pres.gens.values()
            for theta in (g.interval.angle_lo, g.interval.angle_hi)]
    for ball in pres.cusps[len(firsts):]:
        assert sum(angle_distance(ball.angle, e) <= ANGLE_TOL
                   for e in ends) == 2
    for b1, b2 in itertools.combinations(pres.cusps, 2):
        assert angle_distance(b1.angle, b2.angle) > ANGLE_TOL


def test_cusps_of_the_presets(any_preset, any_group):
    check_cusps(any_group, N_CUSPS[any_preset])


def test_gamma2_cusps_are_oo_0_and_pm1(gamma2):
    angles = sorted(ball.angle % (2.0 * math.pi) for ball in gamma2.cusps)
    want = sorted(boundary_angle(x) % (2.0 * math.pi)
                  for x in (math.inf, 0.0, 1.0, -1.0))
    assert angles == pytest.approx(want, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(chart=charts(), name=st.sampled_from(sorted(N_CUSPS)))
def test_cusps_in_conjugated_charts(chart, name):
    pres = build_group(conjugate_config(preset_config(name), chart))
    check_cusps(pres, N_CUSPS[name])


def check_horoballs(pres):
    # a parabolic generator carries the horoball of its own map, bit for
    # bit, and a hyperbolic one none
    from cuspwind.fuchsian import _horocircle_from_map

    for g in pres.gens.values():
        if not g.parabolic:
            assert g.horoball is None
            continue
        want = _horocircle_from_map(g.map)
        assert (g.horoball.base, g.horoball.height) \
            == (want.base, want.height)


def test_horoballs_of_the_presets(any_group):
    check_horoballs(any_group)


@settings(max_examples=20, deadline=None)
@given(chart=charts(), name=st.sampled_from(sorted(N_CUSPS)))
def test_horoballs_in_conjugated_charts(chart, name):
    check_horoballs(build_group(conjugate_config(preset_config(name), chart)))


def check_blocks(pres):
    # a parabolic block of k letters is the k-fold product of its letter,
    # and a hyperbolic block is its letter; each product rounds the
    # entries by up to ~1e-13 of the largest (9.1e-14 over 300 charts)
    for g in pres.gens.values():
        if not g.parabolic:
            assert g.block(1) is g.map
            continue
        power = g.map
        for k in range(1, 41):
            assert close_to(g.block(k), power, 5e-13 * k)
            power = compose(power, g.map)


def test_blocks_of_the_presets(any_group):
    check_blocks(any_group)


@settings(max_examples=20, deadline=None)
@given(chart=charts(), name=st.sampled_from(sorted(N_CUSPS)))
def test_blocks_in_conjugated_charts(chart, name):
    check_blocks(build_group(conjugate_config(preset_config(name), chart)))


# --- constants --------------------------------------------------------------

def test_c1_log3_when_sides_are_far(onecusp):
    assert constants_c1(onecusp) == pytest.approx(math.log(3.0))


def test_c1_zero_for_gamma2(gamma2):
    # touching sides at the accidental cusps force C1 = 0
    assert constants_c1(gamma2) == pytest.approx(0.0, abs=1e-12)


def test_c2_at_least_log4(any_group):
    # C2 = max(log 4, C0) needs a finite sampled C0
    assert 0.0 < constant_c0(any_group, 64) < math.inf


def test_side_distance_against_sampled_minimum(onecusp):
    # independent check of the closed-form geodesic distance: sample points
    # on both sides, minimize, refine the mesh
    ja = onecusp.gens["a"].interval
    jh = onecusp.gens["h"].interval
    exact = geodesic_distance_between(ja.angle_lo, ja.angle_hi,
                                      jh.angle_lo, jh.angle_hi)

    from cuspwind.mobius import hyperbolic_distance

    def sampled(n):
        # the points at tan(pi f / 2) on the axis, as C0 samples them
        best = math.inf
        g1, g2 = ja.geodesic(), jh.geodesic()
        for i in range(1, n):
            p = g1.point_at(math.log(math.tan(0.5 * math.pi * i / n)))
            for j in range(1, n):
                q = g2.point_at(math.log(math.tan(0.5 * math.pi * j / n)))
                best = min(best, hyperbolic_distance(p, q))
        return best

    coarse, fine = sampled(40), sampled(80)
    assert fine <= coarse + 1e-12
    assert abs(fine - exact) < 0.01


def test_c0_monotone_and_stable(gamma2):
    c48 = constant_c0(gamma2, 48)
    c96 = constant_c0(gamma2, 96)
    assert c96 >= c48 - 1e-12  # nested grids
    assert abs(c96 - c48) <= 0.01 * c48


def test_c0_samples_every_gap_geodesic(onecusp):
    # the geodesics over one-cusp's 3 limit-set gaps bound the convex
    # core, so each gives C0 samples; a gap's own samples are exempt from
    # its gap test, which rejects the points on its geodesic
    gaps = _core_gaps(onecusp)
    assert len(gaps) == 3
    pts = core_boundary_samples(onecusp, 64)
    for gap in gaps:
        assert any(abs(gap.sinh_distance(pt)) <= 1e-12 for pt in pts)


# the rotations of the Cayley disc, by twice these angles, under which
# the limit-set bounds and C0 once moved
ROTATIONS = (0.0, 0.05, 0.3, -2.0, 1.1, math.pi / 4, 2.5)


def rotated_group(name, theta):
    """The preset conjugated by the rotation of the Cayley disc by 2 theta
    about its centre."""
    c, s = math.cos(theta), math.sin(theta)
    return build_group(conjugate_config(preset_config(name),
                                        MobiusMap.from_entries(c, s, -s, c)))


@pytest.mark.parametrize("name", ["gamma2-type", "one-cusp-one-hyperbolic"])
def test_limit_set_bounds_do_not_move_under_rotations(name):
    # an image past the end of an arc goes to its nearer end; sent to the
    # far end, Gamma(2)'s bounds covered 98.9% of one to three of its arcs
    # and one-cusp's first arc 0.6924 or 0.7029, depending on the angle
    def fractions(pres):
        bounds = _limit_set_bounds(pres)
        return [bounds[label].arc / pres.gens[label].interval.arc
                for label in pres.gens]

    want = fractions(rotated_group(name, ROTATIONS[0]))
    if name == "gamma2-type":  # a lattice: the limit set is the circle
        assert want == pytest.approx([1.0] * 4, abs=1e-12)
    for theta in ROTATIONS[1:]:
        assert fractions(rotated_group(name, theta)) == pytest.approx(
            want, abs=1e-9)


@pytest.mark.parametrize("name", ["gamma2-type", "one-cusp-one-hyperbolic"])
def test_c0_does_not_move_under_rotations(name):
    # C0 is a conjugacy invariant up to its sampling; the rotation by
    # pi/4 sends Gamma(2)'s vertex oo to 1.27e16, and read as a finite
    # endpoint that gave C0 = 6.96 against 2.06-2.12 at the other angles
    want = constant_c0(rotated_group(name, ROTATIONS[0]), 48)
    for theta in ROTATIONS[1:]:
        assert constant_c0(rotated_group(name, theta), 48) == pytest.approx(
            want, rel=0.1)


def test_conjugation_helper_preserves_validation():
    m = MobiusMap.from_entries(1.0, 1.0, 0.0, 1.0)
    cfg = conjugate_config(preset_config("one-cusp-one-hyperbolic"), m)
    g = build_group(cfg)
    assert sorted(horoball_labels(g)) == ["A", "a"]  # one cusp
    assert constants_c1(g) == pytest.approx(math.log(3.0))


def test_horocircle_of_requires_parabolic(onecusp):
    # only the parabolic generators get a horocircle
    assert sorted(horoball_labels(onecusp)) == ["A", "a"]
    h = onecusp.gens["a"].horoball
    assert h.angle == pytest.approx(boundary_angle(0.0))
    assert diameter(h) == pytest.approx(1.0)


# --- circle symmetries ------------------------------------------------------

def symmetry_images(pres) -> list:
    """Each symmetry as the images of the labels, in label order."""
    return ["".join(sym.perm[label] for label in pres.gens)
            for sym in pres.symmetries]


@pytest.mark.parametrize("chart, want", [
    (None, {"aAbB", "AaBb", "bBaA", "BbAa"}),
    # a rotation of the Cayley disc conjugates every symmetry to one
    ((math.cos(0.3), math.sin(0.3), -math.sin(0.3), math.cos(0.3)),
     {"aAbB", "AaBb", "bBaA", "BbAa"}),
    # perfbench's chart of seed 10 is no isometry of the disc
    ((0.9575203991628636, 0.3565226346725965, -0.21871866658356112,
      0.9629265815575861), {"aAbB"})])
def test_gamma2_circle_symmetries(chart, want):
    # z -> -z, z -> 1/z and z -> -1/z: (aA)(bB), (ab)(AB) and (aB)(Ab)
    cfg = preset_config("gamma2-type")
    if chart is not None:
        cfg = conjugate_config(cfg, MobiusMap.from_entries(*chart))
    pres = build_group(cfg)
    images = symmetry_images(pres)
    assert images[0] == "aAbB" and len(images) == len(want)
    assert set(images) == want
    check_symmetries(pres)


def test_onecusp_has_only_the_identity(onecusp):
    # J_h = (2, 4.14) is no isometric image of J_H = (-5, -2)
    assert symmetry_images(onecusp) == ["aAhH"]


def check_symmetries(pres):
    # each R maps the midpoint of J_l into J_perm[l] and commutes with the
    # generators at points other than those the builder probes
    for sym in pres.symmetries:
        for label in pres.gens:
            image = pres.gens[sym.perm[label]].interval
            mid = pres.gens[label].interval.point_at(0.5)
            assert image.contains(sym.angle(mid))
            assert sym.perm[pres.gens[label].inverse] \
                == pres.gens[sym.perm[label]].inverse
            for theta in (0.4, 2.2, 4.1, 6.0):
                x = boundary_from_angle(theta)
                left = sym.angle(boundary_angle(apply_boundary(
                    pres.gens[label].map, x)))
                right = boundary_angle(apply_boundary(
                    pres.gens[sym.perm[label]].map,
                    boundary_from_angle(sym.angle(theta))))
                assert angle_distance(left, right) <= 1e-9
