import itertools
import math

import pytest

from cuspwind import geometry
from cuspwind.errors import (
    Elementary,
    GroupValidationError,
    NoParabolic,
    NotFree,
    NotUnitDeterminant,
)
from cuspwind.fuchsian import (
    CircleInterval,
    build_group,
    conjugate_config,
)
from cuspwind.mobius import (
    INF,
    MobiusMap,
    apply_plane,
    compose,
    geodesic_distance_between,
    hyperbolic_distance,
)
from cuspwind.presets import preset_config
from oracles import contains_interval

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

def test_interval_wrap_membership_and_midpoint():
    j = CircleInterval(1.0, INF)  # (1, oo)
    assert j.contains(2.0)
    assert not j.contains(0.5)
    assert not j.contains(1.0)
    assert j.midpoint() == pytest.approx(1.0 + math.sqrt(2.0))
    jw = CircleInterval(INF, -1.0)  # [-oo, -1)
    assert jw.contains(-5.0)
    assert not jw.contains(0.0)
    assert jw.midpoint() == pytest.approx(-1.0 - math.sqrt(2.0))


def test_interval_disjointness_allows_touching():
    j1 = CircleInterval(0.0, 1.0)
    j2 = CircleInterval(1.0, INF)
    j3 = CircleInterval(0.5, 2.0)
    assert j1.disjoint_from(j2)
    assert not j1.disjoint_from(j3)


# --- build_group ------------------------------------------------------------

def test_gamma2_builds_and_counts(gamma2):
    # two cusps, both of a parabolic pair, and no hyperbolic pair
    assert sorted(gamma2.horocircles) == ["A", "B", "a", "b"]
    assert sorted(gamma2.labels()) == ["A", "B", "a", "b"]
    assert gamma2.inv("a") == "A" and gamma2.inv("B") == "b"


def test_markov_covering_on_endpoints(any_group):
    # image of each interval under the expanding branch covers exactly the
    # complement of the paired interval; check every other interval fits
    for label in any_group.labels():
        g = any_group.gen(label)
        img = g.interval.image(g.map.inverse())
        for other in any_group.labels():
            if other == any_group.inv(label):
                continue
            assert contains_interval(img, any_group.interval_of(other),
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


def test_markov_mismatch_not_free():
    # shrink one interval: endpoint correspondence breaks
    cfg = rotated({"b": {"interval": [0.1, 0.9]}})
    with pytest.raises(NotFree):
        build_group(cfg)


# --- horocircles ------------------------------------------------------------

def test_horocircle_translation_one_has_height_half():
    # no full validation needed: exercise the constructor directly
    from cuspwind.fuchsian import _horocircle_from_map

    h = _horocircle_from_map(TRANSLATION_ONE)
    assert math.isinf(h.base)
    assert h.size == pytest.approx(0.5)


def test_horocircle_z_plus_two_has_height_one(gamma2):
    h = gamma2.horocircles["a"]
    assert math.isinf(h.base)
    assert h.size == pytest.approx(1.0)


def test_horocircle_quarter_inversion_case():
    # gamma = Delta^{-1} (z+1) Delta with Delta = -1/(4z): circle at 0 of
    # euclidean height 1/2
    delta = MobiusMap.from_entries(0.0, -1.0, 4.0, 0.0)
    gamma = compose(compose(delta.inverse(), TRANSLATION_ONE), delta)
    from cuspwind.fuchsian import _horocircle_from_map

    h = _horocircle_from_map(gamma)
    assert h.base == pytest.approx(0.0)
    assert h.size == pytest.approx(0.5)


def test_horocircle_invariant_under_its_parabolic(any_group):
    # g maps its horocircle onto itself, and moves each point of it by
    # acosh 3, the displacement of z -> z + 1 at height 1/2
    for label, h in any_group.horocircles.items():
        g = any_group.gen(label).map
        for k in range(16):
            pt = h.boundary_point_at((k + 0.5) / 16)
            img = apply_plane(g, pt)
            if h.is_line():
                assert img.y == pytest.approx(h.size, abs=1e-10)
            else:
                rho = 0.5 * h.size
                assert math.hypot(img.x - h.base, img.y - rho) \
                    == pytest.approx(rho, abs=1e-10)
            assert hyperbolic_distance(pt, img) == pytest.approx(
                math.acosh(3.0), abs=1e-10)


def test_horoballs_pairwise_disjoint(any_group):
    balls = any_group.all_horoballs()
    for b1, b2 in itertools.combinations(balls, 2):
        assert geometry.horoballs_disjoint(b1, b2, tol=1e-9)


def test_gamma2_accidental_cusps_found(gamma2):
    bases = sorted(h.base for h in gamma2.accidental_horocircles)
    assert bases == pytest.approx([-1.0, 1.0])
    for h in gamma2.accidental_horocircles:
        assert h.size == pytest.approx(1.0)


def test_onecusp_has_no_accidental_cusps(onecusp):
    assert onecusp.accidental_horocircles == []


# --- constants --------------------------------------------------------------

def test_c1_log3_when_sides_are_far(onecusp):
    assert onecusp.c1 == pytest.approx(math.log(3.0))
    assert onecusp.constant_c2() >= math.log(4.0)


def test_c1_zero_for_gamma2(gamma2):
    # touching sides at the accidental cusps force C1 = 0
    assert gamma2.c1 == pytest.approx(0.0, abs=1e-12)


def test_c2_at_least_log4(any_group):
    assert any_group.constant_c2() >= math.log(4.0) - 1e-12


def test_side_distance_against_sampled_minimum(onecusp):
    # independent check of the closed-form geodesic distance: sample points
    # on both sides, minimize, refine the mesh
    ja = onecusp.interval_of("a")
    jh = onecusp.interval_of("h")
    exact = geodesic_distance_between(ja.lo, ja.hi, jh.lo, jh.hi)

    from cuspwind.mobius import hyperbolic_distance

    def sampled(n):
        best = math.inf
        g1, g2 = ja.geodesic(), jh.geodesic()
        for i in range(1, n):
            p = g1.point_at(math.pi * i / n)
            for j in range(1, n):
                q = g2.point_at(math.pi * j / n)
                best = min(best, hyperbolic_distance(p, q))
        return best

    coarse, fine = sampled(40), sampled(80)
    assert fine <= coarse + 1e-12
    assert abs(fine - exact) < 0.01


def test_c0_monotone_and_stable(gamma2):
    c48 = gamma2.constant_c0(48)
    c96 = gamma2.constant_c0(96)
    assert c96 >= c48 - 1e-12  # nested grids
    assert abs(c96 - c48) <= 0.01 * c48


def test_conjugation_helper_preserves_validation():
    m = MobiusMap.from_entries(1.0, 1.0, 0.0, 1.0)
    cfg = conjugate_config(preset_config("one-cusp-one-hyperbolic"), m)
    g = build_group(cfg)
    assert sorted(g.horocircles) == ["A", "a"]  # one cusp
    assert g.c1 == pytest.approx(math.log(3.0))


def test_horocircle_of_requires_parabolic(onecusp):
    # only the parabolic generators get a horocircle
    assert sorted(onecusp.horocircles) == ["A", "a"]
    h = onecusp.horocircles["a"]
    assert h.base == pytest.approx(0.0)
    assert h.size == pytest.approx(1.0)
