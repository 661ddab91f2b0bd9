import math
from types import SimpleNamespace

import numpy as np
import pytest

from cuspwind import induced as ind
from cuspwind.coding import (
    code_point,
    conjugacy_check,
    induced_step,
    letters_of_blocks,
    point_from_symbols,
)
from cuspwind.induced import primitivity_witness
from cuspwind.fuchsian import angle_distance, build_group, conjugate_config
from cuspwind.mobius import (
    MobiusMap,
    apply_boundary,
    boundary_from_angle,
    compose,
    parabolic_power,
    unit_image,
)
from cuspwind.presets import preset_config
from oracles import (
    alphabet,
    circle_derivative_magnitude,
    close_to,
    constants_c1,
    contains_interval,
    eq4_constant,
    midpoint_vector,
    without_symmetries,
    zeta_letter,
)


def test_alphabet_counts(gamma2, onecusp):
    assert len(alphabet(gamma2, 1)) == 16
    assert len(alphabet(gamma2, 2)) == 32
    # no hyperbolic-core letters when u = 0
    assert all(gamma2.gens[e.core].parabolic for e in alphabet(gamma2, 3))
    letters = alphabet(onecusp, 1)
    assert len(letters) == 26
    assert sum(1 for e in letters
               if not onecusp.gens[e.core].parabolic) == 18


def test_psi_values(gamma2):
    # psi(e) = -2 log+(|e| - 3) = -2 log+(n - 1) for the letter g1 c^n g2:
    # the exponents 1 and 2 wind zero times, 5 winds 4 times
    psi = ind.fuchsian_system(gamma2, 8).blocks[0].psi
    assert psi[0] == 0.0 and psi[1] == 0.0
    assert psi[4] == pytest.approx(-2.0 * math.log(4.0))


def test_zeta_letter_negative_and_bracketed(any_group):
    # every letter's weight, parabolic or hyperbolic, is its family's
    # weight at the midpoint vector, the point the letter series reads
    fams = {(f.g1, f.core, f.g2): f for f in ind.letter_families(any_group)}
    c1 = constants_c1(any_group)
    for e in alphabet(any_group, 40):
        z = zeta_letter(any_group, e)
        assert z < 0.0
        f = fams[(e.symbols[0], e.core, e.symbols[-1])]
        assert f.parabolic == any_group.gens[e.core].parabolic
        n = len(e.symbols) - 2
        w = midpoint_vector(any_group, f)
        assert abs(z - f.zeta([f.row(w)], np.array([n]))[0, 0]) <= 1e-12
        if n >= 2:
            assert z <= -c1 + 0.7  # distortion slack


def test_row_at_infinity_is_the_first_column_of_the_branches(any_group):
    # theta = 2 pi is the point oo, whose unit vector is exactly (1, 0):
    # a row there reads the first columns of m0 and m1, as the x-space
    # rows did in their case for x = oo
    w = unit_image(MobiusMap.from_entries(1, 0, 0, 1), 2.0 * math.pi)
    assert w == (1.0, 0.0)
    for f in ind.letter_families(any_group):
        assert f.row(w) == (f.m0[0], f.m1[0], f.m0[2], f.m1[2])


def test_row_weights_are_the_circle_derivative(any_group):
    # at every bucket angle theta of the follower g2, zeta_n from the row
    # of the unit vector of core u(theta) is the log circle derivative of
    # the branch m0 + (n - 1) m1 at x = core(boundary_from_angle(theta)),
    # the branch being g1 c^(n-1) (to rounding: a renormalised product
    # g1 c^399 is off by ~1e-12)
    ranges = ind._bucket_ranges(400)
    for f in ind.letter_families(any_group):
        core = any_group.gens[f.core].map
        ns = [1, 2, 7, 400] if f.parabolic else [1]
        branches = [MobiusMap(*(a + (n - 1) * b for a, b in zip(f.m0, f.m1)))
                    for n in ns]
        assert all(close_to(m, compose(any_group.gens[f.g1].map,
                                       parabolic_power(core, n - 1)), 1e-9)
                   for m, n in zip(branches, ns) if f.parabolic)
        for ys in ind._bucket_reps(any_group, f.g2, ranges, True):
            for y in ys:
                got = f.zeta([f.row(unit_image(core, y))], np.array(ns))[0]
                x = apply_boundary(core, boundary_from_angle(y))
                want = [math.log(circle_derivative_magnitude(m, x))
                        for m in branches]
                assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def test_zeta_scales_like_minus_two_log_n(gamma2):
    fam = ind.letter_families(gamma2)[0]
    ns = np.array([50, 100, 200, 400])
    c = -fam.zeta([fam.row(midpoint_vector(gamma2, fam))], ns)[0] \
        - 2.0 * np.log(ns)
    assert abs(c[-1] - c[-2]) < 0.01  # converging envelope constant


def test_system_sizes(gamma2, onecusp):
    # (n_keys, n_edges, tail rows): one tail row per parabolic family,
    # follower bucket and quadrature point, and its tail column counts as
    # an edge; below TAIL_START the exponents cap+1 .. TAIL_START enter
    # the tail keys as ordinary edges, so cap 60 carries as many edges as
    # cap 64; the restricted systems have no tail.  The whole gamma2
    # operator has 8 overlap pairs and 16 families; its quotient by the
    # four symmetries keeps one pair of each of the 2 orbits and the 4
    # families leaving them
    full = without_symmetries(gamma2)
    for pres, cap, restricted, sizes in (
            (full, 60, False, (64, 16640, 256)),
            (full, 64, False, (64, 16640, 256)),
            (full, 400, False, (88, 141152, 352)),
            (gamma2, 60, False, (16, 4160, 64)),
            (gamma2, 400, False, (22, 35288, 88)),
            (onecusp, 400, False, (50, 6692, 16)),
            (full, 2, True, (16, 128, 0)),
            (gamma2, 2, True, (4, 32, 0)),
            (onecusp, 2, True, (14, 92, 0))):
        sysm = ind.fuchsian_system(pres, cap, restricted=restricted)
        tails = [block for block in sysm.blocks if block.tail is not None]
        assert len(tails) == (0 if restricted else 1)
        assert (sysm.n_keys, sysm.n_edges,
                sum(len(block.tail) for block in tails)) == sizes
        for block in tails:
            assert block.zeta.shape[1] == max(cap, ind.TAIL_START) + 1


def test_symmetries_the_buckets_break_are_dropped(gamma2, monkeypatch):
    # a symmetry of the presentation is used only if it maps the bucket
    # points of each core onto those of its image: with core a's points
    # moved by 1e-9 the operator is the whole one again
    reps = ind._bucket_reps

    def moved(pres, c, ranges, tail):
        spans = reps(pres, c, ranges, tail)
        return [tuple(y + 1e-9 for y in ys) for ys in spans] if c == "a" \
            else spans

    assert ind.fuchsian_system(gamma2, 60).n_keys == 16
    monkeypatch.setattr(ind, "_bucket_reps", moved)
    assert ind.fuchsian_system(gamma2, 60).n_keys == 64


@pytest.mark.parametrize("chart", [
    None, (1.0, 0.3, 0.0, 1.0), (2.0, 0.0, 0.0, 0.5), (1.0, 0.0, 0.4, 1.0),
    (0.9575203991628636, 0.3565226346725965, -0.21871866658356112,
     0.9629265815575861)])
def test_core_continuation_hull(chart):
    # on both presets, as given and conjugated by z+0.3, 4z, z/(0.4z+1) and
    # perfbench's chart of seed 10: the hull of the follower arcs of c
    # contains each of them, runs between two of their endpoints and
    # leaves out J_{c^-1}
    for name in ("gamma2-type", "one-cusp-one-hyperbolic"):
        cfg = preset_config(name)
        if chart is not None:
            cfg = conjugate_config(cfg, MobiusMap.from_entries(*chart))
        pres = build_group(cfg)
        for c in pres.gens:
            hull = ind._core_continuation_hull(pres, c)
            arcs = [pres.gens[g].interval for g in pres.gens
                    if pres.block_admissible(c, g)]
            assert all(contains_interval(hull, j, tol=1e-12) for j in arcs)
            ends = [a for j in arcs for a in (j.angle_lo, j.angle_hi)]
            assert all(min(angle_distance(a, e) for e in ends) <= 1e-12
                       for a in (hull.angle_lo, hull.angle_hi))
            assert not hull.contains(
                pres.gens[pres.gens[c].inverse].interval.point_at(0.5))


def test_letters_of_blocks_overlap(gamma2):
    x = point_from_symbols(gamma2, ["a", "b", "b", "a", "B", "a"])
    w = code_point(gamma2, x, 5)
    letters = letters_of_blocks(w)
    assert letters[0] == ("a", "b", "b", "a")
    assert letters[1] == ("b", "a", "B")
    assert letters[0][-2:] == letters[1][:2]


def test_conjugacy_periodic_point(gamma2):
    # periodic point of (a b): exact agreement to any depth
    x = 1.0 + math.sqrt(2.0)
    w = code_point(gamma2, x, 9)
    letters = letters_of_blocks(w)
    y = induced_step(gamma2, x)
    letters_shift = letters_of_blocks(code_point(gamma2, y, 8))
    assert letters[1:6] == letters_shift[:5]


def test_conjugacy_random_samples(any_group):
    mismatches, _ = conjugacy_check(any_group, samples=25, letters_each=6,
                                    seed=3)
    assert not mismatches, mismatches[:3]


def test_conjugacy_empty_sample(gamma2):
    mismatches, _ = conjugacy_check(gamma2, samples=0, letters_each=10,
                                    seed=7)
    assert not mismatches


def test_primitivity_witness_small(any_preset, any_group):
    n_pairs = 8 if any_preset == "gamma2-type" else 10
    assert primitivity_witness(any_group) == (3, n_pairs)


def test_primitivity_witness_needs_diameter_at_most_6(monkeypatch):
    # family (s_i, s_i+1, s_i+2) of a cyclic symbol sequence is the edge
    # from pair (s_i, s_i+1) to pair (s_i+1, s_i+2): an n-cycle of pairs,
    # whose diameter is n - 1
    def cycles(*symbols):
        return [SimpleNamespace(g1=s[i], core=s[(i + 1) % len(s)],
                                g2=s[(i + 2) % len(s)])
                for s in symbols for i in range(len(s))]

    for families, want in ((cycles("abcdefg"), (6, 7)),
                           (cycles("abcdefgh"), (None, 8)),
                           (cycles("abc", "xyz"), (None, 6))):
        monkeypatch.setattr(ind, "letter_families", lambda pres: families)
        assert primitivity_witness(None) == want


def test_eq4_constant_bounded(any_group):
    d4 = eq4_constant(any_group, samples=40, letters_each=6)
    assert 0.0 < d4 < 8.0
