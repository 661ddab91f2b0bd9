import math

import numpy as np
import pytest

from cuspwind import induced as ind
from cuspwind.coding import code_point, point_from_symbols
from cuspwind.induced import (
    conjugacy_check,
    letters_of_blocks,
    primitivity_witness,
)
from cuspwind.fuchsian import build_group, conjugate_config
from cuspwind.mobius import MobiusMap
from cuspwind.presets import preset_config
from oracles import alphabet, contains_interval, eq4_constant, zeta_letter


def test_alphabet_counts(gamma2, onecusp):
    assert len(alphabet(gamma2, 1)) == 16
    assert len(alphabet(gamma2, 2)) == 32
    # no hyperbolic-core letters when u = 0
    assert all(gamma2.gen(e.core).is_parabolic() for e in alphabet(gamma2, 3))
    letters = alphabet(onecusp, 1)
    assert len(letters) == 26
    assert sum(1 for e in letters
               if not onecusp.gen(e.core).is_parabolic()) == 18


def test_psi_values(gamma2):
    # psi(e) = -2 log+(|e| - 3) = -2 log+(n - 1) for the letter g1 c^n g2:
    # the exponents 1 and 2 wind zero times, 5 winds 4 times
    psi = ind.fuchsian_system(gamma2, 8).blocks[0].psi
    assert psi[0] == 0.0 and psi[1] == 0.0
    assert psi[4] == pytest.approx(-2.0 * math.log(4.0))


def test_zeta_letter_negative_and_bracketed(any_group):
    # every letter's weight, parabolic or hyperbolic, is its family's
    # weight at x_mid, the point the letter series reads
    fams = {(f.g1, f.core, f.g2): f for f in ind.letter_families(any_group)}
    for e in alphabet(any_group, 40):
        z = zeta_letter(any_group, e)
        assert z < 0.0
        f = fams[(e.symbols[0], e.core, e.symbols[-1])]
        assert f.parabolic == any_group.gen(e.core).is_parabolic()
        n = len(e.symbols) - 2
        assert abs(z - f.zeta([f.row(f.x_mid)], np.array([n]))[0, 0]) <= 1e-12
        if n >= 2:
            assert z <= -any_group.c1 + 0.7  # distortion slack


def test_zeta_scales_like_minus_two_log_n(gamma2):
    fam = ind.letter_families(gamma2)[0]
    ns = np.array([50, 100, 200, 400])
    c = -fam.zeta([fam.row(fam.x_mid)], ns)[0] - 2.0 * np.log(ns)
    assert abs(c[-1] - c[-2]) < 0.01  # converging envelope constant


def test_system_sizes(gamma2, onecusp):
    # (n_keys, n_edges, tail rows): one tail row per parabolic family,
    # follower bucket and quadrature point; below TAIL_START the exponents
    # cap+1 .. TAIL_START enter the tail keys as ordinary edges, so cap 60
    # carries as many edges as cap 64; the restricted systems have no tail
    for pres, cap, restricted, sizes in (
            (gamma2, 60, False, (64, 16384, 256)),
            (gamma2, 64, False, (64, 16384, 256)),
            (gamma2, 400, False, (88, 140800, 352)),
            (onecusp, 400, False, (50, 6676, 16)),
            (gamma2, 2, True, (16, 128, 0)),
            (onecusp, 2, True, (14, 92, 0))):
        sysm = ind.fuchsian_system(pres, cap, restricted=restricted)
        tails = sysm.tails
        assert (tails is None) == restricted
        assert (sysm.n_keys, sysm.n_edges,
                0 if restricted else len(tails.rows)) == sizes
        if tails is not None:
            assert tails.start == max(cap, ind.TAIL_START)


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
        for c in pres.labels():
            hull = ind._core_continuation_hull(pres, c)
            arcs = [pres.interval_of(g) for g in pres.labels()
                    if pres.block_admissible(c, g)]
            assert all(contains_interval(hull, j, tol=1e-12) for j in arcs)
            ends = [x for j in arcs for x in (j.lo, j.hi)]
            assert hull.lo in ends and hull.hi in ends
            assert not hull.contains(pres.interval_of(pres.inv(c)).midpoint())


def test_letters_of_blocks_overlap(gamma2):
    x = point_from_symbols(gamma2, ["a", "b", "b", "a", "B", "a"])
    w = code_point(gamma2, x, 5)
    letters = letters_of_blocks(gamma2, w)
    assert letters[0].symbols == ("a", "b", "b", "a")
    assert letters[1].symbols == ("b", "a", "B")
    assert letters[0].symbols[-2:] == letters[1].symbols[:2]


def test_conjugacy_periodic_point(gamma2):
    # periodic point of (a b): exact agreement to any depth
    x = 1.0 + math.sqrt(2.0)
    w = code_point(gamma2, x, 9)
    letters = letters_of_blocks(gamma2, w)
    y = ind.induced_step(gamma2, x)
    letters_shift = letters_of_blocks(gamma2, code_point(gamma2, y, 8))
    assert letters[1:6] == letters_shift[:5]


def test_conjugacy_random_samples(any_group):
    rep = conjugacy_check(any_group, samples=25, letters_each=6, seed=3)
    assert rep.ok, rep.mismatches[:3]


def test_conjugacy_empty_sample(gamma2):
    rep = conjugacy_check(gamma2, samples=0)
    assert rep.ok


def test_primitivity_witness_small(any_group):
    ell, n_pairs = primitivity_witness(any_group)
    assert ell is not None
    assert ell <= 3
    assert n_pairs >= 8


def test_eq4_constant_bounded(any_group):
    d4 = eq4_constant(any_group, samples=40, letters_each=6)
    assert 0.0 < d4 < 8.0
