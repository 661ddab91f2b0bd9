import math

import numpy as np
import pytest

from cuspwind import induced as ind
from cuspwind.coding import code_point, point_from_symbols, random_block_word
from cuspwind.induced import (
    InducedLetter,
    ShiftWord,
    alphabet,
    branch_map,
    conjugacy_check,
    eq4_constant,
    incidence,
    letters_of_blocks,
    phi,
    primitivity_witness,
    psi,
    shift_metric,
    zeta_letter,
)
from cuspwind.fuchsian import build_group, conjugate_config
from cuspwind.mobius import (
    MobiusMap,
    apply_boundary,
    circle_derivative_magnitude,
    compose,
)
from cuspwind.presets import preset_config


def test_alphabet_counts(gamma2, onecusp):
    assert len(alphabet(gamma2, 1)) == 16
    assert len(alphabet(gamma2, 2)) == 32
    # no hyperbolic-core letters when u = 0
    assert all(gamma2.gen(e.core).is_parabolic() for e in alphabet(gamma2, 3))
    letters = alphabet(onecusp, 1)
    assert len(letters) == 26
    assert sum(1 for e in letters if e.core in onecusp.hyperbolic_labels()) == 18


def test_incidence_is_two_symbol_overlap():
    e = InducedLetter(("a", "h", "b"))
    f = InducedLetter(("h", "b", "c"))
    g = InducedLetter(("a", "h", "b"))
    assert incidence(e, f)
    assert not incidence(e, g)
    deep = InducedLetter(("a", "g", "g", "g", "b"))
    nxt = InducedLetter(("g", "b", "c"))
    assert incidence(deep, nxt)


def test_psi_values():
    assert psi(InducedLetter(("a", "h", "b"))) == 0.0
    assert psi(InducedLetter(("a", "g", "b"))) == 0.0
    five = InducedLetter(("a",) + ("g",) * 5 + ("b",))
    assert psi(five) == pytest.approx(-2.0 * math.log(4.0))


def test_psi_depends_on_first_letter_only():
    e = InducedLetter(("a",) + ("g",) * 4 + ("b",))
    assert psi(e) == psi(e)  # value is a pure function of the letter
    w1 = ShiftWord((e, InducedLetter(("g", "b", "c"))))
    w2 = ShiftWord((e, InducedLetter(("g", "b", "x"))))
    assert psi(w1.letters[0]) == psi(w2.letters[0])


def test_phi_zero_for_pure_translation(gamma2):
    # letter a b^1 B: branch V = a = z+2, unit plane derivative
    e = InducedLetter(("a", "b", "B"))
    f = InducedLetter(("b", "B", "a"))  # admissible follower
    val, radius = phi(gamma2, ShiftWord((e, f)), depth=2)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert radius == pytest.approx(0.0, abs=1e-12)


def _random_shift_word(pres, rng, n_letters):
    while True:
        w = random_block_word(pres, rng, n_letters + 3)
        if w.blocks[0][1] == 1:
            return ShiftWord(tuple(letters_of_blocks(pres, w)[:n_letters]))


def test_phi_depth_self_consistency(any_group):
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = _random_shift_word(any_group, rng, 8)
        v2, r2 = phi(any_group, w, 2)
        v6, r6 = phi(any_group, w, 6)
        assert abs(v2 - v6) <= r2 + 1e-9
        assert r6 <= r2 + 1e-12


def test_phi_cocycle_identity(any_group):
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = _random_shift_word(any_group, rng, 7)
        tail = ShiftWord(w.letters[1:])
        v1, r1 = phi(any_group, w, 6)
        v2, r2 = phi(any_group, tail, 5)
        # composed two-step branch evaluated at the tail's continuation
        v12 = compose(branch_map(any_group, w.letters[0]),
                      branch_map(any_group, w.letters[1]))
        x = point_from_symbols(any_group, ShiftWord(w.letters[2:]).symbols())
        from cuspwind.mobius import derivative_magnitude

        lhs = math.log(derivative_magnitude(v12, x))
        assert abs(lhs - (v1 + v2)) <= r1 + r2 + 0.35


def test_zeta_letter_negative_and_bracketed(any_group):
    # every letter's weight, parabolic or hyperbolic, is its family's
    # weight at x_mid, the point the letter series reads
    fams = {(f.g1, f.core, f.g2): f for f in ind.letter_families(any_group)}
    for e in alphabet(any_group, 40):
        z = zeta_letter(any_group, e)
        assert z < 0.0
        f = fams[(e.symbols[0], e.core, e.symbols[-1])]
        assert f.parabolic == any_group.gen(e.core).is_parabolic()
        assert abs(z - f.zeta([f.row(f.x_mid)], np.array([e.exponent]))[0, 0]) \
            <= 1e-12
        if e.exponent >= 2:
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
            assert all(hull.contains_interval(j, tol=1e-12) for j in arcs)
            ends = [x for j in arcs for x in (j.lo, j.hi)]
            assert hull.lo in ends and hull.hi in ends
            assert not hull.contains(pres.interval_of(pres.inv(c)).midpoint())


def test_letters_of_blocks_overlap(gamma2):
    x = point_from_symbols(gamma2, ["a", "b", "b", "a", "B", "a"])
    w = code_point(gamma2, x, 5)
    letters = letters_of_blocks(gamma2, w)
    assert letters[0].symbols == ("a", "b", "b", "a")
    assert letters[1].symbols == ("b", "a", "B")
    assert incidence(letters[0], letters[1])


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


def test_shift_metric_monotone(gamma2):
    rng = np.random.default_rng(5)
    w = _random_shift_word(gamma2, rng, 8)
    prev = 2.0
    for k in range(1, 8):
        other = ShiftWord(w.letters[:k] + _random_shift_word(gamma2, rng, 8).letters)
        d = shift_metric(w, other)
        assert d <= math.exp(-k)
        if d < prev:
            prev = d
    assert prev < 1.0


def test_eq4_constant_bounded(any_group):
    d4 = eq4_constant(any_group, samples=40, letters_each=6)
    assert 0.0 < d4 < 8.0
