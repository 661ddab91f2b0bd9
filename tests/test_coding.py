import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspwind.coding import (
    BlockWord,
    bowen_series_step,
    code_point,
    induced_step,
    point_from_symbols,
    poincare_shell_sums,
    random_block_word,
)
from cuspwind.errors import CodingStalled, OutsideAllIntervals, ReachedCusp
from cuspwind.fuchsian import build_group, conjugate_config
from cuspwind.mobius import MobiusMap, apply_boundary, boundary_angle, compose
from cuspwind.presets import preset_config
from oracles import (
    BASE_POINT,
    apply_plane,
    arc_decomposition,
    charts,
    constant_c0,
    constants_c1,
    displacement,
    hyperbolic_distance,
    letter_code_point,
    log_plus,
    mean_cusp_winding,
    word_element,
)


def test_bowen_step_moves_into_complement(gamma2):
    x = 2.5  # in J_a = (1, oo)
    y, label = bowen_series_step(gamma2, x)
    assert label == "a"
    assert y == pytest.approx(0.5)
    # image leaves the paired interval J_A
    assert not gamma2.gens["A"].interval.contains(boundary_angle(y))


def test_bowen_step_outside_intervals(gamma2):
    with pytest.raises(OutsideAllIntervals):
        bowen_series_step(gamma2, 1.0)  # interval endpoint


def test_fixed_point_of_ab_is_two_periodic(gamma2):
    x = 1.0 + math.sqrt(2.0)  # attracting fixed point of ab
    y1, l1 = bowen_series_step(gamma2, x)
    y2, l2 = bowen_series_step(gamma2, y1)
    assert (l1, l2) == ("a", "b")
    assert y2 == pytest.approx(x, rel=1e-12)


def test_code_point_periodic_patterns(gamma2):
    x = 1.0 + math.sqrt(2.0)
    w = code_point(gamma2, x, 6)
    assert w.blocks == (("a", 1), ("b", 1)) * 3
    assert w.windings(gamma2) == (0,) * 6

    # fixed point of a^2 b: x = 2 + sqrt(6), blocks (a^2, b) repeating
    x2 = 2.0 + math.sqrt(6.0)
    w2 = code_point(gamma2, x2, 4)
    assert w2.blocks == (("a", 2), ("b", 1)) * 2
    assert w2.windings(gamma2) == (1, 0, 1, 0)


def test_code_point_empty(gamma2):
    assert code_point(gamma2, 2.5, 0).blocks == ()


def test_code_point_round_trip(any_group):
    rng = np.random.default_rng(17)
    for _ in range(40):
        w = random_block_word(any_group, rng, 6)
        x = point_from_symbols(any_group, w.symbols())
        coded = code_point(any_group, x, 6)
        assert coded.blocks == w.blocks
        # round trip: the decoded composition maps a reference tail back to x
        m = word_element(any_group, coded)
        y = x
        for _ in range(sum(e for _, e in coded.blocks)):
            y, _ = bowen_series_step(any_group, y)
        assert apply_boundary(m, y) == pytest.approx(x, abs=1e-8)


def test_coding_stalls_on_fixed_endpoint(gamma2):
    # parabolic fixed point 0 is an interval endpoint: never codable
    with pytest.raises((CodingStalled, OutsideAllIntervals)):
        code_point(gamma2, 0.0, 3)


def test_stall_in_a_gap_is_no_cusp(onecusp):
    # 1.5 lies in a gap of the one-cusp group's limit set
    with pytest.raises(CodingStalled) as exc:
        code_point(onecusp, 1.5, 3)
    assert not isinstance(exc.value, ReachedCusp)


def coding(code, pres, x, n):
    """What a coder makes of x: its valid blocks, or its exit with the
    blocks closed before it."""
    try:
        word = code(pres, x, n)
    except ReachedCusp as exc:
        return "cusp", exc.word.blocks, exc.cusp
    except CodingStalled as exc:
        return "stall", str(exc)
    word.validate(pres)
    return "blocks", word.blocks


def check_codes_as_the_letter_loop(pres, rng, draws):
    # a block step rounds once where the letter loop rounds once per
    # letter, so the float orbits agree while the drawn blocks last and
    # drift apart past them
    for n in (1, 3, 8):
        for _ in range(draws):
            x = point_from_symbols(
                pres, random_block_word(pres, rng, n).symbols())
            assert coding(code_point, pres, x, n) \
                == coding(letter_code_point, pres, x, n)


# the charts z + 0.3, z / (0.4z + 1) and 4z
CODING_CHARTS = ((1.0, 0.3, 0.0, 1.0), (1.0, 0.0, 0.4, 1.0),
                 (2.0, 0.0, 0.0, 0.5))


@pytest.mark.parametrize("chart", (None,) + CODING_CHARTS)
def test_code_point_matches_the_letter_loop(any_preset, chart):
    config = preset_config(any_preset)
    if chart is not None:
        config = conjugate_config(config, MobiusMap.from_entries(*chart))
    check_codes_as_the_letter_loop(build_group(config),
                                   np.random.default_rng(23), 500)


@settings(max_examples=20, deadline=None)
@given(chart=charts(),
       name=st.sampled_from(["gamma2-type", "one-cusp-one-hyperbolic"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_code_point_matches_the_letter_loop_in_drawn_charts(chart, name,
                                                            seed):
    pres = build_group(conjugate_config(preset_config(name), chart))
    check_codes_as_the_letter_loop(pres, np.random.default_rng(seed), 20)


@pytest.mark.parametrize("name, point", [
    ("gamma2-type", 2.5),  # a, then b lands on oo
    ("gamma2-type", -0.75),  # B, a, then b lands on oo
    ("gamma2-type", 3.0),  # the run of a lands on the cusp 1
    ("gamma2-type", 0.0),  # a cusp
    ("one-cusp-one-hyperbolic", 0.0),  # the cusp
    ("one-cusp-one-hyperbolic", 1.5),  # a gap of the limit set
    ("one-cusp-one-hyperbolic", 1.0 / 3.0),  # the run of a lands on 1
    ("one-cusp-one-hyperbolic", 0.25),  # the run of a lands on oo
])
def test_code_point_exits_as_the_letter_loop(name, point):
    pres = build_group(preset_config(name))
    got = coding(code_point, pres, point, 12)
    assert got[0] != "blocks"
    assert got == coding(letter_code_point, pres, point, 12)


def test_run_that_rounds_back_into_its_arc_stays_open():
    # in this chart of perfbench's family the point A(e), e the far end of
    # A's arc, has a run of one A that lands on e and, by rounding, back
    # inside A's arc: the run does not close, and no block (A, 0) follows
    chart = MobiusMap.from_entries(1.3062577522811072, 0.24157946542632483,
                                   0.25730527757561006, 0.8131317648092401)
    pres = build_group(conjugate_config(
        preset_config("one-cusp-one-hyperbolic"), chart))
    x = -0.26649650175341255
    assert coding(code_point, pres, x, 6) == coding(letter_code_point, pres,
                                                    x, 6) \
        == ("stall", "orbit left the coding domain after 0 blocks")


def test_run_that_lands_on_the_end_of_its_arc_stops_there(gamma2):
    # -167/21 -A^4-> 1/21 -b^10-> 1, a cusp; in floats the tenth b lands
    # 7e-14 short of 1, still inside b's arc, and the run has 10 letters
    with pytest.raises(ReachedCusp) as exc:
        code_point(gamma2, -167 / 21, 12)
    assert exc.value.word.blocks == (("A", 4),)
    assert exc.value.cusp == pytest.approx(1.0, abs=1e-12)


def test_no_rational_point_of_gamma2_stalls(gamma2):
    # every rational is a cusp of gamma2: its float orbit reaches a cusp,
    # or circles +-1 through aB or Ab for all its blocks
    points = {p / q for q in range(1, 13) for p in range(-4 * q, 4 * q + 1)}
    assert len(points) == 369
    for x in points:
        assert coding(code_point, gamma2, x, 12)[0] != "stall"


def test_displacement_empty_and_single_block(gamma2):
    assert displacement(gamma2, BlockWord(())) == 0.0
    for n in (1, 2, 7):
        w = BlockWord((("a", n),))
        expect = math.acosh(1.0 + (2.0 * n) ** 2 / 2.0)
        assert displacement(gamma2, w) == pytest.approx(expect, rel=1e-12)


def test_displacement_subadditivity(any_group):
    c0 = constant_c0(any_group, 64)
    rng = np.random.default_rng(5)
    for _ in range(100):
        n1 = int(rng.integers(1, 8))
        n2 = int(rng.integers(1, 8))
        w = random_block_word(any_group, rng, n1 + n2)
        d_full = displacement(any_group, w)
        d1 = displacement(any_group, BlockWord(w.blocks[:n1]))
        d2 = displacement(any_group, BlockWord(w.blocks[n1:]))
        assert d_full >= d1 + d2 - 2.0 * c0 - 1e-9


def test_arc_decomposition_sum_matches_displacement(any_group):
    rng = np.random.default_rng(11)
    for _ in range(60):
        w = random_block_word(any_group, rng, int(rng.integers(2, 12)))
        _, total = arc_decomposition(any_group, w)
        assert total == pytest.approx(displacement(any_group, w), abs=1e-9)


def test_arc_decomposition_sandwich(any_group):
    c0 = constant_c0(any_group, 64)
    rng = np.random.default_rng(101)
    for _ in range(200):
        w = random_block_word(any_group, rng, int(rng.integers(2, 12)))
        lengths, total = arc_decomposition(any_group, w)
        assert sum(lengths) <= total + 1e-9
        assert total <= sum(lengths) + c0 + 1e-9


def test_arc_winding_bounds(any_group):
    """Excursion bounds: lower with C1 on arcs >= 2, Prop bound for a >= 2,
    additive upper bound 2 log(a+1) + log 4 + C0 on every arc."""
    c0 = constant_c0(any_group, 64)
    c1 = constants_c1(any_group)
    upper_const = math.log(4.0) + c0
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(200):
        w = random_block_word(any_group, rng, int(rng.integers(2, 12)))
        lengths, total = arc_decomposition(any_group, w)
        for k, (l, a) in enumerate(zip(lengths, w.windings(any_group))):
            if k >= 1:
                assert l >= 2.0 * log_plus(a) + c1 - 1e-9
            if a >= 2:
                assert l >= 2.0 * math.log(a) + math.log(3.0) - 1e-9
            assert l <= 2.0 * math.log(a + 1) + upper_const + 1e-9
            checked += 1
    assert checked > 500


def test_single_deep_block_matches_excursion_scale(gamma2):
    # one block a^5: whole geodesic is the cusp excursion; the arc ends at
    # the endpoint (inside the horoball), so l = d and 2log(a) << l
    w = BlockWord((("a", 5),))
    lengths, total = arc_decomposition(gamma2, w)
    assert len(lengths) == 1
    assert total - sum(lengths) == pytest.approx(0.0, abs=1e-9)
    assert lengths[0] >= 2.0 * math.log(4.0) + math.log(3.0)


def test_mean_winding_zero_for_blockless_digits(gamma2):
    x = 1.0 + math.sqrt(2.0)  # coding (a b)^infty, all a_k = 0
    for n in (2, 6, 10):
        assert mean_cusp_winding(gamma2, x, n) == 0.0


def test_mean_winding_bounded_digits(onecusp):
    # digits bounded by K: finite-n ratio respects the Fact-4 bound
    K = 5
    rng = np.random.default_rng(7)
    bound = 1.0 / (1.0 + constants_c1(onecusp) / (2.0 * math.log(K)))
    for _ in range(30):
        blocks = []
        prev = None
        for _ in range(30):
            choices = [l for l in onecusp.gens
                       if prev is None or onecusp.block_admissible(prev, l)]
            label = choices[rng.integers(len(choices))]
            exp = int(rng.integers(1, K + 2)) if onecusp.gens[label].parabolic else 1
            blocks.append((label, exp))
            prev = label
        w = BlockWord(tuple(blocks))
        num = 2.0 * sum(log_plus(a) for a in w.windings(onecusp))
        den = displacement(onecusp, w)
        assert num / den <= bound + 1e-9


def test_mean_winding_fact1_bound(any_group):
    # ratio never exceeds the same-arc expression 2 sum log+ / sum l(xi)
    rng = np.random.default_rng(999)
    for _ in range(50):
        w = random_block_word(any_group, rng, 10)
        lengths, total = arc_decomposition(any_group, w)
        num = 2.0 * sum(log_plus(a) for a in w.windings(any_group))
        if num == 0.0:
            continue
        ratio = num / total
        assert ratio <= num / sum(lengths) + 1e-12


def _steps(pres, x, k):
    for _ in range(k):
        x, _ = bowen_series_step(pres, x)
    return x


def test_return_time_examples(gamma2):
    # word a b^5 a ...: the point is in D and returns after 5 steps
    x = point_from_symbols(gamma2, ["a"] + ["b"] * 5 + ["a"])
    assert induced_step(gamma2, x) == _steps(gamma2, x, 5)
    x1 = point_from_symbols(gamma2, ["a", "b", "a"])
    assert induced_step(gamma2, x1) == _steps(gamma2, x1, 1)
    # first block of length 2: not in D
    x2 = point_from_symbols(gamma2, ["a", "a", "b"])
    with pytest.raises(ValueError):
        induced_step(gamma2, x2)


def test_return_time_equals_induced_letter_length(onecusp):
    x = point_from_symbols(onecusp, ["h", "a", "a", "a", "h"])
    # |letter| - 2 steps with letter h a^3 h
    assert induced_step(onecusp, x) == _steps(onecusp, x, 3)


def test_poincare_shells_split_at_exponent_one(gamma2):
    # Gamma(2) has delta = 1: shells grow below s=1 and decay above
    lo, hi = poincare_shell_sums(gamma2, [0.90, 1.10], 12)
    assert lo[-1] / lo[-2] > 1.0
    assert hi[-1] / hi[-2] < 1.0


@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5, 6])
def test_poincare_shells_match_word_recursion(any_group, max_len):
    # up to 3 no word is stored before the last three shells, which come
    # from suffixes of up to max_len letters; at 4 to 6 one to three
    # lengths are stored
    ss = [0.9, 1.1]
    want = [[0.0] * max_len for _ in ss]

    def rec(mat, last, length):
        d = hyperbolic_distance(apply_plane(mat, BASE_POINT), BASE_POINT)
        for s, out in zip(ss, want):
            out[length - 1] += math.exp(-s * d)
        if length < max_len:
            for label in any_group.gens:
                if label != any_group.gens[last].inverse:
                    rec(compose(mat, any_group.gens[label].map), label,
                        length + 1)

    for label in any_group.gens:
        rec(any_group.gens[label].map, label, 1)
    got = poincare_shell_sums(any_group, ss, max_len)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)


def test_poincare_shells_agree_over_symmetric_first_letters(gamma2):
    # the probe enumerates gamma2's words starting with its first letter
    # and counts them four times: the symmetries map them onto the words
    # starting with each other letter, at the same distances from i
    ss = [0.9, 1.1]

    def shells(word, last, length, out):
        d = hyperbolic_distance(apply_plane(word, BASE_POINT), BASE_POINT)
        for s, row in zip(ss, out):
            row[length - 1] += math.exp(-s * d)
        if length < 6:
            for label in gamma2.gens:
                if label != gamma2.gens[last].inverse:
                    shells(compose(word, gamma2.gens[label].map), label,
                           length + 1, out)
        return out

    first = [shells(gamma2.gens[label].map, label, 1,
                    [[0.0] * 6 for _ in ss]) for label in gamma2.gens]
    for other in first[1:]:
        for got, want in zip(other, first[0]):
            assert got == pytest.approx(want, rel=1e-14)


def traced_probe_peak(pres):
    """Traced peak bytes of the probe's shells at word length 13."""
    import tracemalloc

    tracemalloc.start()
    try:
        poincare_shell_sums(pres, [0.93, 1.03], 13)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_poincare_probe_streams_its_last_shells(gamma2):
    # no word of the last three lengths (2.1M of length 13) is formed,
    # and only the quarter starting with gamma2's first letter is
    # enumerated (3.2 MB traced when the last two shells were streamed,
    # 12.8 MB when all four first letters were enumerated)
    assert traced_probe_peak(gamma2) <= 1.5e6


def test_poincare_probe_streams_its_last_shells_on_one_cusp(onecusp):
    # 12.8 MB traced when the last two shells were streamed
    assert traced_probe_peak(onecusp) <= 5e6
