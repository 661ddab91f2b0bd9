import dataclasses
import math

import numpy as np
import pytest

from cuspwind import gdms
from cuspwind.config import config_from_preset
from cuspwind.errors import NoSignChange
from cuspwind.gdms import free_energy, free_energy_curve, pressure
from cuspwind.fuchsian import build_group, conjugate_config
from cuspwind.induced import fuchsian_system, letter_series_sweep
from cuspwind.mobius import MobiusMap
from cuspwind.presets import preset_config
from oracles import (
    block_partition_sum,
    block_word_geometry,
    eq4_constant,
    letter_cells,
    partition_sum,
    system_from_edges,
)


def full_shift(k, zeta_value=0.0, psi_value=0.0):
    keys = np.zeros(k, dtype=np.int64)
    return system_from_edges(1, keys, keys, np.full(k, zeta_value),
                             np.full(k, psi_value))


def three_vertex_system(ratios, psi=(0.0, 0.0, 0.0)):
    """Cyclic 3-vertex GDMS with constant-derivative contractions."""
    return system_from_edges(3, [0, 1, 2], [1, 2, 0],
                             np.log(np.asarray(ratios)), psi)


# --- pressure on toy systems -------------------------------------------------

def test_full_shift_pressure_log_k():
    for k in (2, 5, 11):
        assert pressure(full_shift(k), 0.7, -0.3) == pytest.approx(
            math.log(k), abs=1e-10)


def test_pressure_matches_partition_growth_rate(gamma2, onecusp):
    # Z_n grows like rho^n; two steps at a time, since the free product of
    # two parabolics gives a period-two incidence graph
    n = 200
    for pres in (gamma2, onecusp):
        sysm = dataclasses.replace(fuchsian_system(pres, 60), tails=None)
        for t, beta in ((0.7, 0.0), (1.0, 0.5), (0.52, 0.1)):
            rate = 0.5 * (partition_sum(sysm, t, beta, n + 2)
                          - partition_sum(sysm, t, beta, n))
            assert pressure(sysm, t, beta) == pytest.approx(rate, abs=1e-10)


def test_pressure_strictly_decreasing_in_t(gamma2):
    sysm = fuchsian_system(gamma2, 80)
    ts = np.linspace(0.55, 1.6, 8)
    vals = [pressure(sysm, float(t), 0.0) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pressure_monotone_in_cap_plain(gamma2):
    vals = []
    for cap in (10, 20, 40, 80):
        sysm = dataclasses.replace(fuchsian_system(gamma2, cap), tails=None)
        vals.append(pressure(sysm, 0.8, 0.1))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pressure_convex_in_t_and_beta(onecusp):
    sysm = fuchsian_system(onecusp, 60)
    ts = np.linspace(0.6, 1.4, 7)
    vals = [pressure(sysm, float(t), 0.25) for t in ts]
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-6)
    bs = np.linspace(-0.5, 1.5, 7)
    vals_b = [pressure(sysm, 0.9, float(b)) for b in bs]
    assert np.all(np.diff(vals_b, 2) >= -1e-6)


def test_pressure_divergence_flag(gamma2):
    sysm = fuchsian_system(gamma2, 50)
    assert math.isinf(pressure(sysm, 0.5, 0.0))  # t + beta = 1/2 exactly


def test_pressure_call_works_in_one_letter_array(gamma2):
    # the system keeps one float per letter (zeta) and a pressure call one
    # work array of the same size, updated in place
    import tracemalloc

    sysm = fuchsian_system(gamma2, 1600)
    n = sysm.n_edges
    arrays = [a for block in sysm.blocks for a in vars(block).values()]
    arrays += list(vars(sysm.tails).values())
    sizes = sorted(a.size for a in arrays if isinstance(a, np.ndarray))
    (block,) = sysm.blocks
    assert block.zeta.dtype == float and block.zeta.size == n
    assert sizes[-1] == n and sizes[-2] < 0.01 * n
    pressure(sysm, 1.0, 0.0)  # the first call also finds the key classes
    tracemalloc.start()
    try:
        pressure(sysm, 1.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


# --- cyclic classes of the key graph ------------------------------------------

def test_key_graph_classes(gamma2, onecusp):
    # gamma2's key graph is bipartite (cores a/A against b/B); one-cusp's
    # hyperbolic letters break the alternation
    for sysm, sizes in ((fuchsian_system(gamma2, 400), [44, 44]),
                        (fuchsian_system(onecusp, 400), [50]),
                        (fuchsian_system(gamma2, 2, restricted=True), [8, 8])):
        assert sysm.classes is None
        pressure(sysm, 1.0, 0.0)
        assert [len(c) for c in sysm.classes] == sizes
        p = len(sysm.classes)
        cls = np.empty(sysm.n_keys, dtype=np.int64)
        for k, keys in enumerate(sysm.classes):
            cls[keys] = k
        cells = [block.cells.ravel() for block in sysm.blocks]
        if sysm.tails is not None:
            cells.append(sysm.tails.cells)
        rows, cols = np.divmod(np.concatenate(cells), sysm.n_keys)
        assert np.array_equal(cls[cols], (cls[rows] + 1) % p)


def full_matrix_pressure(sysm, t, beta, r):
    """scale + log_mult + log max |eigvals(B)| of the whole key matrix,
    collapsed letter by letter."""
    (block,) = sysm.blocks
    lw = np.concatenate([(t * block.zeta + beta * block.psi).ravel(),
                         gdms.tail_log_weights(sysm.tails, t, beta, 2.0 * r)])
    cells = np.concatenate([letter_cells(block).ravel(), sysm.tails.cells])
    scale = lw.max()
    w = np.exp(np.maximum(lw - scale, gdms.LOG_FLOOR))
    n = sysm.n_keys
    b = np.bincount(cells, weights=w, minlength=n * n).reshape(n, n)
    return scale + sysm.log_mult + math.log(max(abs(np.linalg.eigvals(b))))


@pytest.mark.parametrize("beta", [1000.0, 0.0, 3000.0, -3000.0])
def test_block_product_matches_full_eigensolve(gamma2, beta, monkeypatch):
    # at beta = 1000 the dominant cycle alternates a weight 1 with the
    # floor, and the plain product of the two blocks sits at ~1e-304 with
    # its other entries subnormal
    sysm = fuchsian_system(gamma2, 60)
    radius, sizes = gdms._radius, []
    monkeypatch.setattr(gdms, "_radius",
                        lambda a: sizes.append(len(a)) or radius(a))
    for r in (math.exp(-0.5), 1.0, math.e):
        t = 0.5 - beta + r
        assert pressure(sysm, t, beta, r=r) == pytest.approx(
            full_matrix_pressure(sysm, t, beta, r), rel=1e-12)
    assert set(sizes) == {sysm.n_keys // 2}  # the product, never the whole


def test_whole_matrix_where_the_product_underflows(monkeypatch):
    # gamma2 conjugated by z -> lam z / (c z + 1) + u (perfbench's chart of
    # seed 10): at beta = 1000 the blocks span 300 decades and their
    # product alone is nilpotent at r = 1 (it read -inf for every
    # log r <= 4.77); a cold solve must not pin the root at t = 1/2 - beta
    chart = MobiusMap.from_entries(0.9575203991628636, 0.3565226346725965,
                                   -0.21871866658356112, 0.9629265815575861)
    sysm = fuchsian_system(build_group(conjugate_config(
        preset_config("gamma2-type"), chart)), 400)
    radius, sizes = gdms._radius, []
    monkeypatch.setattr(gdms, "_radius",
                        lambda a: sizes.append(len(a)) or radius(a))
    t = 0.5 - 1000.0 + 1.0
    assert pressure(sysm, t, 1000.0, r=1.0) == pytest.approx(
        full_matrix_pressure(sysm, t, 1000.0, 1.0), rel=1e-12)
    assert sysm.n_keys in sizes
    assert free_energy(sysm, 1000.0).t == pytest.approx(0.80197728158703,
                                                        abs=1e-10)


# --- partition sums ----------------------------------------------------------

def test_partition_sum_single_edge():
    sysm = full_shift(1, zeta_value=-1.0)
    assert partition_sum(sysm, 1.0, 0.0, 1) == pytest.approx(-1.0)


def test_partition_sum_constant_weights():
    k, w = 4, -0.35
    sysm = full_shift(k, zeta_value=w)
    for n in (1, 2, 5):
        expect = n * w + n * math.log(k)
        assert partition_sum(sysm, 1.0, 0.0, n) == pytest.approx(expect, abs=1e-10)


def test_block_partition_sum_subadditive(gamma2):
    c0 = gamma2.constant_c0(64)
    t, beta = 0.9, 0.2
    geos = {n: block_word_geometry(gamma2, n, 3) for n in (2, 3, 4, 5)}
    z = {n: block_partition_sum(gamma2, t, beta, n, 3, geos[n]) for n in geos}
    assert z[4] <= z[2] + z[2] + 2 * abs(t) * c0 + 1e-9
    assert z[5] <= z[2] + z[3] + 2 * abs(t) * c0 + 1e-9


def test_pressure_close_to_block_sums(onecusp):
    """Two independent routes: operator spectral radius vs direct Z_n."""
    c0 = onecusp.constant_c0(64)
    dhat = eq4_constant(onecusp, samples=40, letters_each=6)
    sysm = fuchsian_system(onecusp, 3, restricted=True)
    rng = np.random.default_rng(8)
    geos = {n: block_word_geometry(onecusp, n, 3) for n in (2, 3, 4, 5)}
    for _ in range(8):
        t = float(rng.uniform(0.45, 1.5))
        beta = float(rng.uniform(-0.8, 1.2))
        if 2.0 * (t + beta) < 1.2:
            continue
        p = pressure(sysm, t, beta)
        for n in (2, 3, 4, 5):
            zn = block_partition_sum(onecusp, t, beta, n, 3, geos[n]) / n
            assert abs(p - zn) <= (2 * abs(t) * c0 + dhat) / n + 1e-9


# --- free energy -------------------------------------------------------------

def test_full_shift_free_energy_analytic():
    # constant contraction ratio: t(beta) = log k / chi for every beta
    k, chi = 6, 1.7
    sysm = full_shift(k, zeta_value=-chi)
    for beta in (-2.0, 0.0, 3.0):
        pt = free_energy(sysm, beta)
        assert pt.t == pytest.approx(math.log(k) / chi, abs=1e-8)


def test_three_vertex_instance_independence():
    # cycle of three constant contractions: pressure(t) = mean log r * t,
    # so the root of pressure - log 1 is where the cycle product is 1
    ratios = (0.5, 0.25, 0.125)
    sysm = three_vertex_system(ratios)
    t_expected = 0.0  # cycle product 1 at t = 0... shifted below
    # P(t) = (1/3) log prod(r^t) = t * mean(log r); root at t = 0 is trivial,
    # so check against the analytically solvable pressure instead
    for t in (0.3, 0.9, 1.7):
        expect = t * np.mean(np.log(ratios))
        got = pressure(sysm, t, 0.0)
        assert got == pytest.approx(expect, abs=1e-8)
    # and a genuinely nontrivial root: add a constant to zeta
    sys2 = three_vertex_system(ratios, psi=np.ones(3))
    # P(t) = t mean(log r) + beta; root t(beta) = beta / -mean(log r)
    for beta in (0.5, 1.0):
        pt = free_energy(sys2, beta)
        assert pt.t == pytest.approx(beta / -np.mean(np.log(ratios)), abs=1e-7)


def test_brentq_matches_scipy():
    # the solver takes scipy.optimize.brentq's steps: same root, same calls
    from scipy.optimize import brentq

    def counted(f):
        xs = []
        return xs, lambda x: xs.append(x) or f(x)

    rng = np.random.default_rng(11)
    cases = [
        (lambda x: math.cos(x) - x, -3.0, 5.0),
        (lambda x: -math.sinh(x - 0.7), -700.0, math.log(4.0)),
        (lambda x: -round(3.0 * x) / 3.0 + 1e-3, -40.0, 9.0),  # plateaus
        # products of tiny differences underflow to a zero denominator
        (lambda x: -1e-200 * math.atan(x - 0.3) ** 3 - 1e-210, -3.0, 5.0),
    ]
    for c in rng.uniform(0.1, 3.0, size=(20, 3)):
        cases.append((lambda x, c=c: -c[0] * (x - c[1]) ** 3 - c[2] * x,
                      -50.0, 60.0))
    for f, a, b in cases:
        for xtol in (1e-13, 1e-6):
            ours, f1 = counted(f)
            ref, f2 = counted(f)
            assert gdms._brentq(f1, a, b, xtol) == brentq(f2, a, b, xtol=xtol)
            assert ours == ref


def test_free_energy_residual_small(any_group):
    sysm = fuchsian_system(any_group, 100)
    pt = free_energy(sysm, 0.0)
    assert abs(pressure(sysm, pt.t, 0.0, r=pt.r)) <= 1e-8
    assert 0.0 <= pt.err_t <= 1e-12
    assert pt.r > 0.0
    assert pt.pressure_calls <= 25


def test_delta_c_restricted_finite_system(any_group):
    restricted = fuchsian_system(any_group, 2, restricted=True)
    pt = free_energy(restricted, 0.0)
    assert abs(pressure(restricted, pt.t, 0.0)) <= 1e-8
    full = free_energy(fuchsian_system(any_group, 100), 0.0)
    assert 0.0 < pt.t < full.t - 0.01  # delta_c strictly below delta


# t(beta) at cap 60 for beta = -3, 0, 3; delta_c; t(0) at caps 1, 2, 3 and
# 5, the edge cases of the dyadic exponent buckets
PINNED = {
    "gamma2-type": (
        (3.5075914426363695, 0.981290602558345, 0.8220747456255721),
        0.8209228112441226,
        (0.9811744361116157, 0.9812733629612715, 0.98128622912021,
         0.9812894405251503)),
    "one-cusp-one-hyperbolic": (
        (3.500000015599884, 0.6053727886867157, 0.4088726943382466),
        0.4082534010657635,
        (0.6053742615639309, 0.6053733930177578, 0.6053731113120208,
         0.6053729147032586)),
}


def test_free_energy_pinned_values(any_group):
    cap60, dc, small_caps = PINNED[any_group.name]
    sysm = fuchsian_system(any_group, 60)
    for beta, t in zip((-3.0, 0.0, 3.0), cap60):
        assert free_energy(sysm, beta).t == pytest.approx(t, abs=1e-12)
    assert gdms.delta_c(any_group).t == pytest.approx(dc, abs=1e-12)
    for cap, t in zip((1, 2, 3, 5), small_caps):
        assert free_energy(fuchsian_system(any_group, cap), 0.0).t \
            == pytest.approx(t, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 300.0, -300.0, 3000.0, -3000.0])
def test_key_matrix_weights_never_subnormal(any_group, beta, monkeypatch):
    # subnormal weights cost ~100x in exp; the floor e^-700 is normal
    sysm = fuchsian_system(any_group, 60)
    bincount, smallest = np.bincount, []

    def spy(x, weights=None, minlength=0):
        live = weights[weights != 0.0]
        smallest.append(live.min() if live.size else math.inf)
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    free_energy(sysm, beta)
    assert smallest and min(smallest) >= np.finfo(float).tiny


def direct_tail_sums(rows, start, t, beta, two_r, m=4096):
    """(sum over n > start, sum over n >= 1) of each tail row's letter
    weights F(n) = exp(t zeta_n - 2 beta log(n - 1)), letter by letter up
    to m; beyond m, F(n) = n^-s g(1/n) with g fitted by a quartic in
    v = Y/n, Y = m + 1/2, summed as the integral over [Y, oo) plus
    F'(Y)/24 - 7 F'''(Y)/5760 (each monomial in closed form)."""
    p0, p1, r0, r1, lx = (col[:, None] for col in rows.T)

    def weights(ns):
        k = ns - 1.0
        zeta = lx - np.log((p0 + k * p1) ** 2 + (r0 + k * r1) ** 2)
        return np.exp(t * zeta - 2.0 * beta * np.log(np.maximum(k, 1.0)))

    head = weights(np.arange(1.0, start + 1.0)).sum(axis=1)
    tail = sum(weights(np.arange(lo, min(lo + 1024, m + 1.0))).sum(axis=1)
               for lo in np.arange(start + 1.0, m + 1.0, 1024))
    y = m + 0.5
    v = 0.5 + 0.5 * np.cos(np.pi * (np.arange(12) + 0.5) / 12)
    u = v / y
    g = np.exp(t * (lx - np.log((p1 + u * (p0 - p1)) ** 2
                                + (r1 + u * (r0 - r1)) ** 2))
               - 2.0 * beta * np.log1p(-u))
    s = 1.0 + two_r
    for j, c in enumerate(np.polynomial.polynomial.polyfit(v, g.T, 4)):
        a = s + j
        tail = tail + c * (y ** -two_r / (two_r + j) - a * y ** (-s - 1) / 24
                           + 7 * a * (a + 1) * (a + 2) * y ** (-s - 3) / 5760)
    return tail, head + tail


@pytest.mark.parametrize("cap", [60, 400])
def test_tail_rule_matches_direct_sums(any_group, cap):
    sysm = fuchsian_system(any_group, cap)
    tails = sysm.tails
    assert tails.start == max(cap, 64)
    for beta in (-8.0, -3.0, -1.0, 0.0, 3.0):
        pt = free_energy(sysm, beta)
        rule = np.exp(gdms.tail_log_weights(tails, pt.t, beta, 2.0 * pt.r))
        tail, total = direct_tail_sums(tails.rows, tails.start, pt.t, beta,
                                       2.0 * pt.r)
        assert np.all(np.abs(rule - tail) <= 1e-12 * total)


def test_gauss_jacobi_rule():
    from scipy.special import roots_jacobi

    for two_r in (0.05, 0.7, 2.0, 9.0):
        nodes, weights = gdms._gauss_jacobi(two_r)
        x, w = roots_jacobi(gdms.TAIL_NODES, 0.0, two_r - 1.0)
        assert np.allclose(nodes, 0.5 + 0.5 * x, rtol=0.0, atol=1e-14)
        assert np.allclose(weights, w / w.sum(), rtol=0.0, atol=1e-12)
    # r = e^-700: 2r - 1 rounds to -1, yet the node near 0 keeps all mass
    two_r = 2.0 * math.exp(-700.0)
    nodes, weights = gdms._gauss_jacobi(two_r)
    assert 0.0 < nodes[0] < 1e-300
    assert weights[0] == pytest.approx(1.0, abs=1e-15)


def test_t0_converges_in_cap(any_group):
    # the tail rule leaves only the bucket discretisation to converge
    t800, t1600 = (free_energy(fuchsian_system(any_group, cap), 0.0).t
                   for cap in (800, 1600))
    assert abs(t800 - t1600) <= 5e-12


def test_t_beta_approaches_delta_c(any_group):
    sysm = fuchsian_system(any_group, 100)
    restricted = fuchsian_system(any_group, 2, restricted=True)
    dc = free_energy(restricted, 0.0).t
    for beta in (20.0, 3000.0):
        assert abs(free_energy(sysm, beta).t - dc) <= 5e-11


def test_left_asymptote_band(any_group):
    # 1/2 - beta < t(beta) < 1/2 - beta + eps/2 for beta << 0, eps = 0.1
    sysm = fuchsian_system(any_group, 100)
    assert 0.0 < free_energy(sysm, -20.0).r < 0.05


def test_finiteness_threshold_values(gamma2):
    sysm = fuchsian_system(gamma2, 10)
    assert sysm.divergence_abscissa(0.0) == pytest.approx(0.5)
    assert sysm.divergence_abscissa(2.0) == pytest.approx(-1.5)
    # systems without tails have a finite letter series
    restricted = fuchsian_system(gamma2, 2, restricted=True)
    assert restricted.divergence_abscissa(0.0) is None
    assert dataclasses.replace(sysm, tails=None).divergence_abscissa(0.0) \
        is None


def test_letter_series_divergence_split(gamma2):
    caps = [100 * 2 ** k for k in range(7)]
    div = letter_series_sweep(gamma2, 0.49, 0.0, caps)
    conv = letter_series_sweep(gamma2, 1.0, 0.0, caps)
    assert all(b > a for a, b in zip(div, div[1:]))  # keeps growing
    assert div[-1] / div[0] > 1.5
    assert abs(conv[-1] - conv[-2]) < 1e-3


def test_curve_invariants(onecusp):
    sysm = fuchsian_system(onecusp, 100)
    betas = sorted(set(list(np.linspace(-8, 8, 17)) + [-30.0, 30.0]))
    curve = free_energy_curve(sysm, betas)
    assert curve.validate()
    assert np.all(curve.r > 0.0)


# --- continuation along the beta grid -----------------------------------------

def test_curve_matches_cold_solves(any_group):
    # every warm-started root is the cold root, in under 60% of the calls
    sysm = fuchsian_system(any_group, 60)
    curve = free_energy_curve(sysm, config_from_preset(any_group.name).betas())
    assert len(curve.betas) == 45
    cold = [free_energy(sysm, float(b)) for b in curve.betas]
    for pt, t, r in zip(cold, curve.t, curve.r):
        if pt.r <= math.exp(gdms.X_MIN):  # pinned: the same e^-700
            assert (t, r) == (pt.t, pt.r)
        assert abs(t - pt.t) <= 1e-10
    assert np.all(curve.err_t <= 1e-9)
    assert curve.calls.sum() <= 0.6 * sum(pt.pressure_calls for pt in cold)


def test_err_t_positive_on_every_solved_row(any_group):
    # a root where the pressure evaluates to exactly 0 still reports the
    # width of the bracket around it, not 0
    sysm = fuchsian_system(any_group, 60)
    curve = free_energy_curve(sysm, config_from_preset(any_group.name).betas())
    solved = curve.r > math.exp(gdms.X_MIN)
    assert np.all(curve.err_t[solved] > 0.0)
    assert np.all(curve.err_t[solved] <= 1e-9)


def test_continuation_start_right_of_the_elbow(any_group):
    # after the elbow of t(beta) the search starts from the last t, an
    # upper bound of the root; a linear extrapolation of t from beta = -10
    # and 0 would start far below it
    sysm = fuchsian_system(any_group, 60)
    curve = free_energy_curve(sysm, [-10.0, 0.0, 10.0])
    assert curve.calls[-1] <= 12


def test_far_guesses_reach_the_cold_root(any_group):
    sysm = fuchsian_system(any_group, 60)
    cold = free_energy(sysm, 0.0)
    # from far below and far above: x = 57 is past the top of the search,
    # and unbounded upward moves from -700 overflow the tail weights
    for guess in (-700.0, 57.0):
        assert free_energy(sysm, 0.0, guess=guess).t == pytest.approx(
            cold.t, abs=1e-13)
    pinned = free_energy(sysm, -3000.0, guess=0.0)
    assert pinned.r == math.exp(gdms.X_MIN)
    assert pinned.err_t == pinned.r


def test_curve_calls_free_energy_once_per_beta(onecusp, monkeypatch):
    # tracers wrap the module-level name and read beta from args[1]
    seen, solve = [], gdms.free_energy

    def counted(*args, **kwargs):
        seen.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(gdms, "free_energy", counted)
    betas = [3.0, -2.0, 0.0, 1.0]
    curve = free_energy_curve(fuchsian_system(onecusp, 60), betas)
    assert seen == sorted(betas) == list(curve.betas)


def test_no_sign_change_error(gamma2):
    # zeta = 0: pressure log k > 0 for every t; no root
    sysm = full_shift(3, zeta_value=0.0)
    with pytest.raises(NoSignChange):
        free_energy(sysm, 0.0)
    # the same with tails: the search stops at r = 4^41, short of the r
    # where the tail weights overflow
    flat = fuchsian_system(gamma2, 60)
    flat = dataclasses.replace(flat, blocks=[
        dataclasses.replace(block, zeta=np.zeros_like(block.zeta))
        for block in flat.blocks])
    with pytest.raises(NoSignChange, match="positive up to r="):
        free_energy(flat, 0.0)
