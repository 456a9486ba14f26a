"""Backtest transform tables and path tables against the pointwise quotes,
and the kept-cell walk of the table evaluator against a dense product."""

import tracemalloc

import numpy as np
import pytest

import levyhedge as lh
from levyhedge import numerics
from levyhedge import payoffs as po
from levyhedge import simulate as sim
from levyhedge.simulate import PathGrid

NIG_FIT = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
S0, T = 100.0, 0.25
TOL_ABS = 1e-6 * (1.0 + S0)          # the backtests' table tolerance
PAYOFFS = {
    "call": lh.call(100.0),
    "call_low_moment": lh.call_low_moment(100.0),
    "spread": lh.call(95.0) - lh.call(105.0),
    "digital": lh.digital(100.0),
}


def discrete_tables(co, payoff, grid):
    rows, _ = po.tabulate_transform(payoff, grid, sim._discrete_weight(co),
                                    tol_abs=TOL_ABS)
    return rows[:co.N] / grid, rows[co.N:]


def continuous_tables(co, payoff, grid, times):
    taus = co.T - np.asarray(times)
    rows, _ = po.tabulate_transform(payoff, grid,
                                    sim._continuous_weight(co, taus),
                                    tol_abs=TOL_ABS)
    h_term, _ = po.tabulate_transform(payoff, grid, None, tol_abs=TOL_ABS)
    return rows[:taus.size] / grid, rows[taus.size:], h_term


def spots_off_strike(grid):
    # grid points nearest to spots at least 0.02 in log-spot from 95/100/105
    idx = [int(np.argmin(np.abs(grid - s))) for s in (88.0, 97.0, 103.0, 115.0)]
    return idx


@pytest.mark.parametrize("name", sorted(PAYOFFS))
def test_discrete_tables_match_pointwise_quotes(name):
    payoff = PAYOFFS[name]
    N = 4
    co = lh.coefficients(NIG_FIT, T, N)
    grid = sim._spot_grid(NIG_FIT, payoff, S0, T)
    xi_tab, h_tab = discrete_tables(co, payoff, grid)
    for i in spots_off_strike(grid):
        s = float(grid[i])
        for n in range(1, N + 1):
            assert abs(xi_tab[n - 1, i] - lh.xi(co, payoff, s, n)) \
                <= 1e-8 * (1.0 + s)
        for n in range(N):
            assert abs(h_tab[n, i] - lh.price_process(co, payoff, s, n)) \
                <= 1e-8 * (1.0 + s)
        # the backtests settle against the closed-form payoff
        assert abs(payoff.analytic(s) - lh.price_process(co, payoff, s, N)) \
            <= TOL_ABS


@pytest.mark.parametrize("name", sorted(PAYOFFS))
def test_continuous_tables_match_pointwise_quotes(name):
    payoff = PAYOFFS[name]
    times = (0.0, 0.1, 0.2)
    co = lh.coefficients_ct(NIG_FIT, T)
    grid = sim._spot_grid(NIG_FIT, payoff, S0, T)
    xi_tab, h_tab, h_term = continuous_tables(co, payoff, grid, times)
    for i in spots_off_strike(grid):
        s = float(grid[i])
        for k, t in enumerate(times):
            assert abs(xi_tab[k, i] - lh.xi_ct(co, payoff, s, t)) \
                <= 1e-8 * (1.0 + s)
            assert abs(h_tab[k, i] - lh.price_process_ct(co, payoff, s, t)) \
                <= 1e-8 * (1.0 + s)
        assert abs(h_term[i] - lh.price_process_ct(co, payoff, s, T)) <= TOL_ABS


def test_row_batched_tail_completion_matches_per_row_calls():
    co = lh.coefficients(NIG_FIT, T, 6)
    line = lh.call(100.0).lines()[0]
    s_sel = np.array([70.0, 90.0, 112.0, 140.0])
    cs = np.array([600.0, 900.0, 800.0, 400.0])

    def rows(z):
        _, _, g, h = co.moment_terms(z)
        return np.stack([g * h ** k for k in range(4)] + [h ** k for k in range(4)])

    tails, resids = po.tail_completion(line, s_sel, cs, rows)
    assert tails.shape == resids.shape == (8, s_sel.size)
    for r in range(8):
        tail, resid = po.tail_completion(line, s_sel, cs,
                                         lambda z, r=r: rows(z)[r])
        assert np.allclose(tails[r], tail, rtol=1e-15, atol=0.0)
        assert np.allclose(resids[r], resid, rtol=1e-15, atol=0.0)


def _tail_completion_with_carrier(line, s_sel, cs, weight3=None):
    """The reference for ``po.tail_completion``: phi = f e^{-iv omega} at
    each probe, and the carrier e^{ic omega} put back on the tail."""
    s_sel = np.asarray(s_sel, dtype=float)
    cs = np.asarray(cs, dtype=float)
    xs_nom = np.abs(np.log(s_sel / line.strike_scale))
    d = np.minimum(1.0, 1.2 / (1.0 + xs_nom))
    v3 = np.vstack((cs, cs + d, cs - d))
    z3 = line.abscissa + 1j * v3
    f3 = np.asarray(line.density(z3), dtype=complex)
    if weight3 is not None:
        f3 = f3 * weight3(z3)
    f3 = f3 * np.exp(z3 * np.log(s_sel)[None, :])
    f0, fp, fm = (f3[..., i, :] for i in range(3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        omega = np.angle(fp / fm) / (2.0 * d)
    valid = (np.abs(f0) >= 1e-300) & (np.abs(omega) * cs >= 0.9 * po._CX_MIN) \
        & (np.abs(omega) * d < 1.4)
    omega = np.where(valid, omega, 1.0)
    phi = f3 * np.exp(-1j * v3 * omega[..., None, :])
    p0, pp, pm = (phi[..., i, :] for i in range(3))
    dphi = (pp - pm) / (2.0 * d)
    d2phi = (pp - 2.0 * p0 + pm) / (d * d)
    tail = 2.0 * np.real(np.exp(1j * cs * omega)
                         * (1j * p0 / omega - dphi / (omega * omega)))
    resid = 2.0 * np.abs(d2phi) / np.abs(omega) ** 3
    return (np.where(valid, tail, 0.0),
            np.where(valid, resid, np.abs(f0) * cs))


@pytest.mark.parametrize("rows_axis", [False, True], ids=["plain", "rows"])
def test_tail_completion_matches_carrier_formula(rows_axis):
    co = lh.coefficients(NIG_FIT, T, 6)

    def rows(z):
        _, _, g, h = co.moment_terms(z)
        return np.stack([g * h ** k for k in range(4)]
                        + [h ** k for k in range(4)])

    weight3 = rows if rows_axis else None
    # heights up to 1e5 and carrier phases c omega of a few hundred rad
    for line, s_sel, cs in (
            (lh.call(100.0).lines()[0], [70.0, 90.0, 112.0, 140.0],
             [600.0, 900.0, 800.0, 400.0]),
            (lh.digital(100.0).lines()[0], [70.0, 99.0, 100.2, 101.0, 140.0],
             [600.0, 2e4, 1e5, 3e3, 400.0])):
        tail, resid = po.tail_completion(line, s_sel, cs, weight3)
        want, want_resid = _tail_completion_with_carrier(line, s_sel, cs,
                                                         weight3)
        assert tail.shape == want.shape == ((8, len(s_sel)) if rows_axis
                                            else (len(s_sel),))
        assert np.allclose(tail, want, rtol=1e-10, atol=1e-14)
        # the carrier's rounding costs the reference's second difference
        # digits at large c omega, so the residuals agree less closely
        assert np.allclose(resid, want_resid, rtol=1e-4, atol=0.0)


def test_gains_explicit_matches_pointwise_quotes():
    model = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                        jump_mean=-0.06, jump_sd=0.12)
    co = lh.coefficients_ct(model, T)
    payoff = lh.call(99.0)
    steps = 40
    rng = np.random.default_rng(5)
    dx = lh.sample_increments(model, T / steps, rng, size=steps)
    path = PathGrid(times=np.linspace(0.0, T, steps + 1),
                    log_prices=np.concatenate(([0.0], np.cumsum(dx))))
    res = lh.gains_explicit(co, payoff, path, S0)
    spots = S0 * np.exp(path.log_prices)
    v0 = lh.initial_capital_ct(co, payoff, S0)
    lam = co.lambda_feedback
    for k in (0, 13, 27, steps - 1):
        s, t = float(spots[k]), float(path.times[k])
        h = lh.price_process_ct(co, payoff, s, t)
        phi = lh.xi_ct(co, payoff, s, t) \
            + lam / s * (h - v0 - res.gains_recursive[k])
        assert abs(res.price_process[k] - h) <= 1e-8 * (1.0 + s)
        assert abs(res.hedge_ratios[k] - phi) <= 1e-8 * (1.0 + s)


# ---------------------------------------------------------------------------
# The kept-cell walk against the dense masked product it replaced
# ---------------------------------------------------------------------------

MERTON = lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                     jump_mean=-0.06, jump_sd=0.12)
VG = lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01)
WALK_CASES = {
    "nig-spread": (NIG_FIT, lh.call(95.0) - lh.call(105.0)),
    "merton-digital": (MERTON, lh.digital(100.5)),
    "vg-call": (VG, lh.call(99.0)),
}


TWO_PI = 8.0 * np.arctan(np.longdouble(1.0))


def dense_kept_cell_sums(coef, z, rate, v, cut, ln_s, times):
    # every node against every spot, the cells beyond a spot's cut zeroed;
    # the phases z ln s (and rate t) are formed in extended precision and
    # reduced mod 2 pi before the float64 exp, so the reference's own
    # rounding stays well below the bound it is held to
    ld = np.longdouble
    vals = np.empty((coef.shape[0], cut.size))
    for lo in range(0, cut.size, po._SPOT_BLOCK):
        b = slice(lo, lo + po._SPOT_BLOCK)
        x = ln_s[b].astype(ld)
        re = np.multiply.outer(z.real.astype(ld), x)
        im = np.multiply.outer(z.imag.astype(ld), x)
        if rate is not None:
            t = times[b].astype(ld)
            re += np.multiply.outer(rate.real.astype(ld), t)
            im += np.multiply.outer(rate.imag.astype(ld), t)
        im -= TWO_PI * np.rint(im / TWO_PI)
        emat = np.exp(re.astype(float)) * np.exp(1j * im.astype(float))
        emat *= (v[:, None] <= cut[None, b])
        vals[:, b] = 2.0 * np.real(coef @ emat)
    return vals


def assert_rows_match(got, want):
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def assert_walk_matches_dense(monkeypatch, table):
    """``table()`` returns ``(values, err)``; the split-plan error probe
    runs through the same walk, so the estimates must agree too."""
    rows, err = table()
    with monkeypatch.context() as m:
        m.setattr(po, "_kept_cell_sums", dense_kept_cell_sums)
        dense, dense_err = table()
    assert rows.shape == dense.shape
    assert_rows_match(rows, dense)
    assert abs(err - dense_err) <= 1e-13 * np.max(np.abs(dense))


def test_kept_cell_sums_match_the_dense_product():
    rng = np.random.default_rng(3)
    v = np.sort(rng.uniform(0.0, 50.0, 90))
    z = 0.5 + 1j * v
    coef = rng.normal(size=(3, 90)) + 1j * rng.normal(size=(3, 90))
    rate = -0.1 * v ** 2 + 1j * v
    n = 2 * po._SPOT_BLOCK + 37          # three spot blocks, the last short
    ln_s = rng.normal(0.0, 0.3, n)
    times = rng.uniform(0.0, 0.25, n)
    # cuts below the first node, between nodes, on a node, above the last
    cut = rng.choice(np.concatenate(([-1.0, 60.0, v[40]],
                                     rng.uniform(0.0, 50.0, 20))), n)
    for r, t in ((None, None), (rate, times)):
        got = po._kept_cell_sums(coef, z, r, v, cut, ln_s, t)
        want = dense_kept_cell_sums(coef, z, r, v, cut, ln_s, t)
        assert_rows_match(got, want)


def count_exps(monkeypatch):
    """Counts the elements passed to ``np.exp`` from here on."""
    formed = [0]
    exp = np.exp

    def counting(x, *args, **kwargs):
        formed[0] += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return formed


def test_grid_without_a_lattice_takes_direct_rows(monkeypatch):
    rng = np.random.default_rng(7)
    v = np.sort(rng.uniform(0.0, 400.0, 150))
    z = 0.5 + 1j * v
    coef = (rng.normal(size=(2, v.size)) + 1j * rng.normal(size=(2, v.size))) \
        * np.exp(-v / 100.0)
    ln_s = np.sort(rng.normal(4.6, 0.3, 700))
    cut = rng.uniform(0.0, 450.0, ln_s.size)
    on = po._log_lattice(ln_s)[0]
    assert np.count_nonzero(on) <= 2          # the pair that anchors it
    want = dense_kept_cell_sums(coef, z, None, v, cut, ln_s, None)
    formed = count_exps(monkeypatch)
    got = po._kept_cell_sums(coef, z, None, v, cut, ln_s, None)
    # one exp per kept cell, and one per node for the anchor factor
    assert formed[0] == np.searchsorted(v, cut, side="right").sum() + v.size
    assert_rows_match(got, want)


@pytest.mark.parametrize("payoff", [lh.call(99.0), lh.call(95.0) - lh.call(105.0)],
                         ids=["call", "spread"])
def test_log_lattice_finds_the_uniform_part_of_spot_grids(payoff):
    grid = sim._spot_grid(NIG_FIT, payoff, S0, T)
    clusters = []
    for line in payoff.lines():
        k = np.log(line.strike_scale)
        offs = 10.0 ** np.arange(-8.0, 0.0)
        clusters.append(np.exp(np.concatenate((k - offs, [k], k + offs))))
    in_cluster = np.isin(grid, np.concatenate(clusters))
    on, k, x_c, h = po._log_lattice(np.log(grid))
    assert np.count_nonzero(on) == 1400
    assert not np.any(on & in_cluster)
    assert np.all(on | in_cluster)
    assert np.ptp(k[on]) == 1399


def lattice_grid_case():
    """A 1400-point log lattice with the clusters of two strikes, nodes up
    to 1e6 and cuts that rise toward either strike."""
    lo, hi = np.log(60.0), np.log(160.0)
    pts = [np.linspace(lo, hi, 1400)]
    for K in (95.0, 105.0):
        offs = 10.0 ** np.arange(-8.0, 0.0)
        pts.append(np.log(K) + np.concatenate((-offs, [0.0], offs)))
    ln_s = np.log(np.exp(np.unique(np.concatenate(pts))))
    edges = np.concatenate((np.linspace(0.0, 8.0, 13),
                            np.geomspace(8.0, 1e6, 80)[1:]))
    v, w = numerics._nodes_from_edges(edges, numerics._K15)
    z = 0.5 + 1j * v
    dens = w / (2.0 * np.pi * z)
    coef = np.stack((dens * 95.0 ** -z * np.exp(-v / 2e5),
                     dens * 105.0 ** -z * np.exp(-v / 1e4),
                     w * np.exp(-v / 50.0) / (z * z)))
    x = np.min(np.abs(ln_s[:, None] - np.log([95.0, 105.0])), axis=1)
    need = np.minimum(1e6, 4.0 / np.maximum(x, 1e-12))
    cut = edges[np.minimum(np.searchsorted(edges, need), edges.size - 1)]
    return coef, z, v, cut, ln_s


def test_lattice_rows_match_the_extended_reference_up_to_large_heights(
        monkeypatch):
    coef, z, v, cut, ln_s = lattice_grid_case()
    keep = np.searchsorted(v, cut, side="right")
    assert v[-1] > 9e5 and np.unique(keep).size >= 10
    # the first segment runs over every spot, in several blocks
    assert np.all(keep > 0) and keep.size > po._SPOT_BLOCK
    want = dense_kept_cell_sums(coef, z, None, v, cut, ln_s, None)
    formed = count_exps(monkeypatch)
    got = po._kept_cell_sums(coef, z, None, v, cut, ln_s, None)
    assert formed[0] <= 0.4 * keep.sum()
    assert_rows_match(got, want)


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_discrete_table_walk_matches_dense(case, monkeypatch):
    model, payoff = WALK_CASES[case]
    co = lh.coefficients(model, T, 12)
    grid = sim._spot_grid(model, payoff, S0, T)
    assert_walk_matches_dense(monkeypatch, lambda: po.tabulate_transform(
        payoff, grid, sim._discrete_weight(co), tol_abs=TOL_ABS))


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_continuous_and_undamped_table_walk_matches_dense(case, monkeypatch):
    model, payoff = WALK_CASES[case]
    co = lh.coefficients_ct(model, T)
    grid = sim._spot_grid(model, payoff, S0, T)
    taus = T - np.array([0.0, 0.05, 0.1, 0.2, 0.24])
    assert_walk_matches_dense(monkeypatch, lambda: po.tabulate_transform(
        payoff, grid, sim._continuous_weight(co, taus), tol_abs=TOL_ABS))
    assert_walk_matches_dense(monkeypatch, lambda: po.tabulate_transform(
        payoff, grid, None, tol_abs=TOL_ABS))


def test_per_spot_rate_table_walk_matches_dense(monkeypatch):
    # the path tables of gains_explicit: unsorted spots, each with its own
    # time to expiry
    co = lh.coefficients_ct(MERTON, T)
    rng = np.random.default_rng(11)
    spots = S0 * np.exp(rng.normal(0.0, 0.1, 300))
    taus = rng.uniform(0.0, T, spots.size)

    def terms(z):
        _, _, gam, eta = co.cumulant_terms(z)
        return np.stack((gam, np.ones_like(gam))), eta

    assert_walk_matches_dense(monkeypatch, lambda: po._tabulate(
        lh.call(99.0), spots, terms, TOL_ABS, taus))


def test_table_pass_peak_memory():
    # VG spread at 63 dates: 126 rows on about 1400 spots
    payoff = lh.call(95.0) - lh.call(105.0)
    co = lh.coefficients(VG, T, 63)
    grid = sim._spot_grid(VG, payoff, S0, T)
    weight = sim._discrete_weight(co)
    tracemalloc.start()
    try:
        po.tabulate_transform(payoff, grid, weight, tol_abs=TOL_ABS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 34e6, peak


@pytest.mark.xfail(strict=True, reason=(
    "the undamped transform row of a digital is wrong within 1e-3 of the "
    "strike in log-spot (Merton digital(100.41): 0.46 off at 1e-5, 0.025 "
    "at 1e-3) while its error estimate reads 2.5e-5; backtests settle "
    "against the closed form instead"))
def test_undamped_digital_row_near_strike_within_its_error():
    payoff = lh.digital(100.41)
    grid = sim._spot_grid(MERTON, payoff, S0, T)
    row, err = po.tabulate_transform(payoff, grid, None, tol_abs=TOL_ABS)
    assert err <= TOL_ABS
    x = np.abs(np.log(grid / 100.41))
    near = (x > 1e-12) & (x <= 1.001e-3)
    assert np.count_nonzero(near) >= 10
    miss = np.max(np.abs(row[near] - payoff.analytic(grid[near])))
    assert miss <= max(TOL_ABS, err)
