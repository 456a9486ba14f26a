#!/usr/bin/env python3
"""Regenerate the weekly-rebalancing illustration data for the NIG model.

Produces three CSV files in the chosen output directory:

  capital_vs_spot.csv   variance-optimal initial capital against the spot,
                        NIG continuous / NIG 12 dates / Gaussian benchmark
  hedge_vs_spot.csv     initial hedge ratio against the spot, same three
  error_vs_dates.csv    hedging-error variance against the number of
                        trading dates 1..63, with the continuous-time NIG
                        level as the horizontal asymptote and the
                        moment-matched Gaussian model as benchmark

Configuration is the annualized NIG fit used throughout the test suite
(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04), a call with strike 99,
three-month maturity, spot 100.

Usage: python scripts/figure_data.py [outdir]
"""

import csv
import pathlib
import sys
import time
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import levyhedge as lh

NIG = lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04)
STRIKE = 99.0
MATURITY = 0.25
SPOT = 100.0
WEEKLY = 12


def write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main(outdir="figure_data"):
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    payoff = lh.call(STRIKE)
    bench = lh.gaussian_benchmark(NIG)
    print(f"Gaussian benchmark: mu={bench.mu:.6f} sigma={bench.sigma:.6f}")

    co_ct = lh.coefficients_ct(NIG, MATURITY)
    co_d = lh.coefficients(NIG, MATURITY, WEEKLY)
    co_bct = lh.coefficients_ct(bench, MATURITY)

    t0 = time.time()
    spots = np.linspace(70.0, 130.0, 61)
    cap_rows, hedge_rows = [], []
    for s0 in spots:
        cap_rows.append([
            s0,
            lh.initial_capital_ct(co_ct, payoff, s0),
            lh.initial_capital(co_d, payoff, s0),
            lh.initial_capital_ct(co_bct, payoff, s0),
        ])
        hedge_rows.append([
            s0,
            lh.xi_ct(co_ct, payoff, s0, 0.0),
            lh.xi(co_d, payoff, s0, 1),
            lh.xi_ct(co_bct, payoff, s0, 0.0),
        ])
    write(out / "capital_vs_spot.csv",
          ["spot", "V0_nig_continuous", "V0_nig_12dates", "V0_gaussian"],
          cap_rows)
    write(out / "hedge_vs_spot.csv",
          ["spot", "xi0_nig_continuous", "xi0_nig_12dates", "xi0_gaussian"],
          hedge_rows)
    print(f"spot sweeps: {time.time() - t0:.1f}s")

    t0 = time.time()
    j0_ct = lh.error_variance_ct(co_ct, payoff, SPOT)
    err_rows = []
    for n in range(1, 64):
        cd = lh.coefficients(NIG, MATURITY, n)
        cb = lh.coefficients(bench, MATURITY, n)
        err_rows.append([
            n,
            lh.error_variance(cd, payoff, SPOT, tol=3e-5),
            lh.error_variance(cb, payoff, SPOT, tol=3e-5),
            j0_ct,
        ])
    write(out / "error_vs_dates.csv",
          ["trading_dates", "J0_nig_discrete", "J0_gaussian_discrete",
           "J0_nig_continuous"],
          err_rows)
    print(f"trading-dates sweep: {time.time() - t0:.1f}s")
    n12 = err_rows[11]
    print(f"N=12 check: NIG {n12[1]:.4f} (~1.04), Gaussian {n12[2]:.4f} "
          f"(~0.83), continuous {j0_ct:.4f} (~0.257)")


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lh.NegativeCapitalWarning)
        main(*sys.argv[1:])
