"""J0 of the log contract at one trading date against its closed form.

With one date the optimal hedge is the regression of the claim on the
stock, so for ``f = log S_T = log S0 + X_T``

    J0 = Var X_T - Cov(X_T, S_T)^2 / Var S_T
       = kappa''(0) T - [e^{kappa(1) T} T (kappa'(1) - kappa'(0))]^2
                        / (e^{kappa(2) T} - e^{2 kappa(1) T}),

which does not depend on S0.  The derivatives of kappa are taken in
mpmath.  The contract's two lines sit 0.5 from its double pole at z = 0,
and the cells below that miss this value are strict xfails carrying their
numbers.
"""

import functools

import pytest

import levyhedge as lh

T = 0.25
MODELS = {
    "gaussian": lh.Gaussian(mu=0.08, sigma=0.2),
    "nig": lh.NIG(alpha=75.49, beta=-4.089, delta=3.024, mu=-0.04),
    "vg": lh.VG(alpha=60.0, beta=-3.0, delta=5.0, mu=0.01),
    "merton": lh.MertonJD(mu=0.05, sigma=0.15, jump_intensity=0.8,
                          jump_mean=-0.06, jump_sd=0.12),
}


@functools.lru_cache(maxsize=None)
def _truth(name):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    model = MODELS[name]
    p = {k: mp.mpf(repr(v)) for k, v in vars(model).items()}

    def kappa(z):
        if name == "gaussian":
            return ((p["mu"] - p["sigma"] ** 2 / 2) * z
                    + p["sigma"] ** 2 * z * z / 2)
        if name == "merton":
            return (p["mu"] * z + p["sigma"] ** 2 * z * z / 2
                    + p["jump_intensity"]
                    * (mp.exp(p["jump_mean"] * z
                              + p["jump_sd"] ** 2 * z * z / 2) - 1))
        if name == "nig":
            a2 = p["alpha"] ** 2
            return p["mu"] * z + p["delta"] * (
                mp.sqrt(a2 - p["beta"] ** 2) - mp.sqrt(a2 - (p["beta"] + z) ** 2))
        return p["mu"] * z + p["delta"] * mp.log(
            p["alpha"] / (p["alpha"] - p["beta"] * z - z * z / 2))

    t = mp.mpf(repr(T))
    slope = mp.exp(kappa(1) * t) * t * (mp.diff(kappa, 1) - mp.diff(kappa, 0))
    return float(mp.diff(kappa, 0, 2) * t
                 - slope ** 2 / (mp.exp(kappa(2) * t) - mp.exp(2 * kappa(1) * t)))


def test_truth_matches_the_cumulant_moments():
    # kappa''(0) T dominates J0, and the library's own derivatives agree
    for name, model in MODELS.items():
        _, k2 = lh.cumulant_derivatives(model)
        assert 0.0 < _truth(name) < k2 * T


# the cells that miss, with their numbers: J0 against the closed form,
# the estimate, and the flag
MISSES = {
    ("gaussian", 1.0): "J0 4.296944e-5 against 4.991667e-5 (-6.95e-6), "
                       "estimate 3.82e-6, converged",
    ("gaussian", 100.0): "unconverged: raw value -1.749e-5 clamped to 0, "
                         "estimate 6.23e-3",
    ("nig", 1.0): "J0 4.488277e-5 against 5.173639e-5 (-6.85e-6), "
                  "estimate 3.81e-6, converged",
    ("nig", 100.0): "unconverged: J0 2.212e-5, estimate 2.67e-3",
    ("vg", 100.0): "unconverged: J0 6.930e-4 against 5.339e-4, estimate "
                   "2.98e-2",
    ("merton", 1.0): "J0 6.729354e-5 against 7.623435e-5 (-8.94e-6), "
                     "estimate 2.81e-6, converged",
    ("merton", 100.0): "unconverged: J0 2.794e-6, estimate 5.50e-3",
}
CELLS = [(name, S0) for name in MODELS for S0 in (1.0, 100.0)]


@pytest.mark.parametrize("name, S0", [
    pytest.param(name, S0, marks=pytest.mark.xfail(
        strict=True, reason=MISSES[name, S0]) if (name, S0) in MISSES else ())
    for name, S0 in CELLS], ids=[f"{n}-S0={s:g}" for n, s in CELLS])
@pytest.mark.filterwarnings("ignore::levyhedge.QuadratureWarning")
def test_single_date_log_contract_oracle(name, S0):
    truth = _truth(name)
    co = lh.coefficients(MODELS[name], T, 1)
    j0, res = lh.error_variance(co, lh.log_contract(), S0,
                                return_result=True)
    assert res.converged
    assert abs(j0 - truth) <= res.error_estimate + 1e-12 * truth
