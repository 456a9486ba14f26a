import json
import pathlib

import pytest

from levyhedge import cli
from levyhedge import payoffs as po
from levyhedge.numerics import QuadratureResult


NIG_CFG = """
# weekly NIG hedging setup
model.tag = nig
model.alpha = 75.49
model.beta = -4.089
model.delta = 3.024
model.mu = -0.04

payoff.kind = call
payoff.strike = 99.0

hedge.mode = discrete
hedge.spot = 100.0
hedge.maturity = 0.25
hedge.steps = 12
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "nig.cfg"
    p.write_text(NIG_CFG)
    return str(p)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_price_discrete(cfg_path, capsys):
    rc, out, err = run(capsys, "--config", cfg_path, "price")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,V0,admissible"
    fields = lines[1].split(",")
    assert fields[0] == "discrete"
    assert float(fields[1]) == pytest.approx(4.4469, abs=2e-3)


def test_price_override_to_continuous(cfg_path, capsys):
    rc, out, _ = run(capsys, "--config", cfg_path, "price",
                     "--hedge.mode", "continuous")
    assert rc == 0
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(
        4.4740, abs=2e-3)


def test_price_negative_capital_warning(capsys):
    rc, out, err = run(
        capsys, "price",
        "--model.tag", "merton", "--model.mu", "0.01", "--model.sigma", "0.03",
        "--model.jump_intensity", "0.01", "--model.jump_mean", "0.2",
        "--model.jump_sd", "0.02",
        "--payoff.kind", "call", "--payoff.strike", "110",
        "--hedge.mode", "continuous", "--hedge.spot", "100",
        "--hedge.maturity", "1.0")
    assert rc == 0
    assert "NEGATIVE-CAPITAL" in err
    assert float(out.strip().splitlines()[1].split(",")[1]) < 0.0


def test_json_output(cfg_path, capsys):
    rc, out, _ = run(capsys, "--config", cfg_path, "--format", "json", "price")
    assert rc == 0
    rec = json.loads(out)
    assert rec[0]["mode"] == "discrete"
    assert rec[0]["admissible"] is True


def test_hedge_command(cfg_path, capsys):
    rc, out, _ = run(capsys, "--config", cfg_path, "hedge",
                     "--spot", "100", "--step", "1")
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "spot,xi,phi,wealth_gap"
    spot, xi, phi, gap = map(float, row.split(","))
    assert xi == phi  # zero wealth gap
    rc, out, _ = run(capsys, "--config", cfg_path, "hedge",
                     "--spot", "100", "--step", "1", "--wealth-gap", "0.5")
    phi2 = float(out.strip().splitlines()[1].split(",")[2])
    assert phi2 != phi


def test_hedge_step_must_be_a_trading_date(capsys):
    cfg = str(pathlib.Path(__file__).resolve().parents[1]
              / "scripts" / "nig_weekly.cfg")
    rc, out, err = run(capsys, "--config", cfg, "hedge", "--spot", "100",
                       "--step", "2.7")
    assert rc == 1
    assert out == ""
    assert "validation error" in err and "--step" in err
    # continuous time takes a fractional time as it is
    rc, out, _ = run(capsys, "--config", cfg, "hedge", "--spot", "100",
                     "--step", "0.1", "--hedge.mode", "continuous")
    assert rc == 0
    assert out.startswith("spot,xi,phi,wealth_gap")

def test_error_command(cfg_path, capsys):
    rc, out, _ = run(capsys, "--config", cfg_path, "error")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(1.044, rel=0.01)
    assert float(row[2]) < 1e-3


def test_backtest_command_and_seed_determinism(cfg_path, capsys):
    args = ("--config", cfg_path, "--seed", "7", "backtest",
            "--mc.paths", "20000")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    header = out1.strip().splitlines()[0].split(",")
    assert "empirical_error_variance" in header and "predicted_J0" in header
    row = dict(zip(header, out1.strip().splitlines()[1].split(",")))
    assert abs(float(row["z_score"])) <= 4.0
    rc3, out3, _ = run(capsys, "--config", cfg_path, "--seed", "8",
                       "backtest", "--mc.paths", "20000")
    assert out3 != out1


def test_backtest_command_reports_table_error_and_clamping(cfg_path, capsys):
    rc, out, _ = run(capsys, "--config", cfg_path, "backtest",
                     "--mc.paths", "4000")
    assert rc == 0
    header, row = out.strip().splitlines()[:2]
    row = dict(zip(header.split(","), row.split(",")))
    assert 0.0 < float(row["table_error"]) < float("inf")
    assert int(row["clamped_paths"]) == 0
    rc, out, _ = run(capsys, "--config", cfg_path, "--format", "json",
                     "backtest", "--mc.paths", "4000")
    assert rc == 0
    rec = json.loads(out)
    rec = rec[0] if isinstance(rec, list) else rec
    assert float(rec["table_error"]) == float(row["table_error"])
    assert rec["clamped_paths"] == 0


def test_readme_sample_config_runs(capsys):
    cfg = str(pathlib.Path(__file__).resolve().parents[1]
              / "scripts" / "nig_weekly.cfg")
    rc, out, _ = run(capsys, "--config", cfg, "price")
    assert rc == 0
    rc, out, _ = run(capsys, "--config", cfg, "backtest",
                     "--mc.paths", "4000", "--mc.antithetic", "true")
    assert rc == 0
    assert out.startswith("n_paths,")


def test_backtest_without_sampler_exit_code(cfg_path, capsys):
    rc, _, err = run(capsys, "--config", cfg_path, "backtest",
                     "--model.tag", "hyperbolic", "--model.alpha", "8.0",
                     "--model.beta", "2.0", "--model.delta", "1.5",
                     "--model.mu", "-0.3", "--hedge.steps", "12")
    assert rc == 1
    assert "no increment sampler" in err


def test_sweep_columns_and_empty_grid(cfg_path, capsys):
    rc, out, _ = run(capsys, "--config", cfg_path, "sweep",
                     "--axis", "spot", "--grid", "")
    assert rc == 0
    assert out.strip() == ("axis_value,V0,xi0,J0_discrete,J0_continuous,"
                           "J0_gaussian_benchmark")
    rc, out, _ = run(capsys, "--config", cfg_path, "sweep",
                     "--axis", "trading_dates", "--grid", "4,12",
                     "--quadrature.tol", "3e-5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    n12 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(n12["J0_discrete"]) == pytest.approx(1.044, rel=0.02)
    assert float(n12["J0_continuous"]) == pytest.approx(0.257, rel=0.02)
    assert float(n12["J0_gaussian_benchmark"]) == pytest.approx(0.828, rel=0.02)


def test_payoff_check(cfg_path, capsys):
    rc, out, err = run(capsys, "--config", cfg_path, "payoff-check",
                       "--s-grid", "80,99,120")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,reconstructed,analytic,abs_error"
    assert len(lines) == 4
    assert "max abs error" in err


def test_validation_error_names_key(cfg_path, capsys):
    rc, _, err = run(capsys, "--config", cfg_path, "price",
                     "--model.alpha", "not_a_number")
    assert rc == 1
    assert "model.alpha" in err
    rc, _, err = run(capsys, "price", "--model.tag", "sabr")
    assert rc == 1
    assert "model.tag" in err


def test_missing_key_reported(capsys):
    rc, _, err = run(capsys, "price", "--model.tag", "gaussian",
                     "--model.mu", "0.1", "--model.sigma", "0.2")
    assert rc == 1
    assert "payoff.kind" in err


def test_output_file(cfg_path, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    rc, out, _ = run(capsys, "--config", cfg_path, "--output", str(dest),
                     "price")
    assert rc == 0
    assert out == ""
    assert dest.read_text().startswith("mode,V0,admissible")


def test_numerical_failure_exit_code(cfg_path, capsys):
    # an absurd tolerance cannot be certified: numerical failure, code 2
    rc, _, err = run(capsys, "--config", cfg_path, "error",
                     "--payoff.kind", "digital", "--quadrature.tol", "1e-14")
    assert rc == 2
    assert "numerical failure" in err


def test_inadmissible_pair_exit_code(capsys):
    # 2R = 5 exceeds this NIG's strip
    rc, _, err = run(
        capsys, "price",
        "--model.tag", "nig", "--model.alpha", "5.0", "--model.beta", "0.5",
        "--model.delta", "1.0", "--model.mu", "0.0",
        "--payoff.kind", "power_call", "--payoff.strike", "100",
        "--payoff.power", "2", "--hedge.mode", "continuous")
    assert rc == 1
    assert "inadmissible" in err


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_negative_variance_exit_code(cfg_path, capsys, monkeypatch, mode):
    monkeypatch.setattr(po, "double_integrate_measure",
                        lambda *a, **k: QuadratureResult(-1.0 + 0j, 0.0, 1))
    rc, out, err = run(capsys, "--config", cfg_path, "error",
                       "--hedge.mode", mode)
    assert rc == 2
    assert out == ""
    assert "numerical failure" in err
