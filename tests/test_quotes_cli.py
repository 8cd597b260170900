"""Tests for quote-file ingestion, run configs, and the command line."""
import datetime as dt
import json
import math
import re

import numpy as np
import pytest

from conftest import reference_slice, time_brent, time_expansion
from randvol.arbitrage import SliceSet, check_butterfly, check_calendar, default_strike_grid
from randvol.calibration import FitConfig
from randvol.cli import _build_parser, main
from randvol.errors import QuoteFormatError
from randvol.parametrizations import params_from_json
from randvol.pricing import MarketContext, OptionKey, OptionType, bs_price
from randvol.quotes import MarketConfig, load_quotes, parse_config, year_fraction
from randvol.randomization import implied_vol_grid, randomize, randomized_prices

MARKET = MarketConfig(spot=5522.3, rate=0.053, trade_date=dt.date(2024, 7, 31))

QUOTE_HEADER = "expiry_date,strike,type,iv,open_interest\n"
MARKET_LINES = "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\n"
# a misspelled fit setting, and the value its error must name
MISSPELLED = [
    pytest.param("engine = expansoin:6", "expansoin:6", id="engine"),
    pytest.param("engine = expansion6", "expansion6", id="engine-no-colon"),
    # an empty value is refused, not read as the randomizer's default
    pytest.param("engine =", "unknown engine ''", id="empty-engine"),
    pytest.param("randomizer = gama-gamma", "gama-gamma", id="randomizer"),
    # a value outside its domain: the error names the key
    pytest.param("seed = -1", "seed must be at least 0, got -1", id="negative-seed"),
    pytest.param("beta = 2", "beta must be in", id="beta-outside-its-domain"),
    # a value that does not convert: the error names its line and key
    pytest.param("n_q = 2.5", "config line 4: n_q: invalid literal for int", id="non-integer-n_q"),
    pytest.param("spot = abc", "config line 4: spot: could not convert string to float: 'abc'", id="non-numeric-spot"),
    pytest.param("trade_date = 07/31/2024", "config line 4: trade_date: Invalid isoformat string: '07/31/2024'",
                 id="non-iso-trade-date"),
]
# a search count below one, and the key its error must name
BELOW_ONE = [
    pytest.param("multistart = -2", "multistart", id="multistart"),
    pytest.param("budget = -5", "budget", id="budget"),
]
# a quote row with an infinite strike or iv, one of five flat/none rows
INFINITE_ROWS = [
    pytest.param("2024-10-29,inf,C,0.2,5\n", id="strike"),
    pytest.param("2024-10-29,100,C,inf,5\n", id="iv"),
]
# a price, iv or density command with a non-finite or nonpositive input, and what its error must name
BAD_GRID_INPUT = [
    pytest.param(["price", "--expiry", "0.5", "--strikes", "100,-5"], "strikes must be positive and finite, got -5",
                 id="price-negative-strike"),
    pytest.param(["price", "--expiry", "nan", "--strikes", "100"], "expiry nan", id="price-nan-expiry"),
    pytest.param(["price", "--expiry", "inf", "--strikes", "100"], "expiry inf", id="price-infinite-expiry"),
    pytest.param(["price", "--rate", "nan", "--expiry", "0.5", "--strikes", "100"], "rate must be finite",
                 id="price-nan-rate"),
    pytest.param(["iv", "--expiry", "0.5", "--strikes", "100,inf"], "strikes must be positive and finite, got inf",
                 id="iv-infinite-strike"),
    pytest.param(["iv", "--expiry", "0.5", "--strikes", "0,100", "--engine", "expansion:6"],
                 "strikes must be positive and finite, got 0",
                 id="iv-zero-strike-expansion"),
    pytest.param(["density", "--expiry", "nan"], "expiry nan", id="density-nan-expiry"),
    # grid flags: each is named with its value, before any log or linspace sees it
    pytest.param(["density", "--expiry", "0.5", "--k-min", "-5", "--k-max", "100"],
                 "--k-min must be positive and finite, got -5.0", id="density-negative-k-min"),
    pytest.param(["density", "--expiry", "0.5", "--k-max", "inf"],
                 "--k-max must be positive and finite, got inf", id="density-infinite-k-max"),
    pytest.param(["density", "--expiry", "0.5", "--n-strikes", "-1"],
                 "--n-strikes must be at least 1, got -1", id="density-negative-n-strikes"),
    pytest.param(["check-arb", "--expiry", "0.5", "--grid-lo", "-1"],
                 "--grid-lo must be positive and finite, got -1.0", id="check-arb-negative-grid-lo"),
    pytest.param(["check-arb", "--expiry", "0.5", "--grid-hi", "nan"],
                 "--grid-hi must be positive and finite, got nan", id="check-arb-nan-grid-hi"),
    pytest.param(["check-arb", "--expiry", "0.5", "--grid-points", "-1"],
                 "--grid-points must be at least 1, got -1", id="check-arb-negative-grid-points"),
    pytest.param(["iv", "--expiry", "0.5", "--k-min", "80", "--k-max", "120", "--n-strikes", "-3"],
                 "--n-strikes must be at least 1, got -3", id="iv-negative-n-strikes"),
    pytest.param(["iv", "--expiry", "0.5", "--k-min", "0", "--k-max", "120"],
                 "--k-min must be positive and finite, got 0.0", id="iv-zero-k-min"),
    pytest.param(["price", "--expiry", "0.5", "--k-min", "80", "--k-max", "120", "--n-strikes", "0"],
                 "--n-strikes must be at least 1, got 0", id="price-zero-n-strikes"),
]
# a slice with a parameter the model squares as a Python float, too large for its square to be finite
SQUARE_OVERFLOW = [
    pytest.param({"type": "sabr", "alpha": 0.25, "beta": 0.9, "rho": -0.5, "gamma": 1e200, "randomizer": {
        "target": "spot", "dist": {"family": "spot-lognormal", "nu": 0.1}, "n_q": 3}}, "gamma", id="spot-sabr-gamma"),
    pytest.param({"type": "sabr", "alpha": 1e200, "beta": 0.9, "rho": -0.5, "gamma": 0.5}, "alpha", id="sabr-alpha"),
    pytest.param({"type": "flat", "sigma": 0.2, "randomizer": {
        "target": "spot", "dist": {"family": "spot-lognormal", "nu": 1e200}, "n_q": 3}}, "nu", id="spot-nu"),
]
# a params file of the wrong JSON shape, and the command that loads it
FLAT = {"type": "flat", "sigma": 0.2}
IV = ["iv", "--expiry", "0.5", "--strikes", "90,100"]
WRONG_SHAPE = [
    pytest.param([1, 2], IV, id="top-level-array"),
    pytest.param(None, IV, id="top-level-null"),
    pytest.param("x", IV, id="top-level-string"),
    pytest.param({"slices": 5}, IV, id="slices-number"),
    pytest.param({"slices": [[1]]}, IV, id="slice-array"),
    pytest.param({**FLAT, "randomizer": [1]}, IV, id="randomizer-array"),
    pytest.param({**FLAT, "randomizer": {"target": "sigma", "dist": [1, 2]}}, IV, id="dist-array"),
    pytest.param({**FLAT, "randomizer": {"target": "sigma", "dist": {"family": "discrete", "points": 5}}}, IV,
                 id="points-number"),
    pytest.param([1, 2], ["check-arb", "--expiry", "0.5"], id="check-arb-top-level-array"),
    pytest.param({"slices": []}, ["check-arb"], id="check-arb-no-slices"),
]
# an expansion order the configured randomizer cannot run
UNRUNNABLE_ORDER = [
    pytest.param("model = flat\nrandomizer = spot-lognormal\nengine = expansion:6\n", id="spot-6"),
    pytest.param("randomizer = gamma-gamma\nengine = expansion:5\n", id="parameter-5"),
    pytest.param("model = flat\nrandomizer = none\nengine = expansion:5\n", id="plain-5"),
]

# a params JSON boolean where a number is read, an infinite sigma or mu (JSON's Infinity is not a number), or an
# n_q that is not a JSON integer, and the error naming the field
SIGMA_LN = {**FLAT, "randomizer": {"target": "sigma", "dist": {"family": "lognormal", "mu": -1.63, "nu": 0.2}}}
NOT_A_NUMBER = [
    pytest.param({"type": "flat", "sigma": True}, IV, "sigma must be a number, got true", id="sigma-true"),
    pytest.param({"type": "flat", "sigma": "0.2"}, IV, 'sigma must be a number, got "0.2"', id="sigma-string"),
    pytest.param({"type": "flat", "sigma": math.inf}, IV, "sigma must be >= 0 and finite, got inf", id="sigma-inf"),
    *(pytest.param({**SIGMA_LN, "randomizer": {"target": "sigma", "dist": {"family": "lognormal", "mu": mu,
                                                                            "nu": 0.2}}}, IV,
                   f"mu must be finite, got {mu}", id=f"dist-mu-{mu}") for mu in (math.inf, -math.inf)),
    pytest.param({"type": "sabr", "alpha": 0.3, "beta": False, "rho": -0.3, "gamma": 0.4}, IV,
                 "beta must be a number, got false", id="sabr-beta-false"),
    pytest.param({**SIGMA_LN, "randomizer": {**SIGMA_LN["randomizer"], "n_q": 2.7}}, IV,
                 "n_q must be an integer, got 2.7", id="n_q-fraction"),
    pytest.param({**SIGMA_LN, "randomizer": {**SIGMA_LN["randomizer"], "n_q": True}}, IV,
                 "n_q must be an integer, got true", id="n_q-true"),
    pytest.param({**SIGMA_LN, "randomizer": {**SIGMA_LN["randomizer"], "n_q": "3"}}, IV,
                 'n_q must be an integer, got "3"', id="n_q-string"),
    pytest.param({**SIGMA_LN, "randomizer": {"target": "sigma", "dist": {"family": "lognormal", "mu": -1.63,
                                                                          "nu": True}}}, IV,
                 "nu must be a number, got true", id="dist-nu-true"),
    pytest.param({**FLAT, "randomizer": {"target": "sigma", "dist": {"family": "discrete",
                                                                     "points": [[0.5, 0.1], [0.5, True]]}}}, IV,
                 "points must be a number, got true", id="discrete-node-true"),
    pytest.param({"slices": [{"expiry": True, "params": FLAT}, {"expiry": 2, "params": FLAT}]}, ["check-arb"],
                 "expiry must be a number, got true", id="slice-expiry-true"),
    pytest.param({"slices": [{"expiry": "0.5", "params": FLAT}, {"expiry": 2, "params": FLAT}]}, ["check-arb"],
                 'expiry must be a number, got "0.5"', id="slice-expiry-string"),
]

# a params file that lacks a field, and the line that names it
GAMMA_GAMMA = {"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.4,
               "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.13}, "n_q": 2}}
MISSING_FIELD = [
    pytest.param({key: GAMMA_GAMMA[key] for key in ("type", "alpha", "beta", "rho")}, "gamma", id="gamma"),
    pytest.param({**GAMMA_GAMMA, "randomizer": {**GAMMA_GAMMA["randomizer"],
                                                "dist": {"family": "gamma", "k": 3.0}}}, "theta", id="theta"),
    pytest.param({**GAMMA_GAMMA, "randomizer": {"dist": GAMMA_GAMMA["randomizer"]["dist"]}}, "target", id="target"),
    pytest.param({**GAMMA_GAMMA, "randomizer": {"target": "gamma"}}, "dist", id="dist"),
    pytest.param({**FLAT, "randomizer": {"target": "sigma", "dist": {"family": "discrete"}}}, "points", id="points"),
]

# a slices-file entry that is not a JSON object, or lacks a field, and the fault the error names
BAD_ENTRY = [
    pytest.param({"slices": [{"expiry": 0.5, "params": FLAT}, {"expiry": 1.0}]}, "slices entry 2 has no 'params'",
                 id="no-params"),
    pytest.param({"slices": [{"params": FLAT}]}, "slices entry 1 has no 'expiry'", id="no-expiry"),
    pytest.param({"slices": [3]}, "slices entry 1 is not an object", id="entry-number"),
]


def write_quotes(path, rows):
    path.write_text(QUOTE_HEADER + "".join(rows), encoding="utf-8")
    return path


class TestLoadQuotes:
    def test_four_expiry_file(self, tmp_path):
        # expiry ladder shaped like a short-dated index option chain
        rows = []
        for date, days in (
            ("2024-08-16", 16),
            ("2024-09-20", 51),
            ("2024-10-18", 79),
            ("2024-11-15", 107),
        ):
            for strike in (5000, 5500, 6000):
                rows.append(f"{date},{strike},C,0.25,10\n")
        quotes = load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)
        expiries = quotes.expiries()
        assert len(expiries) == 4
        np.testing.assert_allclose(expiries, [16 / 365, 51 / 365, 79 / 365, 107 / 365], rtol=1e-12)

    def test_zero_iv_rejected_with_line(self, tmp_path):
        rows = ["2024-08-16,5000,C,0.25,10\n", "2024-08-16,5500,C,0.0,10\n"]
        with pytest.raises(QuoteFormatError, match="line 3"):
            load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)

    @pytest.mark.parametrize("row", ["2024-08-16,5500,C,nan,10\n", "2024-08-16,nan,C,0.25,10\n"])
    def test_nan_row_rejected_with_line(self, tmp_path, row):
        rows = ["2024-08-16,5000,C,0.25,10\n", row]
        with pytest.raises(QuoteFormatError, match="line 3"):
            load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)

    @pytest.mark.parametrize("row", INFINITE_ROWS)
    def test_infinite_row_rejected_with_line(self, tmp_path, row):
        rows = ["2024-08-16,5000,C,0.25,10\n", row]
        with pytest.raises(QuoteFormatError, match="line 3.*finite"):
            load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)

    def test_percent_iv_rejected(self, tmp_path):
        rows = ["2024-08-16,5000,C,25.0,10\n"]
        with pytest.raises(QuoteFormatError, match="fraction"):
            load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)

    def test_quote_without_a_normal_vega_rejected(self, tmp_path):
        # 1 day out at 1% vol, a strike about 3 times the spot has a vega that underflows to 0
        rows = ["2024-08-01,5000,C,0.25,10\n", "2024-08-01,16000,C,0.01,10\n"]
        with pytest.raises(QuoteFormatError, match=re.escape(f"quote at expiry {1 / 365!r} and strike 16000.0: its "
                                                             "Black-Scholes vega 0.0 at its vol 0.01 is not")):
            load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)

    def test_duplicate_pair_resolved_by_liquidity(self, tmp_path):
        rows = ["2024-08-16,5000,C,0.25,10\n", "2024-08-16,5000,P,0.26,90\n"]
        quotes = load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)
        assert len(quotes) == 1
        assert quotes.quotes[0].kind is OptionType.PUT

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(QUOTE_HEADER, encoding="utf-8")
        with pytest.raises(QuoteFormatError, match="no data rows"):
            load_quotes(path, MARKET)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("expiry_date,strike,iv\n2024-08-16,5000,0.2\n", encoding="utf-8")
        with pytest.raises(QuoteFormatError, match="missing columns"):
            load_quotes(path, MARKET)

    def test_expiry_before_trade_date_rejected(self, tmp_path):
        rows = ["2024-07-30,5000,C,0.25,10\n"]
        with pytest.raises(QuoteFormatError, match="after the trade date"):
            load_quotes(write_quotes(tmp_path / "q.csv", rows), MARKET)

    def test_act_365(self):
        assert year_fraction(dt.date(2024, 7, 31), dt.date(2024, 8, 16)) == pytest.approx(16 / 365)


class TestRunConfig:
    def test_parse_full_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# synthetic market\n"
            "spot = 100.0\n"
            "rate = 0.02\n"
            "trade_date = 2024-07-31\n"
            "model = sabr\n"
            "randomizer = gamma-gamma\n"
            "n_q = 2\n"
            "beta = 0.9\n"
            "multistart = 4\n",
            encoding="utf-8",
        )
        cfg = parse_config(path)
        assert cfg.market.spot == 100.0
        assert cfg.fit.randomizer == "gamma-gamma"
        assert cfg.fit.beta == 0.9
        assert cfg.fit.multistart == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot = 1\nrate = 0\ntrade_date = 2024-07-31\nsmile = yes\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(path)

    def test_missing_market_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot = 1\nrate = 0\n")
        with pytest.raises(ValueError, match="trade_date"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["m_max", "grid_lo", "grid_hi", "grid_points"])
    def test_keys_nothing_reads_rejected(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{MARKET_LINES}{key} = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(path)

    @pytest.mark.parametrize("line,bad", MISSPELLED)
    def test_misspelled_value_rejected(self, tmp_path, line, bad):
        path = tmp_path / "run.cfg"
        path.write_text(f"{MARKET_LINES}{line}\n")
        with pytest.raises(ValueError, match=bad):
            parse_config(path)

    def test_market_only_config_takes_fit_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MARKET_LINES)
        assert parse_config(path).fit == FitConfig()

    def test_every_fit_key_lands_in_fit_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            MARKET_LINES + "model = flat\nrandomizer = spot-lognormal\nengine = brent\nn_q = 3\n"
            "beta = 0.7\nbudget = 500\nmultistart = 5\nseed = 7\n"
        )
        assert parse_config(path).fit == FitConfig(
            model="flat", randomizer="spot-lognormal", engine="brent", n_q=3,
            beta=0.7, budget=500, multistart=5, seed=7,
        )


@pytest.fixture
def sigma_params_file(tmp_path):
    params = {
        "type": "flat",
        "sigma": 0.2,
        "randomizer": {
            "target": "sigma",
            "dist": {"family": "lognormal", "mu": math.log(0.2) - 0.02, "nu": 0.2},
            "n_q": 4,
        },
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    return path


class TestCli:
    def test_iv_engines_agree(self, tmp_path, sigma_params_file, capsys):
        fwd = 100.0 * math.exp(0.02 * 2.0)
        strikes = ",".join(f"{fwd * math.exp(-m):.6f}" for m in np.linspace(-0.3, 0.3, 21))
        common = [
            "--spot", "100", "--rate", "0.02",
            "--params", str(sigma_params_file),
            "--expiry", "2.0", "--strikes", strikes,
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["iv", *common, "--engine", "expansion:6", "--out", str(out_a)]) == 0
        assert main(["iv", *common, "--engine", "brent", "--out", str(out_b)]) == 0
        iv_a = np.array([float(r.split(",")[2]) for r in out_a.read_text().splitlines()[1:]])
        iv_b = np.array([float(r.split(",")[2]) for r in out_b.read_text().splitlines()[1:]])
        assert np.max(np.abs(iv_a - iv_b)) < 1e-3

    def test_iv_small_nu_eight_node_slice(self, tmp_path, capsys):
        # nu = 0.05 at n_q = 8 is beyond the Hankel moment route's precision
        params = {
            "type": "flat",
            "sigma": 0.2,
            "randomizer": {
                "target": "sigma",
                "dist": {"family": "lognormal", "mu": math.log(0.2), "nu": 0.05},
                "n_q": 8,
            },
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        rc = main([
            "iv", "--spot", "100", "--rate", "0.02", "--params", str(path),
            "--expiry", "0.5", "--strikes", "80,100,120",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_points_file_input(self, tmp_path, sigma_params_file, capsys):
        points = tmp_path / "pts.csv"
        points.write_text("expiry,strike\n0.5,95\n0.5,105\n1.0,100\n", encoding="utf-8")
        rc = main([
            "iv", "--spot", "100", "--rate", "0.02",
            "--params", str(sigma_params_file), "--points", str(points),
            "--engine", "brent",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "expiry,strike,iv"
        assert len(lines) == 4
        assert {line.split(",")[0] for line in lines[1:]} == {"0.5", "1"}

    def test_price_single_point(self, sigma_params_file, capsys):
        rc = main([
            "price", "--spot", "100", "--rate", "0",
            "--params", str(sigma_params_file),
            "--expiry", "1.0", "--strikes", "100",
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "expiry,strike,price"
        assert float(out[1].split(",")[2]) > 0

    def test_price_expansion_matches_per_point_black_scholes(self, sigma_params_file, capsys):
        common = ["--spot", "100", "--rate", "0.02", "--params", str(sigma_params_file),
                  "--expiry", "0.75", "--k-min", "60", "--k-max", "170", "--n-strikes", "23"]
        assert main(["price", *common, "--engine", "expansion:6"]) == 0
        got = np.array([float(r.split(",")[2]) for r in capsys.readouterr().out.splitlines()[1:]])
        ctx = MarketContext(s0=100.0, r=0.02)
        strikes = np.linspace(60.0, 170.0, 23)
        rs = randomize(params_from_json(json.loads(sigma_params_file.read_text()), spot=100.0), ctx)
        vols = implied_vol_grid(rs, 0.75, strikes, engine="expansion:6")
        want = [bs_price(ctx, OptionKey(0.75, float(k)), float(v)) for k, v in zip(strikes, vols)]
        # 12 significant digits are written: up to 5e-12 relative rounding
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_two_commands_in_one_process(self, sigma_params_file, capsys):
        assert main(["price", "--spot", "100", "--params", str(sigma_params_file),
                     "--expiry", "1.0", "--strikes", "100"]) == 0
        assert capsys.readouterr().out.startswith("expiry,strike,price\n")
        assert main(["iv", "--spot", "100", "--params", str(sigma_params_file),
                     "--expiry", "1.0", "--strikes", "90,110", "--engine", "expansion:4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_price_engine_name_is_case_insensitive(self, sigma_params_file, capsys):
        common = [
            "price", "--spot", "100", "--rate", "0",
            "--params", str(sigma_params_file),
            "--expiry", "0.5", "--strikes", "130",
        ]
        assert main([*common, "--engine", "brent"]) == 0
        exact = capsys.readouterr().out
        assert main([*common, "--engine", "Brent"]) == 0
        assert capsys.readouterr().out == exact

    def test_density_of_plain_flat_slice(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"type": "flat", "sigma": 0.2}), encoding="utf-8")
        rc = main([
            "density", "--spot", "100", "--rate", "0.02",
            "--params", str(path), "--expiry", "1.0", "--out", str(tmp_path / "d.csv"),
        ])
        assert rc == 0
        stats = dict(item.split("=") for item in capsys.readouterr().err.split())
        assert float(stats["mass"]) == pytest.approx(1.0, abs=1e-3)
        assert float(stats["mean"]) == pytest.approx(100.0 * math.exp(0.02), rel=1e-3)

    def test_density_diagnostics_on_stderr(self, tmp_path, sigma_params_file, capsys):
        out = tmp_path / "d.csv"
        rc = main([
            "density", "--spot", "100", "--rate", "0.02",
            "--params", str(sigma_params_file),
            "--expiry", "1.0", "--n-strikes", "501", "--out", str(out),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "mass=" in err and "mean=" in err
        assert out.read_text().splitlines()[0] == "strike,density"

    def test_check_arb_clean_exit_zero(self, sigma_params_file, capsys):
        rc = main([
            "check-arb", "--spot", "100", "--rate", "0.02",
            "--params", str(sigma_params_file), "--expiry", "1.0",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_check_arb_calendar_violation_exit_one(self, tmp_path, capsys):
        slices = {
            "slices": [
                {"expiry": 0.5, "params": {"type": "flat", "sigma": 0.3}},
                {"expiry": 1.0, "params": {"type": "flat", "sigma": 0.1}},
            ]
        }
        path = tmp_path / "slices.json"
        path.write_text(json.dumps(slices), encoding="utf-8")
        rc = main(["check-arb", "--spot", "100", "--rate", "0", "--params", str(path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["calendar_violations"]

    def test_check_arb_refuses_expiry_with_a_slices_file(self, tmp_path, capsys):
        slices = {"slices": [{"expiry": 0.5, "params": FLAT}, {"expiry": 1.0, "params": FLAT}]}
        path = tmp_path / "slices.json"
        path.write_text(json.dumps(slices), encoding="utf-8")
        rc = main(["check-arb", "--spot", "100", "--rate", "0", "--params", str(path), "--expiry", "7"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: --expiry applies to a single-slice params file")

    @pytest.mark.parametrize("data,command", WRONG_SHAPE)
    def test_params_of_the_wrong_shape_fail(self, tmp_path, capsys, data, command):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc = main([command[0], "--spot", "100", "--params", str(path), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("data,command,message", NOT_A_NUMBER)
    def test_params_that_are_not_json_numbers_fail(self, tmp_path, capsys, data, command, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc = main([command[0], "--spot", "100", "--params", str(path), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("data,field", MISSING_FIELD)
    def test_params_missing_a_field_name_it(self, tmp_path, capsys, data, field):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["iv", "--spot", "100", "--params", str(path), "--expiry", "0.5", "--strikes", "90,100"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: malformed slice params: missing field '{field}'\n"

    @pytest.mark.parametrize("data,fault", BAD_ENTRY)
    @pytest.mark.parametrize("command", [["check-arb"], ["interp", "--expiry", "0.5", "--strike", "100"]],
                             ids=["check-arb", "interp"])
    def test_slices_entry_faults_are_named(self, tmp_path, capsys, data, fault, command):
        path = tmp_path / "slices.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc = main([command[0], "--spot", "100", "--params", str(path), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: malformed params file {path}: {fault}\n"

    @pytest.mark.parametrize("violating", [False, True], ids=["clean", "violating"])
    def test_check_arb_mixed_slices_report_as_per_slice_checks(self, tmp_path, capsys, violating):
        # flat sigma, gamma-gamma SABR and spot slices: three stacks in each stacked call
        sigma = {**SIGMA_LN, "randomizer": {**SIGMA_LN["randomizer"], "n_q": 4}}
        spot = {**FLAT, "randomizer": {"target": "spot", "dist": {"family": "spot-lognormal", "nu": 0.05}, "n_q": 3}}
        gamma = {"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.4,
                 "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.13}, "n_q": 2}}
        # steep wings break Hagan's convexity and far-strike limit; a high flat vol before them breaks the calendar
        steep = {**gamma, "rho": -0.5, "gamma": 1.5,
                 "randomizer": {**gamma["randomizer"], "dist": {"family": "gamma", "k": 3.0, "theta": 0.5}}}
        rows = [(0.25, spot), (0.5, sigma), (0.75, gamma), (1.0, gamma), (1.5, sigma), (2.0, spot)]
        if violating:
            rows = [(0.25, spot), (0.5, {**FLAT, "sigma": 0.6}), (1.0, gamma), (2.0, steep), (3.0, spot)]
        path = tmp_path / "slices.json"
        path.write_text(json.dumps({"slices": [{"expiry": t, "params": p} for t, p in rows]}), encoding="utf-8")
        rc = main(["check-arb", "--spot", "100", "--rate", "0.02", "--params", str(path)])
        ctx = MarketContext(s0=100.0, r=0.02)
        surfaces = SliceSet(tuple((t, randomize(params_from_json(p, spot=100.0), ctx)) for t, p in rows))
        expected = check_calendar(surfaces, default_strike_grid(ctx, 0.25, 51, 0.7, 1.4))
        for t, rs in reversed(surfaces.slices):
            expected = check_butterfly(lambda t, ks, rs=rs: randomized_prices(rs, t, ks), t,
                                       default_strike_grid(ctx, t), ctx, check_intrinsic=rs.target != "spot"
                                       ).merge(expected)
        assert rc == (1 if violating else 0) and expected.passed is not violating
        if violating:
            assert expected.butterfly_violations and expected.calendar_violations
            assert "far_strike_limit" in {v.side for v in expected.bound_violations}
        assert capsys.readouterr().out == json.dumps(expected.to_json(), indent=2) + "\n"

    def test_interp_flat_slices(self, tmp_path, capsys):
        slices = {
            "slices": [
                {"expiry": 1.0, "params": {"type": "flat", "sigma": 0.2}},
                {"expiry": 2.0, "params": {"type": "flat", "sigma": 0.25}},
            ]
        }
        path = tmp_path / "slices.json"
        path.write_text(json.dumps(slices), encoding="utf-8")
        rc = main([
            "interp", "--spot", "100", "--rate", "0",
            "--params", str(path), "--expiry", "1.5", "--strike", "100",
        ])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.sqrt(0.055), rel=1e-9)

    def test_fit_writes_outputs(self, tmp_path, capsys):
        rows = [
            f"2024-10-29,{k},C,0.2,5\n" for k in np.linspace(80, 120, 9)
        ]
        quotes = write_quotes(tmp_path / "q.csv", rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\n"
            "model = flat\nrandomizer = none\nmultistart = 4\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        fit_files = list(out_dir.glob("fit_T*.json"))
        res_files = list(out_dir.glob("residuals_T*.csv"))
        assert len(fit_files) == 1 and len(res_files) == 1
        blob = json.loads(fit_files[0].read_text())
        assert blob["params"]["sigma"] == pytest.approx(0.2, abs=1e-6)
        assert blob["sse"] < 1e-10
        assert res_files[0].read_text().splitlines()[0] == "expiry,strike,residual"

    def test_fit_with_a_bad_slice_writes_the_others(self, tmp_path, capsys):
        # three expiries of a known gamma-gamma slice; the last holds 3 quotes for 4 free parameters
        ctx = MarketContext(s0=100.0, r=0.02)
        true = params_from_json({"type": "sabr", "alpha": 0.25, "beta": 0.9, "rho": -0.135, "gamma": 1.5,
                                 "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.5},
                                                "n_q": 2}})
        rs = randomize(true, ctx)
        rows = []
        for days, count in ((36, 20), (146, 15), (365, 3)):
            expiry = days / 365.0
            strikes = np.round(np.linspace(0.85, 1.15, count) * ctx.forward(expiry), 2)
            date = (dt.date(2024, 7, 31) + dt.timedelta(days=days)).isoformat()
            rows += [f"{date},{k:.2f},C,{v:.10f},5\n" for k, v in zip(strikes, implied_vol_grid(rs, expiry, strikes))]
        quotes = write_quotes(tmp_path / "q.csv", rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spot = 100\nrate = 0.02\ntrade_date = 2024-07-31\nmodel = sabr\nrandomizer = gamma-gamma\n"
                       "n_q = 2\nbeta = 0.9\nmultistart = 4\nseed = 3\n", encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert sorted(p.name for p in out_dir.glob("fit_T*.json")) == ["fit_T0_09863.json", "fit_T0_4.json"]
        assert len(list(out_dir.glob("residuals_T*.csv"))) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: T=1.000000: need at least 4 quotes to fit 4 free parameters, got 3"]
        # the run's last line counts the slices, the shared model calls and the evaluations
        assert err[-1].startswith("fit: ")
        stats = dict(item.split("=") for item in err[-1].removeprefix("fit: ").split())
        blobs = [json.loads(p.read_text()) for p in out_dir.glob("fit_T*.json")]
        assert (stats["slices"], stats["failed"]) == ("3", "1")
        assert int(stats["evaluations"]) == sum(blob["evaluations"] for blob in blobs)
        assert int(stats["model_calls"]) < sum(blob["model_calls"] for blob in blobs)

    @pytest.mark.parametrize("line,bad", MISSPELLED)
    def test_fit_misspelled_config_fails_before_fitting(self, tmp_path, capsys, line, bad):
        quotes = write_quotes(tmp_path / "q.csv", [f"2024-10-29,{k},C,0.2,5\n" for k in (90, 100, 110)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{MARKET_LINES}{line}\n", encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert bad in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line,key", BELOW_ONE)
    def test_fit_count_below_one_fails_before_fitting(self, tmp_path, capsys, line, key):
        quotes = write_quotes(tmp_path / "q.csv", [f"2024-10-29,{k},C,0.2,5\n" for k in (90, 100, 110)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{MARKET_LINES}model = flat\nrandomizer = none\n{line}\n", encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert f"{key} must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fit_node_count_outside_the_supported_range_fails_before_fitting(self, tmp_path, capsys):
        quotes = write_quotes(tmp_path / "q.csv", [f"2024-10-29,{k},C,0.2,5\n" for k in (90, 100, 110)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{MARKET_LINES}model = flat\nrandomizer = sigma-lognormal\nn_q = 11\n", encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert "n_q must be between 1 and 10, got 11" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("args,bad", BAD_GRID_INPUT)
    def test_bad_grid_input_fails(self, sigma_params_file, capsys, args, bad):
        command, *rest = args
        rc = main([command, "--spot", "100", "--params", str(sigma_params_file), *rest])
        assert rc == 2
        captured = capsys.readouterr()
        assert bad in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("params,name", SQUARE_OVERFLOW)
    def test_square_overflowing_parameter_fails(self, tmp_path, capsys, params, name):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        rc = main(["iv", "--spot", "100", "--params", str(path), "--expiry", "0.5", "--strikes", "90,100,110"])
        assert rc == 2
        assert f"error: {name} must be >= 0 with a finite square, got 1e+200" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["iv", "price"])
    def test_overflowing_node_vol_fails(self, tmp_path, capsys, command):
        # gamma has a finite square, so it is inside the domain, but the Hagan vol overflows at 90 and 110:
        # one error line, and no floating-point warning (the suite makes them errors)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.5, "gamma": 1e150}),
                        encoding="utf-8")
        rc = main([command, "--spot", "100", "--params", str(path), "--expiry", "0.5", "--strikes", "90,100,110"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: node vols must be finite") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("order", ["1", "5", "99"])
    def test_iv_plain_slice_refuses_an_order_the_expansion_lacks(self, tmp_path, capsys, order):
        # a plain slice is a one-node rule, whose vols need no expansion: the order is still checked
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"type": "flat", "sigma": 0.2}), encoding="utf-8")
        rc = main(["iv", "--spot", "100", "--params", str(path), "--expiry", "1", "--strikes", "90,100",
                   "--engine", f"expansion:{order}"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: parameter expansion supports orders (0, 2, 4, 6), got {order}\n"

    @pytest.mark.parametrize("lines", UNRUNNABLE_ORDER)
    def test_fit_unrunnable_order_fails_before_fitting(self, tmp_path, capsys, lines):
        quotes = write_quotes(tmp_path / "q.csv", [f"2024-10-29,{k},C,0.2,5\n" for k in (90, 100, 110)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MARKET_LINES + lines, encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert "expansion supports orders" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("header,row,column", [
        ("strike,expiry_date,type,iv,open_interest\n", "105\n", "expiry_date"),
        (QUOTE_HEADER, "2024-10-29,105,C,0.2\n", "open_interest"),
    ], ids=["strike-only", "no-open-interest"])
    def test_fit_short_row_fails_before_fitting(self, tmp_path, capsys, header, row, column):
        # csv.DictReader reads the fields a short row lacks as None: refused with the row's line, not a crash
        quotes = tmp_path / "q.csv"
        quotes.write_text(header + row, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MARKET_LINES, encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: line 2: missing value for '{column}'\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("row,extra", [
        ("2024-10-29,80,C,0.222,1,000\n", 1),
        ("2024-10-29,1,080,C,0.222,1,000\n", 2),
    ], ids=["thousands-open-interest", "thousands-strike-and-open-interest"])
    def test_fit_long_row_fails_before_fitting(self, tmp_path, capsys, row, extra):
        # csv.DictReader keeps the fields past the header under None: refused, not read as an open interest of 1
        quotes = tmp_path / "q.csv"
        quotes.write_text(QUOTE_HEADER + row, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MARKET_LINES, encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: line 2: {extra} field(s) more than the header\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("row", INFINITE_ROWS)
    def test_fit_infinite_quote_fails_before_fitting(self, tmp_path, capsys, row):
        rows = [row] + [f"2024-10-29,{k},C,0.2,5\n" for k in (90, 95, 105, 110)]
        quotes = write_quotes(tmp_path / "q.csv", rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{MARKET_LINES}model = flat\nrandomizer = none\n", encoding="utf-8")
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fit_failed_slices_still_written(self, tmp_path, capsys):
        rows = [
            f"{date},{k},C,0.2,5\n"
            for date in ("2024-09-20", "2024-10-29")
            for k in np.linspace(80, 120, 9)
        ]
        quotes = write_quotes(tmp_path / "q.csv", rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\n"
            "model = flat\nrandomizer = none\nmultistart = 4\nbudget = 3\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "fits"
        rc = main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        fit_files = sorted(out_dir.glob("fit_T*.json"))
        assert len(fit_files) == 2 and len(list(out_dir.glob("residuals_T*.csv"))) == 2
        assert all(json.loads(f.read_text())["converged"] is False for f in fit_files)
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 2

    def test_fit_roundtrip_through_iv(self, tmp_path, capsys):
        # fitted params re-priced on the quote grid reproduce the residuals
        rows = [f"2024-10-29,{k},C,0.25,5\n" for k in np.linspace(85, 115, 7)]
        quotes = write_quotes(tmp_path / "q.csv", rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\n"
            "model = flat\nrandomizer = none\nmultistart = 4\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "fits"
        assert main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        fit_file = next(out_dir.glob("fit_T*.json"))
        blob = json.loads(fit_file.read_text())
        params_file = tmp_path / "fitted.json"
        params_file.write_text(json.dumps(blob["params"]), encoding="utf-8")
        expiry = blob["expiry"]
        strikes = ",".join(f"{k:.10g}" for k in np.linspace(85, 115, 7))
        assert main([
            "iv", "--spot", "100", "--rate", "0",
            "--params", str(params_file), "--expiry", f"{expiry:.10g}",
            "--strikes", strikes, "--engine", "brent",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        residuals = [float(line.split(",")[2]) - 0.25 for line in lines]
        res_file = next(out_dir.glob("residuals_T*.csv"))
        recorded = [float(line.split(",")[2]) for line in res_file.read_text().splitlines()[1:]]
        np.testing.assert_allclose(residuals, recorded, atol=1e-12)

    def test_check_arb_on_fitted_surface_exit_zero(self, tmp_path, capsys):
        rows = [f"2024-10-29,{k},C,0.22,5\n" for k in np.linspace(80, 120, 9)]
        quotes = write_quotes(tmp_path / "q.csv", rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\n"
            "model = flat\nrandomizer = none\nmultistart = 4\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "fits"
        assert main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        blob = json.loads(next(out_dir.glob("fit_T*.json")).read_text())
        params_file = tmp_path / "fitted.json"
        params_file.write_text(json.dumps(blob["params"]), encoding="utf-8")
        rc = main([
            "check-arb", "--spot", "100", "--rate", "0",
            "--params", str(params_file), "--expiry", f"{blob['expiry']:.10g}",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_the_commands_are_the_six_user_commands(self, capsys):
        commands, = (action.choices for action in _build_parser()._actions if action.dest == "command")
        assert set(commands) == {"fit", "price", "iv", "density", "check-arb", "interp"}
        with pytest.raises(SystemExit) as exited:
            main(["bench"])
        assert exited.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        rc = main(["iv", "--spot", "100", "--params", "/nonexistent.json", "--expiry", "1", "--strikes", "100"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBenchTrend:
    def test_brent_to_expansion_ratio_grows_with_count(self):
        # the root finder scales linearly while the expansion is dominated
        # by per-expiry setup, so the speedup widens as counts grow
        rs = reference_slice()

        def ratio(count):
            brent = time_brent(rs, count)
            expansion = min(time_expansion(rs, count, 4) for _ in range(5))
            return brent / expansion

        small, large = ratio(1_000), ratio(10_000)
        if large <= small:  # wall-clock check: allow one retry under noise
            small, large = ratio(1_000), ratio(10_000)
        assert large > small
