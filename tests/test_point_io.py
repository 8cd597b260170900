"""Point input and CSV output of the command line, against the per-row forms they replaced.

`oracle_points` is the earlier per-row `--points` parser, kept verbatim as
the reference: the array parser must return its groups and arrays bit for
bit and fail with its messages, after the file and the failing row's line.
The row writer must print the bytes of the per-value f-strings it replaced.
"""
import argparse
import datetime as dt
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from randvol.calibration import fit_surface
from randvol.cli import _resolve_points, main
from randvol.parametrizations import params_from_json
from randvol.pricing import MarketContext, bs_call_values, expiry_terms
from randvol.quotes import MarketConfig, load_quotes, parse_config
from randvol.randomization import csv_rows, density, implied_vol_grid, randomize, randomized_prices

BOM = "\ufeff"
SPOT, RATE = 100.0, 0.02
PARAMS = {
    "type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.4,
    "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.13}, "n_q": 2},
}
MARKET_ARGS = ["--spot", f"{SPOT}", "--rate", f"{RATE}"]


def oracle_points(path) -> list[tuple[float, np.ndarray]]:
    """The per-row parser the array parser replaced, as it read a points file."""
    by_expiry: dict[float, list[float]] = {}
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if rows and rows[0].lower().replace(" ", "") == "expiry,strike":
        rows = rows[1:]
    for row in rows:
        expiry_s, strike_s = row.split(",")
        by_expiry.setdefault(float(expiry_s), []).append(float(strike_s))
    return [(t, np.asarray(ks)) for t, ks in sorted(by_expiry.items())]


def points_args(path) -> argparse.Namespace:
    return argparse.Namespace(points=str(path), expiry=None, strikes=None, k_min=None, k_max=None, n_strikes=101)


def bits(groups) -> list[tuple[str, str, bytes]]:
    """Each group's expiry, as its exact bits and type, and its strikes' bytes."""
    return [(float.hex(t), type(t).__name__, np.asarray(ks, dtype=float).tobytes()) for t, ks in groups]


def write(path, text: str, newline: str = "\n"):
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PARAMS), encoding="utf-8")
    return path


def random_points_text(rng) -> str:
    """Interleaved, duplicated expiries (0.0 and -0.0 among them) with strikes in every form `float()` reads."""
    expiry_forms = ["0.5", "0.50", "5e-1", " 1.0", "1 ", "1_0", "0.25", "2", "2.0", "-0.0", "0.0", "1e2", "3"]
    rows = []
    for _ in range(int(rng.integers(1, 60))):
        strike = float(rng.uniform(20.0, 300.0))
        form = int(rng.integers(6))
        strike_s = [f"{strike!r}", f"{strike:.6e}", f" {strike:.4f} ", f"{int(strike)}_0", "nan", "1e2"][form]
        rows.append(f"{expiry_forms[int(rng.integers(len(expiry_forms)))]},{strike_s}")
    header = ["expiry,strike\n", "Expiry, Strike\n", "EXPIRY ,STRIKE\n", ""][int(rng.integers(4))]
    return header + "\n".join(rows) + "\n" * int(rng.integers(1, 3))


class TestPointsParser:
    @pytest.mark.parametrize("seed", range(40))
    def test_groups_and_arrays_match_the_per_row_parser(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        newline = "\r\n" if seed % 2 else "\n"
        path = write(tmp_path / "points.csv", random_points_text(rng), newline)
        assert bits(_resolve_points(points_args(path))) == bits(oracle_points(path))

    def test_rows_keep_file_order_within_an_expiry(self, tmp_path):
        path = write(tmp_path / "points.csv", "expiry,strike\n1,120\n0.5,90\n1,80\n0.5,110\n1,100\n")
        groups = _resolve_points(points_args(path))
        assert [(t, ks.tolist()) for t, ks in groups] == [(0.5, [90.0, 110.0]), (1.0, [120.0, 80.0, 100.0])]

    def test_a_hundred_thousand_rows_match_the_per_row_parser(self, tmp_path):
        rng = np.random.default_rng(9)
        expiries = rng.choice([0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0], 100_000)
        strikes = 100.0 * np.exp(rng.uniform(-0.5, 0.5, expiries.size))
        path = write(tmp_path / "points.csv",
                     "expiry,strike\n" + "".join(f"{t:.10g},{k:.17g}\n" for t, k in zip(expiries, strikes)))
        assert bits(_resolve_points(points_args(path))) == bits(oracle_points(path))

    @pytest.mark.parametrize("text,line", [
        pytest.param("expiry,strike\n0.5,100\n0.5\n", 3, id="one-field"),
        pytest.param("expiry,strike\n0.5,100\n0.5,100,3\n", 3, id="three-fields"),
        pytest.param("expiry,strike\n0.5,100,7\n0.5\n0.5,100\n", 2, id="three-and-one-balance"),
        pytest.param("expiry,strike\n0.5\n0.5,100,7\n", 2, id="one-and-three-balance"),
        pytest.param("expiry,strike\n0.5,abc\n", 2, id="non-numeric-strike"),
        pytest.param("expiry,strike\nsoon,100\n", 2, id="non-numeric-expiry"),
        pytest.param("expiry,strike\n0.5,100\n\n1.0,100\n", 3, id="blank-interior-line"),
        pytest.param("expiry,strike\n0.5,100\n  \n1.0,100\n", 3, id="spaces-only-interior-line"),
        pytest.param("expiry,strike\n0.5,1x0\n0.5,100,7\n", 2, id="bad-number-before-bad-count"),
        pytest.param("expiry,strike\n0.5,100,7\n0.5,1x0\n", 2, id="bad-count-before-bad-number"),
        pytest.param("expiry;strike\n0.5;100\n", 1, id="semicolons"),
        pytest.param("expiry,strike\n0x10,100\n", 2, id="hex"),
        pytest.param("\n \n expiry,strike\n0.5,100\n0.5,abc\n", 5, id="leading-blank-lines"),
    ])
    def test_malformed_file_fails_with_the_per_row_message(self, tmp_path, params_file, capsys, text, line):
        # the per-row parser's message, after the file and the row's 1-based line, the header counted
        path = write(tmp_path / "points.csv", text)
        with pytest.raises(ValueError) as expected:
            oracle_points(path)
        rc = main(["iv", *MARKET_ARGS, "--params", str(params_file), "--points", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: points file {path} line {line}: {expected.value}\n"

    @pytest.mark.parametrize("text", ["", "\n\n", "expiry,strike\n", "Expiry, Strike\r\n\r\n", "  \n"])
    def test_file_without_data_rows_fails_naming_it(self, tmp_path, params_file, capsys, text):
        path = write(tmp_path / "empty.csv", text)
        rc = main(["iv", *MARKET_ARGS, "--params", str(params_file), "--points", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: points file {path} contains no data rows\n"

    @pytest.mark.parametrize("flags, named", [
        (["--expiry", "0.5"], "--expiry"),
        (["--strikes", "90,100"], "--strikes"),
        (["--k-min", "80", "--k-max", "120"], "--k-min, --k-max"),
        (["--expiry", "0.5", "--k-max", "120"], "--expiry, --k-max"),
    ])
    @pytest.mark.parametrize("command", ["iv", "price"])
    def test_points_with_grid_flags_fails_naming_them(self, tmp_path, params_file, capsys, command, flags, named):
        path = write(tmp_path / "points.csv", "expiry,strike\n0.5,100\n")
        rc = main([command, *MARKET_ARGS, "--params", str(params_file), "--points", str(path), *flags])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: --points cannot be combined with {named}\n"


class TestByteOrderMark:
    """Every CLI input file may start with a UTF-8 byte-order mark."""

    def test_points_file(self, tmp_path, params_file, capsys):
        text = "expiry,strike\n1.0,110\n0.5,90\n1.0,100\n"
        plain = write(tmp_path / "plain.csv", text)
        marked = write(tmp_path / "marked.csv", BOM + text, "\r\n")
        outputs = []
        for path in (plain, marked):
            assert main(["iv", *MARKET_ARGS, "--params", str(params_file), "--points", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 4

    def test_quote_file(self, tmp_path):
        market = MarketConfig(spot=100.0, rate=0.0, trade_date=dt.date(2024, 7, 31))
        path = write(tmp_path / "q.csv", BOM + "expiry_date,strike,type,iv,open_interest\n2024-10-29,100,C,0.2,5\n")
        quotes = load_quotes(path, market)
        assert [(q.strike, q.iv) for q in quotes.quotes] == [(100.0, 0.2)]

    def test_run_config(self, tmp_path):
        path = write(tmp_path / "run.cfg", BOM + "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\nn_q = 3\n")
        cfg = parse_config(path)
        assert cfg.market.spot == 100.0 and cfg.fit.n_q == 3

    def test_params_file(self, tmp_path, capsys):
        path = write(tmp_path / "params.json", BOM + json.dumps(PARAMS))
        rc = main(["iv", *MARKET_ARGS, "--params", str(path), "--expiry", "0.5", "--strikes", "90,100"])
        assert rc == 0 and len(capsys.readouterr().out.splitlines()) == 3


def fstring_rows(expiry, strikes, values) -> str:
    """The per-value f-strings `iv`/`price` wrote before the row writer."""
    return "".join(f"{expiry:.10g},{k:.10g},{v:.12g}\n" for k, v in zip(strikes, values))


# values where %g formatting is delicate: specials, extremes, and .10g/.12g rounding and exponent boundaries
EDGE_VALUES = [
    float("nan"), -float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324,
    1.7976931348623157e308, 0.12345678905, 0.123456789050001, 1.00000000005, 9.9999999995, 9.99999999995,
    9999999999.5, 999999999999.5, 99999.999995, 9.9999999995e-5, 9.99999999995e-5, 1e-5, 1e-4, 1e10, 1e12,
    0.5, 2.5e-16, 123456789012345.0, 1234567890.5, 0.1 + 0.2,
]


class TestRowWriter:
    def test_edge_values_print_as_the_fstrings_did(self):
        values = np.array(EDGE_VALUES)
        table = np.column_stack((values, values[::-1]))
        assert csv_rows("%.10g,%.12g", table) == "".join(f"{k:.10g},{p:.12g}\n" for k, p in table)
        assert csv_rows("0.5,%.10g,%.12g", table) == fstring_rows(0.5, values, values[::-1])

    def test_random_values_of_every_magnitude(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-320, 308, 20_000)
        # the doubles nearest the decimal halfway points of the 10th and the 12th significant digit, and their neighbours
        halfway = np.concatenate([np.round(rng.uniform(1.0, 10.0, 1000), 9) + 5e-10,
                                  np.round(rng.uniform(1.0, 10.0, 1000), 11) + 5e-12])
        halfway *= 10.0 ** rng.integers(-8, 8, halfway.size)
        values = np.concatenate([values, halfway, np.nextafter(halfway, 0.0), np.nextafter(halfway, np.inf)])
        table = np.column_stack((values, values[::-1]))
        assert csv_rows("1e-05,%.10g,%.12g", table) == fstring_rows(1e-05, table[:, 0], table[:, 1])

    def test_residual_tuples(self):
        rows = [(0.25, 95.0, -1.5e-4), (0.25, 100.0, 0.0), (0.25, 105.0, float("nan"))]
        assert csv_rows("%.10g,%.10g,%.12g", rows) == "".join(f"{t:.10g},{k:.10g},{r:.12g}\n" for t, k, r in rows)
        assert csv_rows("%.10g,%.10g,%.12g", []) == ""

    def test_density_csv(self):
        rs = randomize(params_from_json(PARAMS, spot=SPOT), MarketContext(s0=SPOT, r=RATE))
        curve = density(rs, 0.5, np.exp(np.linspace(math.log(30.0), math.log(300.0), 301)))
        buffer = io.StringIO()
        curve.to_csv(buffer)
        expected = "strike,density\n" + "".join(f"{k:.10g},{p:.12g}\n" for k, p in zip(curve.strikes, curve.values))
        assert buffer.getvalue() == expected

    @pytest.mark.parametrize("command, engine", [
        ("iv", "brent"), ("iv", "expansion:6"), ("price", "brent"), ("price", "expansion:6")])
    def test_grid_commands_print_the_fstring_rows(self, tmp_path, params_file, capsys, command, engine):
        rng = np.random.default_rng(11)
        expiries = rng.choice([0.25, 0.5, 1.0], 300)
        strikes = 100.0 * np.exp(rng.uniform(-0.3, 0.3, expiries.size))
        path = write(tmp_path / "points.csv", "".join(f"{t:.10g},{k:.17g}\n" for t, k in zip(expiries, strikes)))
        assert main([command, *MARKET_ARGS, "--params", str(params_file), "--points", str(path),
                     "--engine", engine]) == 0
        rs = randomize(params_from_json(PARAMS, spot=SPOT), MarketContext(s0=SPOT, r=RATE))
        expected = f"expiry,strike,{command}\n"
        for t, ks in oracle_points(path):
            if command == "price" and engine == "brent":
                values = randomized_prices(rs, t, ks)
            else:
                values = implied_vol_grid(rs, t, ks, engine=engine)
                if command == "price":
                    values = bs_call_values(rs.ctx.s0, *expiry_terms(rs.ctx, t)[1:4], ks, values)
            expected += fstring_rows(t, ks, values)
        assert capsys.readouterr().out == expected

    # `price` on brent takes the mixture prices as they are: nothing is inverted
    @pytest.mark.parametrize("command, engine", [("iv", "brent"), ("iv", "expansion:6"), ("price", "expansion:6")])
    def test_a_failing_expiry_fails_the_job_as_its_lone_run_does(self, tmp_path, capsys, command, engine):
        # at 0.05y the sigma/lognormal slice prices deep in-the-money strikes on their intrinsic value: no vol exists
        nu = 0.2
        params = tmp_path / "flat.json"
        params.write_text(json.dumps({"type": "flat", "sigma": 0.2, "randomizer": {
            "target": "sigma", "dist": {"family": "lognormal", "mu": math.log(0.2) - 0.5 * nu**2, "nu": nu},
            "n_q": 4}}), encoding="utf-8")
        strikes = np.exp(np.linspace(math.log(50.0), math.log(200.0), 40))
        points = write(tmp_path / "points.csv",
                       "".join(f"{t:.10g},{k:.17g}\n" for t in (1.0, 0.05, 0.5) for k in strikes))
        args = [command, *MARKET_ARGS, "--params", str(params), "--engine", engine]
        assert main([*args, "--expiry", "0.05", "--strikes", ",".join(f"{k:.17g}" for k in strikes)]) == 2
        lone = capsys.readouterr()
        assert main([*args, "--points", str(points)]) == 2
        captured = capsys.readouterr()
        assert lone.err.startswith("error: no implied volatility exists") and lone.err.count("\n") == 1
        assert captured.out == "" and captured.err == lone.err

    def test_fit_residual_file(self, tmp_path, capsys):
        quotes = write(tmp_path / "q.csv", "expiry_date,strike,type,iv,open_interest\n" + "".join(
            f"2024-10-29,{k:g},C,{0.2 + 0.001 * (k - 100.0) ** 2 / 100.0:.6f},5\n" for k in np.linspace(80, 120, 9)))
        cfg = write(tmp_path / "run.cfg", "spot = 100\nrate = 0.0\ntrade_date = 2024-07-31\n"
                                          "model = flat\nrandomizer = none\nmultistart = 2\n")
        assert main(["fit", "--quotes", str(quotes), "--config", str(cfg), "--out-dir", str(tmp_path / "fits")]) == 0
        config = parse_config(cfg)
        (result,) = fit_surface(load_quotes(quotes, config.market), config.fit)
        expected = "expiry,strike,residual\n" + "".join(
            f"{t:.10g},{k:.10g},{r:.12g}\n" for t, k, r in result.residuals)
        (written,) = (tmp_path / "fits").glob("residuals_T*.csv")
        assert written.read_text(encoding="utf-8") == expected
