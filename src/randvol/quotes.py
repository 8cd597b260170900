"""Quote-file ingestion and run configuration.

Quote files are UTF-8 CSV (a leading byte-order mark is skipped) with the header
``expiry_date,strike,type,iv,open_interest`` (an optional trailing
``trade_date`` column overrides the market trade date per row).  Implied
vols are fractions, not percents.  Year fractions use ACT/365.
"""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .calibration import FitConfig, Quote, QuoteSet, check_vegas, select_liquid
from .errors import QuoteFormatError
from .pricing import MarketContext, OptionType

_REQUIRED_COLUMNS = ("expiry_date", "strike", "type", "iv", "open_interest")
_MAX_IV = 5.0
DAYS_PER_YEAR = 365.0


@dataclass(frozen=True)
class MarketConfig:
    spot: float
    rate: float
    trade_date: dt.date

    def context(self) -> MarketContext:
        return MarketContext(s0=self.spot, r=self.rate)


def year_fraction(start: dt.date, end: dt.date) -> float:
    return (end - start).days / DAYS_PER_YEAR


def load_quotes(path, market: MarketConfig) -> QuoteSet:
    """Parse a quote CSV, compute ACT/365 expiries, keep the liquid quotes; refuse a kept quote as `check_vegas`
    does."""
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise QuoteFormatError("empty quote file")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise QuoteFormatError(f"missing columns: {', '.join(missing)}")
        quotes = [_parse_row(row, market, reader.line_num) for row in reader]
    if not quotes:
        raise QuoteFormatError("quote file contains no data rows")
    kept = select_liquid(QuoteSet(tuple(quotes), market.context()))
    try:
        check_vegas(kept)
    except ValueError as exc:
        raise QuoteFormatError(str(exc)) from exc
    return kept


def _parse_row(row: dict, market: MarketConfig, line: int) -> Quote:
    # csv.DictReader fills the fields a short row lacks with None
    missing = next((c for c in _REQUIRED_COLUMNS if row[c] is None), None)
    if missing is not None:
        raise QuoteFormatError(f"missing value for {missing!r}", line=line)
    try:
        expiry_date = dt.date.fromisoformat(row["expiry_date"].strip())
        trade_raw = (row.get("trade_date") or "").strip()
        trade_date = dt.date.fromisoformat(trade_raw) if trade_raw else market.trade_date
        quote = Quote(
            expiry=year_fraction(trade_date, expiry_date),
            strike=float(row["strike"]),
            iv=float(row["iv"]),
            kind=OptionType.parse(row["type"]),
            open_interest=int(row["open_interest"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise QuoteFormatError(str(exc), line=line) from exc
    if quote.iv > _MAX_IV:
        raise QuoteFormatError(
            f"iv {quote.iv} looks like a percentage; quotes must be fractions", line=line
        )
    if expiry_date <= trade_date:
        raise QuoteFormatError(
            f"expiry {expiry_date} must be after the trade date {trade_date}", line=line
        )
    return quote


@dataclass(frozen=True)
class RunConfig:
    """Flat key-value configuration for the command line."""

    market: MarketConfig
    fit: FitConfig = field(default_factory=FitConfig)


_MARKET_KEYS = ("spot", "rate", "trade_date")
# the FitConfig keys a file may set, each converted to its default's type, or read as a string where the default is
# None (engine: the randomizer's); FitConfig holds the defaults
_FIT_KEYS = {
    f.name: str if f.default is None else type(f.default) for f in fields(FitConfig) if f.default is not MISSING
}


def parse_config(path) -> RunConfig:
    """Parse a ``key = value`` config file; '#' starts a comment, and a key's last line wins.  A value that does not
    convert is refused with its line and key."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in {*_MARKET_KEYS, *_FIT_KEYS}:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        entries[key] = (lineno, value.strip())

    def converted(key: str, convert):
        lineno, value = entries[key]
        try:
            return convert(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from exc

    for required in _MARKET_KEYS:
        if required not in entries:
            raise ValueError(f"config is missing the required key {required!r}")
    market = MarketConfig(
        spot=converted("spot", float),
        rate=converted("rate", float),
        trade_date=converted("trade_date", dt.date.fromisoformat),
    )
    fit = {key: converted(key, convert) for key, convert in _FIT_KEYS.items() if key in entries}
    return RunConfig(market=market, fit=FitConfig(**fit))
