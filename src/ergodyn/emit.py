"""Deterministic CSV / JSON emission.

CSV contract: header ``t,<channel>...``, one row per grid time, values
printed as ``'%.17g'`` prints them (17 significant digits, lossless for
float64), LF line endings, UTF-8, no trailing delimiter.  Identical
configurations produce byte-identical files.

The series CSV is formatted one block of rows at a time by a numpy kernel
and written block by block, so no whole-file string or per-row list
exists.  For a value x with decimal exponent k (10^k <= |x| < 10^(k+1),
one more where the rounding carries into the next decade) the kernel
computes the correctly rounded 17-digit integer
D = round_half_even(|x| 10^(16-k)).  It multiplies |x| by 10^(16-k) held
as a sum of two doubles hi + lo (exact for 10^0..10^45, rounded to
nearest otherwise): Dekker's error-free product (Numer. Math. 18, 1971)
gives |x| hi exactly as a double h plus its error l, and |x| lo is added
rounded.  h is an even integer, so rint of the small rest rounds the
whole product half to even.  The rest is exact where 10^(16-k) is a
double (0 <= 16-k <= 22); elsewhere its error is bounded, and a fraction
within that bound of a half goes to the per-value formatter.  Exact
comparisons with 10^16 and 10^17 then fix k and the carry.
Fixed-precision printf algorithms compute digits the same way (Adams,
"Ryu revisited: printf floating point conversion", OOPSLA 2019).

The text is picked from a 32-byte template per value (sign, ``0.000``
prefix, the digits, the exponent, the separator) by a byte mask looked up
by (sign, layout, significant digits): fixed notation for -4 <= k < 17,
``d.ddde+XX`` otherwise, trailing zeros stripped, as ``%g`` prints.
Zeros go through the kernel.  NaN, infinities, |x| < 1e-284 (subnormals
included), |x| >= 1e300 and a product too close to a half to decide go
through ``'%.17g'`` one by one, so the bytes never change.  The kernel
and its tables live in :mod:`ergodyn._csvkernel`, imported on the first
CSV written.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TimeSeries

#: table cells formatted per block: a block holds this many cells over the
#: column count in rows, so its scratch arrays stay near 2 MB at any width
BLOCK_CELLS = 16384


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv_blocks(series: TimeSeries):
    """The header, then the bytes of each block of rows."""
    from ._csvkernel import format_block  # builds its tables once

    names = series.column_names()
    yield (",".join(["t"] + names) + "\n").encode("utf-8")
    columns = [series.times] + [series.channels[n] for n in names]
    rows = max(1, BLOCK_CELLS // len(columns))
    for start in range(0, series.times.size, rows):
        yield format_block(np.stack([c[start:start + rows] for c in columns], axis=1))


def format_series_csv(series: TimeSeries) -> str:
    return b"".join(_csv_blocks(series)).decode("utf-8")


def write_series_csv(series: TimeSeries, path) -> None:
    with open(path, "wb") as fh:
        for chunk in _csv_blocks(series):
            fh.write(chunk)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def format_summary_json(summary: dict) -> str:
    return json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n"


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_summary_json(summary))


SWEEP_COLUMNS = (
    "omega_osc",
    "energy_gap",
    "coherence",
    "negativity",
    "max_cross_engine_residual",
)


def format_sweep_csv(rows: list[dict], parameter: str) -> str:
    """Summary table for a parameter sweep, one row per value.

    An empty value list yields a header-only table.
    """
    names = [parameter] + list(SWEEP_COLUMNS)
    lines = [",".join(names)]
    for row in rows:
        cells = []
        for name in names:
            value = row.get(name)
            cells.append("" if value is None else _fmt(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
