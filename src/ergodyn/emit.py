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

A column whose cells all have the same bits (a constant of motion, as
every ``std_`` population and ``std_n_expect`` of ``compare`` is) is
formatted once: each maximal run of such columns is formatted as a one-row
block and put back into the text of every block, where the column before
it prints a control byte as its separator.  Bits and not values decide, so
0.0 and -0.0 never share a text.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TimeSeries

#: table cells the kernel formats per block: a block holds this many cells
#: over the count of columns it formats (steady ones are not) in rows, so
#: its scratch arrays stay near 2 MB at any width
BLOCK_CELLS = 16384
#: separators that mark where a steady run of columns goes back into a
#: block's text: control bytes, which the kernel never prints, less "\n"
_MARKS = bytes(b for b in range(1, 32) if b != ord("\n"))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _steady(column: np.ndarray) -> bool:
    """Whether every cell has the bits of the first (so 0.0 and -0.0, and
    NaNs of different payloads, stay apart)."""
    bits = column.view(np.uint64)
    return bool((bits == bits[0]).all())


def _csv_blocks(series: TimeSeries):
    """The header, then the bytes of each block of rows."""
    from ._csvkernel import format_block  # builds its tables once

    names = list(series.channels)
    yield (",".join(["t"] + names) + "\n").encode("utf-8")
    columns = [series.times] + [series.channels[n] for n in names]
    seps = bytearray(b"," * len(columns))
    seps[-1] = ord("\n")
    # maximal runs [first, stop) of steady columns past t, one per mark
    kept, runs = [0], []
    for j in range(1, len(columns)):
        if not _steady(columns[j]):
            kept.append(j)
        elif runs and runs[-1][1] == j:
            runs[-1][1] = j + 1
        elif len(runs) < len(_MARKS):
            runs.append([j, j + 1])
        else:
            kept.append(j)
    # each run is formatted once, as a one-row block, and goes back in where
    # the kept column before it prints its mark as the separator
    texts = []
    for mark, (first, stop) in zip(_MARKS, runs):
        row = np.array([[c[0] for c in columns[first:stop]]])
        texts.append((bytes([mark]), b"," + format_block(row, bytes(seps[first:stop]))))
        seps[first - 1] = mark
    kept_seps = bytes(seps[j] for j in kept)
    # the kernel formats BLOCK_CELLS kept cells per block; the steady runs put
    # back into its text may at most quadruple the cells there
    rows = max(1, min(BLOCK_CELLS // len(kept), 4 * BLOCK_CELLS // len(columns)))
    for start in range(0, series.times.size, rows):
        out = format_block(
            np.stack([columns[j][start:start + rows] for j in kept], axis=1), kept_seps
        )
        for mark, text in texts:
            out = out.replace(mark, text)
        yield out


def write_series_csv(series: TimeSeries, path) -> None:
    with open(path, "wb") as fh:
        for chunk in _csv_blocks(series):
            fh.write(chunk)


def format_summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


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
