"""Deterministic CSV / JSON emission.

CSV contract: header ``t,<channel>...``, one row per grid time, values
printed with 17 significant digits (lossless for float64), LF line endings,
UTF-8, no trailing delimiter.  Identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TimeSeries


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def format_series_csv(series: TimeSeries) -> str:
    names = series.column_names()
    table = np.column_stack([series.times] + [series.channels[n] for n in names])
    # one %-format per row ("%.17g" prints a float exactly as _fmt does);
    # converting row by row keeps one row of Python floats alive, not all
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(["t"] + names)] + [row % tuple(r.tolist()) for r in table]
    return "\n".join(lines) + "\n"


def write_series_csv(series: TimeSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_series_csv(series))


def read_series_csv(path):
    """Re-parse an emitted CSV into (times, {channel: values})."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    if header[0] != "t":
        raise ValueError(f"first column must be 't', got {header[0]!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    times = data[:, 0]
    channels = {name: data[:, i + 1] for i, name in enumerate(header[1:])}
    return times, channels


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
