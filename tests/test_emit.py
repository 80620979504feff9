"""The block CSV kernel of ``ergodyn.emit`` against the row-by-row
``'%.17g'`` formatter of ``oracles``, byte for byte."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodyn import emit
from ergodyn.dynamics import TimeSeries
from ergodyn.emit import BLOCK_CELLS, write_series_csv
from oracles import format_series_csv, per_value_csv


def _series(values, columns: int) -> TimeSeries:
    """Values laid out row by row over ``columns`` channels (zero-padded)."""
    values = np.asarray(values, dtype=float)
    rows = max(2, -(-values.size // columns))
    table = np.zeros(rows * columns)
    table[: values.size] = values
    table = table.reshape(rows, columns)
    return TimeSeries(
        np.arange(rows) * 0.1,
        {f"c{j}": table[:, j] for j in range(columns)},
    )


def _bits(pattern: int) -> float:
    """The float64 with the given bit pattern: every exponent, both zeros,
    subnormals, infinities and NaNs."""
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


def _near_power_of_ten(k: int, steps: int) -> float:
    x = float(f"1e{k}")
    toward = np.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, toward))
    return x


def _exact_tie(p: int, m: int) -> float:
    """m / 2^p with 18 significant digits, the last a 5: a value '%.17g'
    rounds from an exact half (p <= 22 keeps the power of ten exact)."""
    scale = 5**p
    low = -(-10**17 // scale) | 1
    m = low + 2 * (m % ((10**18 // scale - low) // 2))
    return float(np.ldexp(float(m), -p))


VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),
    st.builds(_near_power_of_ten, st.integers(-30, 20), st.integers(-3, 3)),
    st.builds(
        lambda d, e: float(f"{d}5e{e}"),
        st.integers(10**16, 10**17 - 1),
        st.integers(-330, 300),
    ),
    # decimals that round up into the next decade: 0.99999999999999999 ...
    st.builds(
        lambda nines, e: float(f"9.{'9' * nines}e{e}"),
        st.integers(15, 20),
        st.integers(-40, 25),
    ),
    st.integers(-1074, 1023).map(lambda e: float(np.ldexp(1.0, e))),
    st.builds(_exact_tie, st.integers(2, 22), st.integers(0, 2**40)),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(VALUES, min_size=1, max_size=60),
    st.integers(1, 4),
    st.integers(1, 40),
)
def test_kernel_matches_per_value_formatter(values, columns, block_cells):
    series = _series(values, columns)
    # small blocks, so row counts fall on and off block boundaries
    with mock.patch.object(emit, "BLOCK_CELLS", block_cells):
        assert format_series_csv(series) == per_value_csv(series)


#: steady cells: zeros of both signs, values the per-value formatter prints
#: (NaN, a subnormal, 1e300) and any other value
STEADY = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 1e-310, 1e300]), VALUES)


@st.composite
def _columns(draw):
    """Channel columns, each steady (one value in every row) or drawn cell by
    cell, over a shared row count."""
    rows = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=40))
    return [np.full(rows, draw(STEADY)) if steady
            else np.array(draw(st.lists(VALUES, min_size=rows, max_size=rows)))
            for steady in kinds]


@settings(max_examples=150, deadline=None)
@given(_columns(), st.integers(1, 40))
# 0.0 beside -0.0 and a column of both, a steady run at the row's end, and
# more steady runs than there are marks
@example([np.zeros(3), np.full(3, -0.0), np.array([0.0, -0.0, 0.0]), np.arange(3.0),
          np.full(3, np.nan)], 5)
@example([np.full(2, v) if j % 2 else np.arange(2.0) + j
          for j, v in enumerate([0.1, -0.0, 1e-310] * 30)], 7)
def test_steady_columns_match_per_value_formatter(columns, block_cells):
    series = TimeSeries(np.arange(columns[0].size) * 0.1,
                        {f"c{j}": c for j, c in enumerate(columns)})
    # small blocks, so that the steady runs go back into many blocks
    with mock.patch.object(emit, "BLOCK_CELLS", block_cells):
        assert format_series_csv(series) == per_value_csv(series)


def test_written_file_is_the_formatted_text(tmp_path):
    rng = np.random.default_rng(9)
    columns = 3
    rows = 2 * (BLOCK_CELLS // (columns + 1)) + 7  # two full blocks and a part
    values = rng.random(rows * columns) ** 9 * rng.choice([-1.0, 1.0], rows * columns)
    values[::97] = 0.0
    values[5::101] = np.nan
    values[7::103] = 1e-310
    series = _series(values, columns)
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    text = format_series_csv(series)
    assert path.read_bytes() == text.encode("utf-8")
    assert text == per_value_csv(series)
