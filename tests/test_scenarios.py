import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergodyn
from ergodyn import cli, dynamics, scenarios
from ergodyn.cli import main
from ergodyn.dynamics import TimeSeries
from ergodyn.emit import (
    format_series_csv,
    format_summary_json,
    format_sweep_csv,
    write_series_csv,
)
from ergodyn.errors import ConfigError, EngineDisagreementError, RefinementError
from ergodyn.fock import Ket
from ergodyn.scenarios import (
    _SCHEMA,
    MAX_RUN_ENTRIES,
    SCENARIOS,
    ScenarioConfig,
    _assemble,
    _peak_residual,
    _read,
    load_config,
    parse_config_text,
    run_scenario,
    sweep,
)
from oracles import per_value_csv


def run(name, **overrides):
    cfg = load_config(None, {"scenario": name, **overrides})
    return run_scenario(cfg)


# ------------------------------------------------------------- config


def test_config_file_parsing_and_override(tmp_path):
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "scenario = single-mode-superposition\n"
        "theta = 0.5\n"
        "omega = 1.5\n"
        "steps = 11\n"
        "comparison = true\n"
    )
    cfg = load_config(cfg_file, {"theta": "0.7"})
    assert cfg.scenario == "single-mode-superposition"
    assert cfg.theta == pytest.approx(0.7)  # flag wins over file
    assert cfg.omega == (1.5,)
    assert cfg.steps == 11
    assert cfg.comparison is True


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("not_a_key = 3\n")


def test_config_field_level_errors():
    with pytest.raises(ConfigError) as err:
        run("single-mode-superposition", theta="2.5")
    assert err.value.field == "theta"
    with pytest.raises(ConfigError) as err:
        run("single-mode-superposition", n="3", cutoffs="2")
    assert err.value.field == "cutoffs"
    with pytest.raises(ConfigError) as err:
        run("moon-degenerate", omega_b="1.9")
    assert err.value.field == "omega_b"
    with pytest.raises(ConfigError) as err:
        run("custom-state")
    assert err.value.field == "amplitudes"
    with pytest.raises(ConfigError) as err:
        run("custom-state", amplitudes="1,0,0", cutoffs="2", omega="1.0",
            engine="analytic")
    assert err.value.field == "engine"
    with pytest.raises(ConfigError) as err:
        run("custom-state", amplitudes="0,0j,0", cutoffs="2", omega="1.0")
    assert err.value.field == "amplitudes"
    for overrides, field in (
        ({"cutoffs": "0", "omega": "1.0", "amplitudes": "1"}, "cutoffs"),
        ({"cutoffs": "1", "omega": "0", "amplitudes": "1,1"}, "omega"),
        ({"cutoffs": "1", "omega": "-1", "amplitudes": "1,1"}, "omega"),
    ):
        with pytest.raises(ConfigError) as err:
            run("custom-state", **overrides)
        assert err.value.field == field
    for key, value in (
        ("omega_0", "-1"), ("N", "0"), ("L", "1e6"), ("r_E", "0"),
        ("r_S", "-1"), ("L", "-5"), ("L", "0"),
    ):
        with pytest.raises(ConfigError) as err:
            run("gravitational-mzi", **{key: value})
        assert err.value.field == key
    for key, value in (
        ("eps", "-1"), ("eps", "-2.5"), ("omega_b", "0"), ("omega_a", "-1")
    ):
        with pytest.raises(ConfigError) as err:
            run("moon-perturbative", **{key: value})
        assert err.value.field == key
    for name, key, value in (
        ("entangled-noon", "m", "0"),
        ("entangled-noon", "omega_b", "-1"),
        ("moon-degenerate", "M", "0"),
        ("moon-degenerate", "N", "0"),
        ("two-mode-separable", "m", "0"),
        ("two-mode-separable", "omega_b", "-1"),
        ("single-mode-superposition", "cutoffs", "5,3"),
        ("single-mode-superposition", "omega", "1,2"),
        ("moon-perturbative", "omega_b", "1.5"),
        ("multimode-product", "base_omega", "0"),
        ("entangled-noon", "theta", "2.5"),
        ("single-eigenstate", "theta", "0.3"),
        ("two-mode-separable", "E0", "1"),
    ):
        with pytest.raises(ConfigError) as err:
            run(name, **{key: value})
        assert err.value.field == key
    for key, value in (
        ("steps", "2.5"),
        ("steps", "1000001"),
        ("theta", "abc"),
        ("t_max", "inf"),
        ("omega", "nan"),
        ("amplitudes", "1,nan,0"),
    ):
        with pytest.raises(ConfigError) as err:
            run("single-mode-superposition", **{key: value})
        assert err.value.field == key
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="nope").validated()


# ------------------------------------------------------------- scenarios


def test_eigenstate_channels_are_constant():
    series, summary = run("single-eigenstate", n="3", steps="101")
    np.testing.assert_allclose(series.channels["p_0"], 0.0, atol=1e-12)
    np.testing.assert_allclose(series.channels["p_3"], 1.0, atol=1e-12)
    assert summary["coherence"] == pytest.approx(0.0, abs=1e-12)


def test_degenerate_interferometer_is_constant():
    series, _ = run(
        "moon-degenerate", phi=str(np.pi / 4), steps="101", t_max="50"
    )
    np.testing.assert_allclose(series.channels["p_2_0"], 0.5, atol=1e-10)
    np.testing.assert_allclose(series.channels["p_0_1"], 0.5, atol=1e-10)


def test_gravitational_asymmetry_amplitude():
    series, summary = run("gravitational-mzi", steps="401")
    expected = 1e-2 * 1e5 / 6.371e6**2
    assert summary["asymmetry_amplitude"] == pytest.approx(expected, rel=1e-2)
    assert summary["asymmetry_closed_form"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("single-mode-superposition", {"theta": str(np.pi / 3)}),
        ("single-eigenstate", {}),
        ("two-mode-separable", {}),
        ("multimode-product", {"ns": "1,2", "omega": "1.0,1.3"}),
        ("entangled-noon", {}),
        ("moon-degenerate", {}),
        ("moon-perturbative", {"eps": "1e-3"}),
        ("gravitational-mzi", {}),
    ],
)
def test_oracle_triangle_on_closed_form_scenarios(name, overrides):
    # all three engines agree wherever a closed form exists
    _, summary = run(name, steps="101", engine="all", **overrides)
    assert summary["engines_agree"], summary["residuals"]
    assert set(summary["residuals"]) == {
        "analytic_vs_exponential",
        "exponential_vs_rk4",
    }


def test_single_mode_with_ground_offset():
    # nonzero ground energy shifts the gap to n*omega - E0
    _, summary = run(
        "single-mode-superposition",
        theta=str(np.pi / 4),
        n="3",
        E0="0.5",
        steps="101",
    )
    assert summary["energy_gap"] == pytest.approx(2.5, abs=1e-12)
    assert summary["engines_agree"]


def test_single_mode_matches_closed_form_channels():
    series, summary = run(
        "single-mode-superposition", theta=str(np.pi / 3), n="2", steps="301"
    )
    t = series.times
    gap = 2.0
    c2 = np.cos(np.pi / 3) ** 2
    expected = c2 - c2 * np.sin(np.sin(np.pi / 3) * gap * t) ** 2
    np.testing.assert_allclose(series.channels["p_0"], expected, atol=1e-9)
    assert summary["omega_osc"] == pytest.approx(np.sin(np.pi / 3) * gap, abs=1e-12)
    assert summary["engines_agree"]


def test_comparison_channels_standard_dynamics_constant():
    series, _ = run(
        "single-mode-superposition",
        theta=str(np.pi / 4),
        n="3",
        steps="101",
        comparison="true",
    )
    np.testing.assert_allclose(series.channels["std_p_0"], 0.5, atol=1e-12)
    np.testing.assert_allclose(series.channels["std_p_3"], 0.5, atol=1e-12)
    np.testing.assert_allclose(series.channels["std_n_expect"], 1.5, atol=1e-12)
    delta = series.channels["delta_p_3"]
    assert delta[0] == pytest.approx(0.0, abs=1e-12)
    # peak deviation reaches 1/2 up to the grid resolution of the maximum
    assert delta.max() == pytest.approx(0.5, abs=5e-3)


def test_custom_state_channels_partition():
    series, summary = run(
        "custom-state",
        amplitudes="0.6,0,0.8,0",
        cutoffs="3",
        omega="1.0",
        steps="101",
    )
    total = sum(
        series.channels[name]
        for name in series.channels
        if name.startswith("p_") and name != "p_survival"
    )
    np.testing.assert_allclose(total, 1.0, atol=1e-9)
    assert summary["residuals"].keys() == {"exponential_vs_rk4"}


def _set_op_channels(amplitudes, cutoffs):
    """The custom-state channel table from set operations on the support:
    the vacuum and every support index alone, in flat-index order, then the
    rest of the basis as ``p_other``."""
    shape = [c + 1 for c in cutoffs]
    support = np.union1d([0], np.flatnonzero(np.abs(amplitudes) > 1e-12))
    occupations = list(np.ndindex(*shape))
    table = {
        "p_" + "_".join(map(str, occupations[k])): [k] for k in support.tolist()
    }
    rest = np.setdiff1d(np.arange(len(amplitudes)), support)
    if len(rest):
        table["p_other"] = rest.tolist()
    return table


@settings(max_examples=40, deadline=None)
@given(
    cutoffs=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    kind=st.sampled_from(["random", "no-vacuum", "full", "single", "last"]),
    data=st.data(),
)
def test_custom_state_channel_table_matches_set_operations(cutoffs, kind, data):
    dim = math.prod(c + 1 for c in cutoffs)
    indices = st.integers(1 if kind == "no-vacuum" else 0, dim - 1)
    if kind == "full":
        support = set(range(dim))
    elif kind == "single":
        support = {data.draw(indices, label="index")}
    else:
        support = data.draw(st.sets(indices, min_size=1), label="support")
        if kind == "last":
            support.add(dim - 1)
    if kind == "no-vacuum" and not support:
        support = {dim - 1}
    amplitudes = np.zeros(dim, dtype=complex)
    for k in support:
        amplitudes[k] = data.draw(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), label=f"amp{k}"
        )
    cfg = load_config(None, {
        "scenario": "custom-state",
        "cutoffs": ",".join(map(str, cutoffs)),
        "omega": ",".join(str(1.0 + 0.3 * i) for i in range(len(cutoffs))),
        "amplitudes": ",".join(map(repr, amplitudes.tolist())),
    })
    prep = _assemble(cfg)
    # the state is the given vector, normalized, bit for bit
    expected_state = Ket(amplitudes).amplitudes
    np.testing.assert_array_equal(prep.psi0.amplitudes, expected_state)
    got = prep.channels
    expected = _set_op_channels(prep.psi0.amplitudes, cutoffs)
    assert list(got) == list(expected)
    for name, indices in expected.items():
        assert np.asarray(got[name]).ravel().tolist() == indices, name


def test_custom_state_run_never_imports_numpy_ma():
    # numpy's set operations import numpy.ma on first use, about 17 ms of a
    # fresh process; a custom-state run uses none of them
    code = """
import sys
from ergodyn.scenarios import load_config, run_scenario
for amplitudes in ("0.3,0.1j,0.2,0.5,0.4,0.1,0.2,0.3j,0.6", "0,0.8,0,0,0,0,0,0,0.6j"):
    run_scenario(load_config(None, {"scenario": "custom-state", "cutoffs": "2,2",
                                    "omega": "1.0,1.3", "amplitudes": amplitudes}))
sys.exit("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(ergodyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr or "numpy.ma was imported"


def test_runs_never_import_the_dense_references(tmp_path):
    # ergodyn.oracles holds the N x N references and ergodyn.acceptance the
    # selftest: run, compare and sweep import neither; selftest imports both
    code = f"""
import contextlib, io, sys
from ergodyn.cli import main
out = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["run", "--steps", "11"],
                 ["compare", "--steps", "11", "--csv", out + "/s.csv",
                  "--json", out + "/s.json"],
                 ["sweep", "--steps", "11", "--parameter", "theta",
                  "--values", "0.3,0.6", "--out", out + "/w.csv"]):
        assert main(argv) == 0, argv
    loaded = {{"ergodyn.oracles", "ergodyn.acceptance"}} & set(sys.modules)
    assert not loaded, sorted(loaded)
    assert main(["selftest"]) == 0
assert "ergodyn.oracles" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(ergodyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_multimode_periodicity_flag():
    _, summary = run(
        "multimode-product",
        ns="1,1",
        omega=f"{np.sqrt(2)},{3 * np.sqrt(2)}",
        base_omega="1.0",
        steps="51",
        engine="exponential",
    )
    assert summary["periodic"] is True
    _, summary = run(
        "multimode-product",
        ns="1,1",
        omega=f"{np.sqrt(2)},2.0",
        base_omega="1.0",
        steps="51",
        engine="exponential",
    )
    assert summary["periodic"] is False


def test_engine_selection_analytic_only():
    series, summary = run(
        "entangled-noon", engine="analytic", steps="101"
    )
    assert summary["residuals"] == {}
    p00, pnm = series.channels["p_0_0"], series.channels["p_2_3"]
    np.testing.assert_allclose(p00 + pnm, 1.0, atol=1e-12)


def test_perturbative_residual_scales_quadratically():
    residuals = {}
    for eps in ("1e-2", "1e-3"):
        _, summary = run(
            "moon-perturbative", eps=eps, steps="201", engine="all"
        )
        residuals[eps] = summary["residuals"]["analytic_vs_exponential"]
    ratio = residuals["1e-2"] / residuals["1e-3"]
    assert 50 <= ratio <= 200


# ------------------------------------------------------------- sweep


def test_sweep_omega_osc_column():
    cfg = load_config(
        None,
        {
            "scenario": "single-mode-superposition",
            "n": "2",
            "steps": "51",
            "engine": "exponential",
        },
    )
    thetas = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
    rows = sweep(cfg, "theta", thetas)
    gap = 2.0
    for row, theta in zip(rows, thetas):
        assert row["omega_osc"] == pytest.approx(np.sin(theta) * gap, abs=1e-9)


def test_sweep_rejects_unknown_parameter():
    cfg = load_config(None, {"scenario": "single-mode-superposition"})
    with pytest.raises(ConfigError):
        sweep(cfg, "engine", [1.0])


def test_sweep_empty_values_gives_header_only():
    table = format_sweep_csv([], "theta")
    assert table == (
        "theta,omega_osc,energy_gap,coherence,negativity,"
        "max_cross_engine_residual\n"
    )


# ------------------------------------------------------------- emission


def test_csv_shape_and_roundtrip(tmp_path):
    series, _ = run("single-mode-superposition", steps="3", t_max="1.0",
                    engine="exponential")
    text = format_series_csv(series)
    lines = text.splitlines()
    assert len(lines) == 4  # header + 3 samples
    assert lines[0].startswith("t,")
    assert not lines[0].endswith(",")
    path = tmp_path / "out.csv"
    write_series_csv(series, path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], series.times)
    for k, name in enumerate(lines[0].split(",")[1:], start=1):
        np.testing.assert_array_equal(table[:, k], series.channels[name])


def test_emission_byte_stable(tmp_path):
    out = []
    for _ in range(2):
        series, summary = run("entangled-noon", steps="41", engine="exponential")
        out.append((format_series_csv(series), format_summary_json(summary)))
    assert out[0] == out[1]


def test_csv_rows_match_the_per_value_formatter():
    odd = [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]
    series = TimeSeries(
        np.linspace(0.0, 7.0, len(odd)),
        {"a": odd, "b": np.array(odd[::-1]) * -1.0, "c": np.arange(len(odd)) / 7.0},
    )
    assert format_series_csv(series) == per_value_csv(series)
    series, _ = run("two-mode-separable", steps="81", engine="all", comparison="true")
    assert format_series_csv(series) == per_value_csv(series)


def test_csv_probability_rows_sum_to_one(tmp_path):
    series, _ = run("two-mode-separable", steps="81", engine="exponential")
    path = tmp_path / "sep.csv"
    write_series_csv(series, path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    header = path.read_text().splitlines()[0].split(",")
    total = sum(
        table[:, header.index(name)] for name in ("p_0_0", "p_2_0", "p_0_3", "p_2_3")
    )
    np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_summary_json_is_valid_and_sorted():
    _, summary = run("single-eigenstate", steps="21", engine="exponential")
    text = format_summary_json(summary)
    parsed = json.loads(text)
    assert parsed["scenario"] == "single-eigenstate"
    assert list(parsed) == sorted(parsed)


# ------------------------------------------------------------- CLI


def test_cli_run_writes_outputs(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    json_path = tmp_path / "summary.json"
    code = main(
        [
            "run",
            "--scenario", "single-eigenstate",
            "--steps", "21",
            "--engine", "exponential",
            "--csv", str(csv_path),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["scenario"] == "single-eigenstate"
    stdout = capsys.readouterr().out
    assert '"single-eigenstate"' in stdout


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("scenario = single-eigenstate\nsteps = 21\nn = 2\n")
    json_path = tmp_path / "s.json"
    code = main(
        [
            "run",
            "--config", str(cfg_file),
            "--n", "3",
            "--engine", "exponential",
            "--json", str(json_path),
        ]
    )
    assert code == 0
    assert json.loads(json_path.read_text())["config"]["n"] == 3


def test_cli_validation_error_exit_code(capsys, tmp_path):
    assert main(["run", "--scenario", "does-not-exist"]) == 2
    assert "configuration error" in capsys.readouterr().err
    undecodable = tmp_path / "bad.cfg"
    undecodable.write_bytes(b"\xff\xfe bad")
    for args, field in (
        # config files that cannot be read, or not as UTF-8
        (["--config", str(tmp_path / "missing.cfg")], "config"),
        (["--config", str(tmp_path)], "config"),
        (["--config", str(undecodable)], "config"),
        (["--steps", "2.5"], "steps"),
        (["--theta", "abc"], "theta"),
        (["--t_max", "inf"], "t_max"),
        (["--omega", "nan"], "omega"),
        (["--scenario", "custom-state", "--cutoffs", "2", "--omega", "1.0",
          "--amplitudes", "0,0,0"], "amplitudes"),
        (["--scenario", "custom-state", "--cutoffs", "0", "--omega", "1.0",
          "--amplitudes", "1"], "cutoffs"),
        (["--scenario", "custom-state", "--cutoffs", "1", "--omega", "0",
          "--amplitudes", "1,1"], "omega"),
        (["--scenario", "gravitational-mzi", "--omega_0", "-1"], "omega_0"),
        (["--scenario", "gravitational-mzi", "--r_S", "-1"], "r_S"),
        (["--scenario", "gravitational-mzi", "--L", "-5"], "L"),
        (["--scenario", "gravitational-mzi", "--L", "0"], "L"),
        (["--steps", "100000000"], "steps"),
        (["--scenario", "moon-perturbative", "--eps", "-1"], "eps"),
        (["--scenario", "moon-perturbative", "--omega_b", "-0.5"], "omega_b"),
        (["--scenario", "entangled-noon", "--m", "0"], "m"),
        (["--scenario", "entangled-noon", "--omega_b", "-1"], "omega_b"),
        (["--scenario", "moon-degenerate", "--M", "0"], "M"),
        (["--scenario", "two-mode-separable", "--m", "0"], "m"),
        (["--scenario", "two-mode-separable", "--omega_b", "-1"], "omega_b"),
        (["--scenario", "moon-degenerate", "--N", "0"], "N"),
        (["--cutoffs", "5,3"], "cutoffs"),
        (["--omega", "1,2"], "omega"),
        (["--scenario", "entangled-noon", "--theta", "2.5"], "theta"),
        (["--scenario", "single-eigenstate", "--theta", "0.3"], "theta"),
        (["--scenario", "two-mode-separable", "--E0", "1"], "E0"),
        # past the float range: n omega, and the phases lambda t_max
        (["--omega", "1e308", "--n", "3"], "omega"),
        (["--t_max", "1e308", "--steps", "3"], "t_max"),
        # the default horizon, two periods of a subnormal frequency
        (["--omega", "1e-320"], "omega"),
        (["--scenario", "gravitational-mzi", "--omega_0", "1e-310"], "omega_0"),
        # E0 is the largest term of the energy bound, with the default t_max
        (["--scenario", "single-eigenstate", "--E0", "1e308"], "E0"),
        (["--scenario", "single-eigenstate", "--E0=-1e308"], "E0"),
        (["--E0", "1e308"], "E0"),
        # a ground level above the lowest excitation: the vacuum is not passive
        (["--E0", "5"], "E0"),
        (["--scenario", "custom-state", "--cutoffs", "2", "--omega", "1",
          "--amplitudes", "1,1,1", "--E0", "1.5"], "E0"),
    ):
        assert main(["run", "--engine", "exponential", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error in {field}:")
        assert err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("args, field, message", [
    (["--n", "3000000", "--steps", "2", "--t_max", "1e303"], "t_max",
     "1e+303 takes phases E t past the float range"),
    (["--scenario", "custom-state", "--cutoffs", "3,3", "--omega", "1.0,1.4",
      "--amplitudes", "1,0.5,0,0.2,0,0,0,0.3,0,0,0,0,0,0,0.1,0",
      "--engine", "analytic"], "engine",
     "scenario 'custom-state' has no closed-form route"),
])
def test_refusals_come_before_the_register_is_built(args, field, message, capsys):
    # the state over N basis states is the first O(N) object; a horizon that
    # the config or the model sets, and a missing closed form, need none
    def build(*_):
        raise AssertionError("the register was built before the refusal")

    with mock.patch.object(scenarios, "superposition", build):
        assert main(["run", *args]) == 2
    assert capsys.readouterr().err == f"configuration error in {field}: {message}\n"


#: a valid base config for the scenarios that need explicit keys
BASE = {"custom-state": {"cutoffs": "1", "omega": "1.0", "amplitudes": "1,1"}}


def _bad_values():
    """(scenario, key, bad value) for every integer and frequency key each
    scenario reads; a list key gets the bad entry once per mode."""
    for name, spec in SCENARIOS.items():
        base = load_config(None, {"scenario": name, **BASE.get(name, {})})
        modes = _assemble(base).system.modes
        for key in spec.keys:
            kind, is_list = _SCHEMA[key]
            if kind is int:
                bad = ["0", "-1"]
            elif key.startswith("omega") or key == "base_omega":
                bad = ["0", "-1.5"]
            else:
                continue
            for value in bad:
                if is_list and key != spec.modes:
                    value = ",".join([value] * modes)
                yield name, key, value


@pytest.mark.parametrize("name,key,value", list(_bad_values()))
def test_every_bad_scenario_key_is_named(name, key, value, capsys):
    args = [f"--{k}={v}" for k, v in {**BASE.get(name, {}), key: value}.items()]
    assert main(["run", "--engine", "exponential", "--scenario", name, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error in {key}:")
    assert "Traceback" not in err


FIELDS = {f.name for f in fields(ScenarioConfig)}
INTS = st.integers(-2, 6).map(str)
FREQUENCIES = st.sampled_from(["0", "-1", "1e6", "0.3", "1", "1.7", "2.5"])


@st.composite
def _override_sets(draw):
    """A scenario with a random subset of the keys it reads set to random
    integers, frequencies or lists of one to three of them."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    overrides = dict(BASE.get(name, {}))
    for key in draw(st.lists(st.sampled_from(list(SCENARIOS[name].keys)), unique=True)):
        kind, is_list = _SCHEMA[key]
        entry = INTS if kind is int else FREQUENCIES if kind is float else None
        if entry is None:
            continue
        overrides[key] = (
            ",".join(draw(st.lists(entry, min_size=1, max_size=3)))
            if is_list else draw(entry)
        )
    return name, overrides


@settings(max_examples=150, deadline=None)
@given(case=_override_sets())
def test_cli_never_leaves_a_traceback(case):
    name, overrides = case
    args = [f"--{key}={value}" for key, value in overrides.items()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--engine", "exponential", "--steps", "11",
                     "--scenario", name, *args])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        named = re.match(r"configuration error in (\w+):", err.getvalue())
        assert named and named.group(1) in FIELDS, err.getvalue()


def test_cli_compare_adds_channels(tmp_path):
    csv_path = tmp_path / "cmp.csv"
    code = main(
        [
            "compare",
            "--scenario", "single-mode-superposition",
            "--steps", "21",
            "--engine", "exponential",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert "std_p_0" in header and "delta_p_3" in header


def test_cli_sweep_table(capsys):
    code = main(
        [
            "sweep",
            "--scenario", "single-mode-superposition",
            "--steps", "31",
            "--engine", "exponential",
            "--parameter", "theta",
            "--values", "0,0.785398163,1.5707963",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("theta,omega_osc")
    assert len(lines) == 4


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "gravitational-mzi" in out and "custom-state" in out


def test_cli_engine_disagreement_exit_code(monkeypatch, capsys):
    import ergodyn.scenarios as sc

    monkeypatch.setattr(sc, "TOL_RK4", 1e-30)
    code = main(
        [
            "run",
            "--scenario", "single-mode-superposition",
            "--steps", "21",
            "--engine", "all",
        ]
    )
    assert code == 3
    assert "engine disagreement" in capsys.readouterr().err


def test_engine_disagreement_names_channel_and_time(monkeypatch, capsys):
    import ergodyn.scenarios as sc

    # a zero RK4 tolerance forces the disagreement, in this test only
    monkeypatch.setattr(sc, "TOL_RK4", 0.0)
    overrides = {"scenario": "two-mode-separable", "steps": "21", "engine": "all"}
    with pytest.raises(EngineDisagreementError) as err:
        run_scenario(load_config(None, overrides))
    channel, k, t = err.value.peaks["exponential_vs_rk4"]
    series, _ = run_scenario(load_config(None, overrides), strict=False)
    assert channel in series.channels and 0 <= k < 21
    assert t == series.times[k]
    assert f"peak in {channel} at t[{k}]" in str(err.value)
    assert err.value.peaks.keys() == err.value.residuals.keys()
    assert main(["run"] + [f"--{key}={v}" for key, v in overrides.items()]) == 3
    assert f"(peak in {channel} at t[{k}] = " in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["exponential", "rk4", "all"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"scenario": "multimode-product", "ns": "1,2,3", "cutoffs": "10,10,10"},
        {
            "scenario": "custom-state",
            "cutoffs": "15,15,15",
            "omega": "1.0,1.3,1.7",
            "amplitudes": ",".join(
                {0: "0.5", 17: "0.3j", 1000: "(0.2-0.4j)", 4095: "0.6"}.get(k, "0")
                for k in range(4096)
            ),
        },
        {"scenario": "single-mode-superposition", "n": "5000", "cutoffs": "5000"},
    ],
    ids=["product-1331", "sparse-custom-4096", "single-mode-5001"],
)
def test_run_builds_no_dense_matrix(overrides, engine):
    cfg = load_config(
        None, {"engine": engine, "steps": "11", "comparison": "true", **overrides}
    )
    tracemalloc.start()
    try:
        series, summary = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = summary["dimension"]
    assert dim in (1331, 4096, 5001)
    # one complex N x N array alone would take 16 N^2 bytes
    assert peak < 16 * dim**2
    assert len(series.times) == 11
    assert (summary["negativity"] is None) == (dim == 5001)


def test_exponential_compare_builds_no_state_block_over_the_register():
    # psi(t) of a single-mode superposition lives on the rows 0 and n: the
    # exponential and standard routes read it there, not on all n + 1 rows.
    # an N x T block of complex amplitudes alone would take 16 N T = 323 MB
    cfg = load_config(
        None,
        {"n": "200000", "steps": "101", "engine": "exponential", "comparison": "true"},
    )
    tracemalloc.start()
    try:
        series, summary = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["dimension"] == 200002 and len(series.times) == 101
    assert peak < 128e6


def test_cli_runs_a_ground_level_whose_square_overflows(capsys):
    # E0 = -1e300 passes the energy bound; the generator gates take their
    # norms in units of the energy scale, so residuals of order eps * 1e300
    # do not overflow when squared
    assert main(["run", "--engine", "exponential", "--E0=-1e300"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one CPU: BLAS runs one thread at any setting, so nothing is compared",
)
def test_compare_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a gemv, or a sum over a long axis, across its threads;
    # no readout sum may take that path
    amps = np.random.default_rng(15).normal(size=1331)
    runs = {
        "custom-2-2": ["--scenario", "custom-state", "--cutoffs", "2,2",
                       "--omega", "1.0,1.4", "--amplitudes", "1,1,1,1,1,1,1,1,1",
                       "--engine", "exponential", "--steps", "20001"],
        "full-support": ["--scenario", "custom-state", "--cutoffs", "10,10,10",
                         "--omega", "1.0,1.3,1.7",
                         "--amplitudes=" + ",".join(map(repr, amps.tolist())),
                         "--engine", "all"],
    }
    src = os.path.dirname(os.path.dirname(ergodyn.__file__))
    for name, args in runs.items():
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            paths = tmp_path / f"{name}-{threads}.csv", tmp_path / f"{name}-{threads}.json"
            done = subprocess.run(
                [sys.executable, "-m", "ergodyn", "compare", *args,
                 "--csv", str(paths[0]), "--json", str(paths[1])],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append([path.read_bytes() for path in paths])
        assert outputs[0] == outputs[1], name


def test_full_support_run_peaks_under_one_and_a_half_times_its_series():
    # psi(t) is read from its 1331 x 4 basis and 4 x 501 coefficients in
    # tiles of 2^14 entries, and the series is checked where it is: no
    # 1331 x 501 complex block (10.7 MB) and no copy of the channels is formed
    rng = np.random.default_rng(15)
    amps = rng.normal(size=1331) + 1j * rng.normal(size=1331)
    cfg = load_config(None, {
        "scenario": "custom-state", "cutoffs": "10,10,10", "omega": "1.0,1.3,1.7",
        "amplitudes": ",".join(map(repr, amps.tolist())), "engine": "exponential",
    })
    run_scenario(cfg)  # lazy imports and caches outside the traced run
    tracemalloc.start()
    try:
        series, _ = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = series.times.nbytes + sum(v.nbytes for v in series.channels.values())
    assert len(series.channels) == 1333 and series.times.size == 501
    assert peak < 1.5 * returned


@pytest.mark.parametrize(
    "engine, comparison",
    [("exponential", "false"), ("rk4", "false"), ("all", "false"),
     ("exponential", "true"), ("all", "true")],
)
def test_run_builds_one_time_series(monkeypatch, engine, comparison):
    # every route returns a plain dict; the run's series checks them once
    built = []
    init = TimeSeries.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TimeSeries, "__init__", counted)
    series, _ = run_scenario(load_config(None, {
        "engine": engine, "comparison": comparison, "steps": "21",
    }))
    assert built == [series]


def test_cli_builds_its_parser_once(capsys):
    # parsing leaves the shared parser as it was: a sweep error, then two
    # identical runs, print what fresh parsers print
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        main(["sweep", "--parameter", "theta"])
    first = capsys.readouterr()
    outputs = []
    for _ in range(2):
        assert main(["run", "--engine", "exponential", "--steps", "5"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit):
        main(["sweep", "--parameter", "theta"])
    assert capsys.readouterr() == first


def test_state_size_bound_rejects_before_allocating(capsys):
    # a 10^6-state register over 100 samples passes MAX_RUN_ENTRIES; the
    # check comes before any amplitude vector (16 MB here) exists
    assert 1_000_000 * 100 > MAX_RUN_ENTRIES
    tracemalloc.start()
    try:
        code = main(["run", "--n", "999999", "--steps", "100"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error in cutoffs:")
    assert "(1000001 basis states + 5 columns) x 100 samples" in err
    assert "Traceback" not in err
    assert peak < 1_000_000


def test_run_bound_counts_the_channel_table(capsys):
    # a full-support custom state reads one channel per basis state: 216
    # states over 50000 samples fit the bound, the 661 columns of compare
    # do not, and the check comes before any state or series exists
    argv = ["--scenario", "custom-state", "--cutoffs", "5,5,5", "--omega",
            "1.0,1.3,1.7", "--amplitudes", ",".join(["0.1"] * 216),
            "--steps", "50000"]
    assert 216 * 50000 < MAX_RUN_ENTRIES
    tracemalloc.start()
    try:
        code = main(["compare", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error in cutoffs:")
    assert "(216 basis states + 661 columns) x 50000 samples" in err
    assert "Traceback" not in err
    assert peak < 2_000_000
    overrides = dict(zip(argv[::2], argv[1::2]))
    run_cfg = load_config(None, {k.lstrip("-"): v for k, v in overrides.items()})
    assert len(_assemble(run_cfg.validated()).channels) == 216


def test_cli_long_rk4_horizon_fails_cleanly(capsys):
    # 6.75e8 substeps cost one matrix power; RK4 loses ~4e-9 of the squared
    # norm over the horizon, inside RK4_DRIFT_TOL but past the 1e-9 partition
    # check of the series, and that ends as a named refinement error
    start = time.perf_counter()
    code = main(["run", "--engine", "rk4", "--t_max", "1e6", "--steps", "2"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "RK4 state norm drift" in capsys.readouterr().err
    assert elapsed < 10.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args",
    [
        ["--t_max", "1e18", "--steps", "3"],
        ["--t_max", "1e300", "--steps", "3"],
        ["--engine", "rk4", "--t_max", "1e300", "--steps", "3", "--csv"],
    ],
    ids=["all", "all-1e300", "rk4-csv"],
)
def test_cli_nan_rk4_state_fails_cleanly(tmp_path, capsys, args):
    # ~3e20 and ~3e302 substeps per sample: the rounding of the step matrix
    # grows its powers past the float range.  That ends as one refinement
    # error naming the substep count, with no numpy warning before it
    csv_path = tmp_path / "out.csv"
    if args[-1] == "--csv":
        args = [*args, str(csv_path)]
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.match(r"error: RK4 step matrix overflows when powered to \S+e\+\d+ "
                    r"substeps", err), err
    assert not csv_path.exists()


def test_rk4_drift_gate_fails_a_nan_state(monkeypatch):
    # a NaN state must fail the norm-drift gate rather than pass it
    def nan_flow(f, t, h, substeps):
        return f.basis, np.full((t.size, f.basis.shape[1], f.basis.shape[1]), np.nan)

    monkeypatch.setattr(dynamics, "_rk4_flow", nan_flow)
    with pytest.raises(RefinementError, match="norm drift nan at t=0"):
        run_scenario(load_config(None, {"engine": "rk4", "steps": "5"}))


def test_peak_residual_takes_a_nan_as_the_peak():
    zeros = np.zeros(3)
    a = {"p": np.array([0.0, 0.5, 0.0]), "q": np.array([0.0, np.nan, 0.0]),
         "r": np.array([0.0, 0.0, 0.7])}
    value, channel, k = _peak_residual(a, {name: zeros for name in a})
    assert np.isnan(value) and (channel, k) == ("q", 1)
    a["q"] = zeros
    assert _peak_residual(a, {name: zeros for name in a}) == (0.7, "r", 2)


def test_cli_selftest_wiring(monkeypatch, capsys):
    import ergodyn.acceptance as acc
    from ergodyn.acceptance import CriterionResult

    def fake_pass():
        return CriterionResult(1, "stub", True, "ok")

    def fake_fail():
        return CriterionResult(2, "stub", False, "no")

    monkeypatch.setattr(acc, "CRITERIA", (fake_pass,))
    assert main(["selftest"]) == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(acc, "CRITERIA", (fake_pass, fake_fail))
    assert main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "amplitudes, unit",
    [("1e300,0", "1,0"), ("1e154,1e154", "1,1"), ("1e-200,1e-200", "1,1"),
     ("1e-162,1e-162", "1,1")],
)
def test_cli_runs_a_custom_state_at_any_finite_scale(
    tmp_path, capsys, amplitudes, unit
):
    # the amplitudes' squares leave the float range; the run normalizes the
    # state as its unit-scale copy and writes the same series
    paths = []
    for k, amps in enumerate((amplitudes, unit)):
        paths.append(tmp_path / f"{k}.csv")
        argv = ["run", "--scenario", "custom-state", "--cutoffs", "1", "--omega", "1",
                "--amplitudes", amps, "--csv", str(paths[-1])]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [{"scenario": "gravitational-mzi", "omega_0": "1e-5"},
     {"scenario": "moon-perturbative", "omega_a": "1e-14"},
     # the Gram-Schmidt remainder is 1e-171 here: its square underflows
     {"scenario": "gravitational-mzi", "omega_0": "1e-160"}],
)
def test_small_frequencies_keep_every_energy_direction(overrides):
    # the rank tolerance is relative to the energy scale, so the arm detuning
    # is kept below unit energy, and every engine agrees
    _, summary = run_scenario(load_config(None, overrides))
    assert summary["engines_agree"]
    residual = summary["residuals"]["analytic_vs_exponential"]
    assert residual <= summary["tolerance_analytic"]


def _frequency_values(name: str) -> dict:
    """The frequency and energy keys a scenario reads, at their defaults."""
    spec = SCENARIOS[name]
    values = _read(load_config(None, {"scenario": name}).validated(), spec)
    return {key: values[key] for key in spec.keys
            if key.startswith("omega") or key in ("E0", "base_omega")
            if values[key] is not None}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from([n for n in SCENARIOS if n != "custom-state"]),
    k=st.integers(-12, 12),
)
def test_scaling_every_frequency_and_inverse_time_changes_no_channel(name, k):
    # hbar = 1: frequencies times 10^k over times 10^-k give the same
    # probabilities, n_expect and survival, so every gate passes as well
    base, summary = run_scenario(load_config(None, {"scenario": name, "steps": "41"}))
    scale = 10.0**k
    scaled = {key: ",".join(repr(v * scale) for v in value)
              if isinstance(value, tuple) else repr(value * scale)
              for key, value in _frequency_values(name).items()}
    series, scaled_summary = run_scenario(load_config(None, {
        "scenario": name, "steps": "41", "t_max": repr(summary["t_max"] / scale),
        **scaled,
    }))
    assert scaled_summary["engines_agree"]
    assert series.column_names() == base.column_names()
    for column in base.channels:
        np.testing.assert_allclose(
            series.channels[column], base.channels[column], rtol=0, atol=1e-12,
            err_msg=column,
        )
