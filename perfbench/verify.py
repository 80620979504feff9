"""Independent references for every benchmark output, and the checks.

Closed-form scenarios are checked against the program's ``analytic``
engine, which evaluates the closed forms and shares no numerics with the
exponential or RK4 engines.  ``custom-state`` has no closed form, so its
reference is built here from the config alone: the diagonal Fock-basis
Hamiltonian, the passive rotation of psi0 as a rank-2 update of the
identity, and one grid step of the propagator from
``scipy.sparse.linalg.expm_multiply``, applied to psi0 sample by sample.  A
sweep row is checked against the textbook rate, gap and coherence of
cos(theta)|0> + sin(theta)|n>.

Each check returns a list of problems; an empty list means the output
passed.  The tolerance is the one the output's own summary states.
"""

from __future__ import annotations

import math

import numpy as np

#: timing grids must match the reference to this relative precision
GRID_RTOL = 1e-12


def _floats(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s.strip()]


def _ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def custom_state_reference(overrides: dict) -> tuple[np.ndarray, dict]:
    """(times, channels) of a ``custom-state`` run, from its config alone."""
    from scipy.sparse.linalg import LinearOperator, expm_multiply

    omega = _floats(overrides["omega"])
    cutoffs = _ints(overrides["cutoffs"])
    e0 = float(overrides.get("E0", "0"))
    psi = np.array([complex(s) for s in overrides["amplitudes"].split(",")])
    psi = psi / np.linalg.norm(psi)
    shape = tuple(c + 1 for c in cutoffs)
    occupations = np.indices(shape).reshape(len(shape), -1).T
    energies = occupations @ np.asarray(omega)
    energies[0] += e0
    dim = energies.size

    # psi = cos(theta)|0> + sin(theta)|e> with a real, non-negative ground
    # amplitude; U maps psi onto |0> and is the identity off span{|0>, |e>}
    anchor = 0 if abs(psi[0]) > 1e-12 else int(np.argmax(np.abs(psi)))
    rotated = psi * (np.conj(psi[anchor]) / abs(psi[anchor]))
    c = float(np.clip(rotated[0].real, 0.0, 1.0))
    s = math.sqrt(max(1.0 - c * c, 0.0))
    e = rotated.copy()
    e[0] = 0.0
    if s > 1e-12:
        e = e / np.linalg.norm(e)
    else:
        e[:] = 0.0

    def u(v, sign):
        # sign +1 applies U, -1 applies U^dagger, to the columns of v
        ev = e.conj() @ v
        out = v + (c - 1.0) * np.outer(e, ev)
        out[0] += (c - 1.0) * v[0] + sign * s * ev
        return out - sign * s * np.outer(e, v[0])

    def h_eff(v):
        v = np.asarray(v).reshape(dim, -1)
        return energies[:, None] * v - u(energies[:, None] * u(v, 1), -1)

    # default horizon: two periods of the oscillation at sin(theta) * gap
    if "t_max" in overrides:
        t_max = float(overrides["t_max"])
    else:
        rate = s * (float(np.real(np.vdot(e, energies * e))) - energies[0])
        t_max = 4.0 * math.pi / rate if rate > 0 else 10.0
    steps = int(overrides.get("steps", "501"))
    times = np.linspace(0.0, t_max, steps)

    # one grid step exp(-i H_eff dt) from expm_multiply on the identity, then
    # psi(t_k) by repeated application: one matvec per sample on long grids
    generator = LinearOperator(
        (dim, dim),
        matvec=lambda v: -1j * h_eff(v).ravel(),
        rmatvec=lambda v: 1j * h_eff(v).ravel(),
        matmat=lambda v: -1j * h_eff(v),
        dtype=complex,
    )
    step = expm_multiply(generator * (times[1] - times[0]),
                         np.eye(dim, dtype=complex), traceA=0.0)
    states = np.empty((steps, dim), dtype=complex)
    states[0] = psi
    for k in range(1, steps):
        states[k] = step @ states[k - 1]
    probs = np.abs(states) ** 2
    support = [0] + [k for k in range(1, dim) if abs(psi[k]) > 1e-12]
    out = {}
    for k in support:
        out["p_" + "_".join(str(n) for n in occupations[k])] = probs[:, k]
    if len(support) < dim:
        out["p_other"] = 1.0 - probs[:, support].sum(axis=1)
    out["n_expect"] = probs @ occupations.sum(axis=1)
    out["p_survival"] = np.abs(states @ psi.conj()) ** 2
    return times, out


def reference(overrides: dict) -> tuple[np.ndarray, dict]:
    """(times, channels) every output of this config must match."""
    from ergodyn.scenarios import load_config, run_scenario

    if overrides["scenario"] == "custom-state":
        return custom_state_reference(overrides)
    cfg = load_config(None, dict(overrides, engine="analytic", comparison="false"))
    series, _ = run_scenario(cfg, strict=True)
    return series.times, dict(series.channels)


def check_series(times, channels: dict, summary: dict, ref_times, ref: dict) -> list:
    """Problems found comparing one time series output with its reference."""
    problems = []
    if summary.get("engines_agree") is not True:
        problems.append(f"engines_agree is {summary.get('engines_agree')!r}")
    tol = float(summary["tolerance_analytic"])
    times = np.asarray(times, dtype=float)
    ref_times = np.asarray(ref_times, dtype=float)
    if times.shape != ref_times.shape or not np.allclose(
        times, ref_times, rtol=GRID_RTOL, atol=GRID_RTOL * abs(ref_times[-1])
    ):
        problems.append(f"time grid differs from the reference ({times.size} samples)")
        return problems
    for name, values in ref.items():
        if name not in channels:
            problems.append(f"channel {name} missing")
            continue
        residual = np.abs(np.asarray(channels[name]) - values)
        worst = int(np.argmax(residual))
        if not residual[worst] <= tol:
            problems.append(
                f"channel {name} off by {residual[worst]:.3e} at t={times[worst]:.6g} "
                f"(tolerance {tol:.1e})"
            )
    for name, values in channels.items():
        if name in ref:
            continue
        base = name[len("delta_"):] if name.startswith("delta_") else None
        if base is not None and "std_" + base in channels and base in channels:
            # the comparison channel is the difference of the two it names
            expect = np.asarray(channels[base]) - np.asarray(channels["std_" + base])
            if not np.abs(np.asarray(values) - expect).max() <= tol:
                problems.append(f"channel {name} is not {base} - std_{base}")
        elif name == "std_p_survival":
            values = np.asarray(values)
            if not (abs(values[0] - 1.0) <= tol and values.min() >= -tol
                    and values.max() <= 1.0 + tol):
                problems.append(f"channel {name} is not a survival probability")
        elif name.startswith("std_"):
            # H is diagonal in the Fock basis: standard dynamics moves no population
            drift = np.abs(np.asarray(values) - values[0]).max()
            if not drift <= tol:
                problems.append(f"channel {name} drifts by {drift:.3e} under H")
        else:
            problems.append(f"channel {name} has no reference")
    return problems


def sweep_reference(overrides: dict, theta: float) -> dict:
    """Sweep-table row of ``single-mode-superposition`` at angle ``theta``."""
    n = int(overrides["n"])
    gap = n * float(overrides["omega"]) - float(overrides.get("E0", "0"))
    return {
        "omega_osc": math.sin(theta) * gap,
        "energy_gap": gap,
        "coherence": abs(math.sin(2.0 * theta)),
    }


def check_sweep(rows: list[dict], overrides: dict, values, tol: float) -> list:
    """Problems found in a parsed ``theta`` sweep table."""
    problems = []
    if len(rows) != len(values):
        return [f"sweep has {len(rows)} rows for {len(values)} values"]
    for row, value in zip(rows, values):
        theta = float(value)
        if row.get("theta") != theta:
            problems.append(f"sweep row for theta={value} reads {row.get('theta')!r}")
            continue
        for key, expect in sweep_reference(overrides, theta).items():
            got = row.get(key)
            if got is None or not abs(got - expect) <= tol:
                problems.append(f"sweep {key} at theta={value}: {got!r} vs {expect!r}")
        residual = row.get("max_cross_engine_residual")
        if residual is None or not residual <= tol:
            problems.append(f"sweep residual at theta={value}: {residual!r}")
        if row.get("negativity") is not None:
            problems.append(f"sweep negativity at theta={value} should be empty")
    return problems
