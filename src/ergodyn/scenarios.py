"""Named end-to-end scenarios, configuration handling, and engine routing.

Each scenario is one row of :data:`SCENARIOS`: its description, the config
keys it reads with their defaults, and a function that turns the checked
values into a mode register, an initial state and a closed form.  One
assembler builds from that the passive rotation and the channels (named
sets of flat Fock indices whose populations are read out); the scenario is
then evolved with up to three independent engines (closed forms,
exponential propagator, RK4) and the results are cross-checked.  The
exponential route is canonical; the others exist to catch it lying.
"""

from __future__ import annotations

import cmath
import math
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import closed_forms as cf
from .dynamics import (
    EffectiveDynamics,
    TimeSeries,
    _row_sum,
    _tiles,
    effective_dynamics,
    evolve_probabilities,
    read_channels,
    rk4_expectation_series,
    survival_probability,
)
from .emit import SWEEP_COLUMNS
from .errors import ConfigError, EngineDisagreementError, RefinementError
from .fock import (
    Ket,
    ModeSystem,
    flat_index,
    free_energies,
    occupation_counts,
    superposition,
)
from .measures import l1_coherence, negativity

ENGINES = ("analytic", "exponential", "rk4", "all")

#: cross-engine gates: closed form vs exponential (exact-regime scenarios)
TOL_ANALYTIC = 1e-9
#: exponential vs RK4 at the default step
TOL_RK4 = 1e-7
#: default number of integrator steps per oscillation period
RK4_STEPS_PER_PERIOD = 2000
#: frozen scale for the perturbative closed-form residual, tol = coeff * eps^2
PERT_RESIDUAL_COEFF = 8.0

#: most time samples per run: np.linspace rounding alone breaks the 1e-9
#: uniformity check of TimeSeries near 1e7 samples (1.3e-10 at 1e6)
MAX_STEPS = 1_000_000

#: most entries (N + C) x steps per run, for N basis states and C series
#: columns: the channel table, and the states on the rows psi(t) can reach
#: for the product scenarios.  A run peaks at 40 bytes per entry or less
#: (tracemalloc, engine all, run and compare with CSV: N 216 to 2197 with
#: up to 6598 columns at 2001 samples, 6.2 to 8.3 bytes at 2197; the default
#: registers at 1e5 samples, where the RK4 flow stacks set the maximum, 39.2
#: bytes for gravitational-mzi): under 2 GB, below a third of an 8 GB machine.  Every default scenario
#: fits at MAX_STEPS under run.
MAX_RUN_ENTRIES = 40_000_000

#: keys that set up the run rather than the scenario
RUN_KEYS = ("scenario", "engine", "steps", "t_max", "comparison")


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat scenario configuration (file keys and CLI flags share names)."""

    scenario: str = "single-mode-superposition"
    theta: float | None = None
    phi: float | None = None
    n: int | None = None
    m: int | None = None
    N: int | None = None
    M: int | None = None
    ns: tuple[int, ...] | None = None
    omega: tuple[float, ...] | None = None
    omega_a: float | None = None
    omega_b: float | None = None
    omega_0: float | None = None
    E0: float = 0.0
    cutoffs: tuple[int, ...] | None = None
    t_max: float | None = None
    steps: int = 501
    engine: str = "all"
    comparison: bool = False
    r_S: float = 1e-2
    r_E: float = 6.371e6
    L: float = 1e5
    eps: float | None = None
    base_omega: float | None = None
    amplitudes: tuple[complex, ...] | None = None

    def validated(self) -> "ScenarioConfig":
        for key in _NUMBER_KEYS:
            value = getattr(self, key)
            items = value if isinstance(value, tuple) else (value,)
            if value is not None and not all(map(cmath.isfinite, items)):
                raise ConfigError(key, f"must be finite, got {value}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                "scenario",
                f"unknown scenario {self.scenario!r}; "
                f"choose from {', '.join(SCENARIOS)}",
            )
        if self.engine not in ENGINES:
            raise ConfigError(
                "engine", f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.steps < 2:
            raise ConfigError("steps", f"need at least 2 samples, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ConfigError(
                "steps", f"at most {MAX_STEPS} samples, got {self.steps}"
            )
        if self.t_max is not None and self.t_max <= 0:
            raise ConfigError("t_max", f"must be positive, got {self.t_max}")
        return self


# --------------------------------------------------------------------------
# configuration file / override plumbing

def _schema() -> dict:
    """key -> (value type, comma-separated list?) from the ScenarioConfig fields."""
    out = {}
    for key, hint in typing.get_type_hints(ScenarioConfig).items():
        args = typing.get_args(hint)
        if type(None) in args:  # X | None
            (hint,) = [a for a in args if a is not type(None)]
        is_list = typing.get_origin(hint) is tuple  # tuple[X, ...]
        out[key] = (typing.get_args(hint)[0] if is_list else hint, is_list)
    return out


_SCHEMA = _schema()

#: keys of float or complex values, or lists of them, which must be finite
_NUMBER_KEYS = [key for key, (kind, _) in _SCHEMA.items()
                if kind in (float, complex)]


def _parse_scalar(kind, text: str):
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return kind(text)


def _coerce(key: str, value):
    """Typed value of config entry ``key``, given as text or as a Python value.

    Text is parsed as a file line or a CLI flag would be; a value that does
    not parse raises :class:`ConfigError` naming the key.
    """
    if key not in _SCHEMA:
        raise ConfigError(key, "unknown configuration key")
    kind, is_list = _SCHEMA[key]
    try:
        if isinstance(value, str):
            if is_list:
                # no Python frame per item: the lists hold numbers, not booleans
                items = filter(None, map(str.strip, value.split(",")))
                return tuple(map(kind, items))
            return _parse_scalar(kind, value.strip())
        if value is None:
            return None
        return tuple(map(kind, value)) if is_list else kind(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(key, f"cannot parse {value!r}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into typed config entries."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value': {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(key, f"unknown configuration key (line {lineno})")
        out[key] = _coerce(key, raw.strip())
    return out


def load_config(path=None, overrides=None) -> ScenarioConfig:
    """Config from an optional file plus overriding key/value pairs."""
    entries = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entries.update(parse_config_text(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from None
    for key, value in (overrides or {}).items():
        entries[key] = _coerce(key, value)
    return ScenarioConfig(**entries).validated()



# --------------------------------------------------------------------------
# scenario table


@dataclass
class _Model:
    """What a scenario specifies; :func:`_assemble` builds the rest.  A None
    field takes the rule in its comment."""

    omega: tuple  # mode frequencies
    terms: dict  # initial state {occupations: amplitude}
    # occupations read out as p_<occ>; None: the vacuum and the state's
    # support, with the rest of the basis as one channel p_other
    channels: list | None
    # closed form, t -> one probability per channel; None: there is none
    probabilities: typing.Callable | None = None
    p_return: typing.Callable | None = None  # t -> p_survival; None: one
    number: typing.Callable | None = None  # t -> n_expect; None: sum |occ| p_occ
    # one single-mode state per mode if the rotation factorizes over modes
    mode_terms: list | None = None
    omega_osc: float | None = None  # None: read from the generator
    t_default: float | None = None  # None: two periods of omega_osc, or 10
    # horizon -> closed-form tolerance; None: TOL_ANALYTIC
    analytic_tol: typing.Callable | None = None
    extra: dict = field(default_factory=dict)  # summary entries
    # final channels -> more summary entries; None: there are none
    readout: typing.Callable | None = None


def _labels(occupations, modes: int) -> list:
    """Channel names p_<n0>_<n1>... of occupation tuples, by one format."""
    return list(map(("p" + "_%d" * modes).__mod__, occupations))


def _single_mode(v: dict) -> _Model:
    n, (omega,) = v["n"], v["omega"]
    # single-eigenstate reads no theta: its state is |n>
    theta = v.get("theta", math.pi / 2)
    gap = n * omega - v["E0"]
    return _Model(
        omega=(omega,),
        terms={(0,): math.cos(theta), (n,): math.sin(theta)},
        channels=[(0,), (n,)],
        probabilities=lambda t: cf.two_level_probabilities(theta, gap, t),
        p_return=lambda t: cf.two_level_survival(theta, gap, t),
        omega_osc=cf.oscillation_frequency(theta, gap),
    )


def _product(ns, omegas, base_omega) -> _Model:
    """Balanced superposition (|0> + |n_k>)/sqrt(2) in every mode, rotated
    mode by mode."""
    root = 1.0 / math.sqrt(2.0)
    corners = [
        tuple(n if bit else 0 for n, bit in zip(ns, bits))
        for bits in np.ndindex(*(2,) * len(ns))
    ]

    def probabilities(t):
        singles = [
            cf.balanced_superposition_probabilities(n * w, t)
            for n, w in zip(ns, omegas)
        ]
        return [
            math.prod(p_n if o else p_0 for (p_0, p_n), o in zip(singles, occ))
            for occ in corners
        ]

    # two periods of the slowest single-mode oscillation
    slowest = min(n * w for n, w in zip(ns, omegas)) / math.sqrt(2.0)
    extra = {}
    if base_omega is not None:
        extra["periodic"] = cf.product_recurrence_possible(ns, omegas, base_omega)
    return _Model(
        omega=tuple(omegas),
        # uniform amplitude (1/sqrt(2))^k on every excitation-pattern corner
        terms={occ: root ** len(ns) for occ in corners},
        channels=corners,
        probabilities=probabilities,
        p_return=lambda t: math.prod(
            cf.two_level_survival(math.pi / 4, n * w, t) for n, w in zip(ns, omegas)
        ),
        # the per-mode sum, which rounds differently from sum |occ| p_occ
        number=lambda t: sum(
            cf.balanced_superposition_number(n, n * w, t)
            for n, w in zip(ns, omegas)
        ),
        mode_terms=[{(0,): root, (n,): root} for n in ns],
        t_default=2.0 * math.pi / slowest,
        extra=extra,
    )


def _noon(v: dict) -> _Model:
    n, m, omega_a, omega_b = v["n"], v["m"], v["omega_a"], v["omega_b"]
    root = 1.0 / math.sqrt(2.0)
    gap = n * omega_a + m * omega_b
    return _Model(
        omega=(omega_a, omega_b),
        terms={(0, 0): root, (n, m): root},
        channels=[(0, 0), (n, m)],
        probabilities=lambda t: cf.balanced_superposition_probabilities(gap, t),
        p_return=lambda t: cf.two_level_survival(math.pi / 4, gap, t),
        omega_osc=cf.oscillation_frequency(math.pi / 4, gap),
    )


def _interferometer(m_occ, n_occ, phi, omega_a, omega_b, pair, **model) -> _Model:
    """cos(phi)|M,0> + sin(phi)|0,N>; ``pair`` maps t to the closed-form
    populations of the two arms."""
    first, second = (m_occ, 0), (0, n_occ)
    return _Model(
        omega=(omega_a, omega_b),
        terms={first: math.cos(phi), second: math.sin(phi)},
        channels=[(0, 0), first, second],
        probabilities=lambda t: (0.0, *pair(t)),
        **model,
    )


def _first_order(key, n_occ, phi, omega_a, omega_b, eps, pair, extra) -> _Model:
    """M = N interferometer detuned by eps, against the first-order closed
    form ``pair``.  ``key`` names the config key that set eps; a detuning
    too large for the closed form is a ConfigError of that key; so is an
    omega_b <= 0, a detuning of -1 or less."""
    detuning = (omega_b - omega_a) / omega_a
    if abs(detuning) >= 0.1:
        raise ConfigError(
            key, f"relative detuning {detuning:g} too large for perturbation theory"
        )
    period = 2.0 * math.pi / (n_occ * omega_a)
    return _interferometer(
        n_occ, n_occ, phi, omega_a, omega_b, pair,
        omega_osc=n_occ * omega_a,
        analytic_tol=lambda horizon: (
            PERT_RESIDUAL_COEFF * eps**2 * max(1.0, horizon / period) + 1e-12
        ),
        extra={"eps": eps, **extra},
    )


def _moon_degenerate(v: dict) -> _Model:
    m_occ, n_occ, omega_a, omega_b = v["M"], v["N"], v["omega_a"], v["omega_b"]
    gap = n_occ * omega_b - m_occ * omega_a
    if abs(gap) > 1e-9 * max(m_occ * omega_a, 1.0):
        raise ConfigError(
            "omega_b",
            f"arm energies differ by {gap:g}; the degenerate scenario "
            "needs M omega_a = N omega_b",
        )
    arms = cf.moon_degenerate_probabilities(v["phi"])
    return _interferometer(
        m_occ, n_occ, v["phi"], omega_a, omega_b, lambda t: arms,
        omega_osc=0.0, t_default=50.0, extra={"eps": 0.0},
    )


def _moon_perturbative(v: dict) -> _Model:
    n_occ, omega_a = v["N"], v["omega_a"]
    if v["M"] != n_occ:
        raise ConfigError("M", "the perturbative interferometer needs M = N")
    if v["omega_b"] is not None and v["eps"] is not None:
        raise ConfigError("eps", "give either eps or omega_b, not both")
    if v["omega_b"] is not None:
        key, omega_b = "omega_b", v["omega_b"]
        eps = (omega_b - omega_a) / omega_a
    else:
        key, eps = "eps", 1e-3 if v["eps"] is None else v["eps"]
        omega_b = omega_a * (1.0 + eps)
    phi = v["phi"]
    return _first_order(
        key, n_occ, phi, omega_a, omega_b, eps,
        lambda t: cf.moon_perturbative_probabilities(n_occ, phi, omega_a, omega_b, t),
        {},
    )


def _gravitational(v: dict) -> _Model:
    n_occ, omega_0, r_S, r_E, L = v["N"], v["omega_0"], v["r_S"], v["r_E"], v["L"]
    if L >= 0.1 * r_E:
        raise ConfigError("L", f"first-order redshift needs L < 0.1 r_E, got L={L:g}")
    try:
        asymmetry = cf.gravitational_asymmetry(r_S, r_E, L)
    except (OverflowError, ZeroDivisionError):  # r_E**2 overflows or is 0
        raise ConfigError(
            "r_E", f"r_E**2 is past the float range, got r_E={r_E:g}"
        ) from None
    # minus the first-order fractional shift (r_S / 2) L / r_E^2
    eps = -(0.5 * r_S * L / r_E**2)
    model = _first_order(
        "r_S", n_occ, math.pi / 4, omega_0, omega_0 * (1.0 + eps), eps,
        lambda t: cf.gravitational_probabilities(asymmetry, n_occ, omega_0, t),
        {"asymmetry_closed_form": asymmetry},
    )
    first, second = _labels(model.channels[1:], 2)

    def readout(channels):
        return {
            "asymmetry_amplitude": float(np.max(channels[first] - channels[second]))
        }

    return replace(model, readout=readout)


def _custom_state(v: dict) -> _Model:
    amps = np.asarray(v["amplitudes"], dtype=complex)
    shape = tuple(c + 1 for c in v["cutoffs"])
    if len(amps) != math.prod(shape):
        raise ConfigError(
            "amplitudes",
            f"expected {math.prod(shape)} amplitudes for this basis, "
            f"got {len(amps)}",
        )
    support = np.flatnonzero(amps)
    if not support.size:
        raise ConfigError("amplitudes", "cannot normalize the zero vector")
    occupations = zip(*(axis.tolist() for axis in np.unravel_index(support, shape)))
    return _Model(
        omega=v["omega"],
        terms=dict(zip(occupations, amps[support].tolist())),
        channels=None,
    )


@dataclass(frozen=True)
class _Spec:
    """One row of :data:`SCENARIOS`."""

    description: str
    modes: int | str  # mode count, or the list key whose length gives it
    # config key -> default, in reading order: a value, a function of the
    # values read before it, ... (required), or None (optional, or the
    # ScenarioConfig default)
    keys: dict
    build: typing.Callable[[dict], _Model]  # checked values -> _Model


_PAIR_KEYS = {
    "n": 2, "m": 3, "omega_a": 1.0, "omega_b": math.sqrt(2.0),
    "cutoffs": lambda v: (v["n"] + 1, v["m"] + 1),
}

#: scenario name -> its description, the keys it reads and how it is built
SCENARIOS = {
    "single-mode-superposition": _Spec(
        "cos(theta)|0> + sin(theta)|n> in one mode", 1,
        {
            "n": 3, "omega": (1.0,), "theta": math.pi / 4, "E0": None,
            "cutoffs": lambda v: (v["n"] + 1,),
        },
        _single_mode,
    ),
    "single-eigenstate": _Spec(
        "a bare Fock state |n>; nothing should move", 1,
        {"n": 3, "omega": (1.0,), "E0": None, "cutoffs": lambda v: (v["n"] + 1,)},
        _single_mode,
    ),
    "two-mode-separable": _Spec(
        "product of two balanced superpositions, product rotation", 2,
        {**_PAIR_KEYS, "base_omega": None},
        lambda v: _product(
            (v["n"], v["m"]), (v["omega_a"], v["omega_b"]), v["base_omega"]
        ),
    ),
    "multimode-product": _Spec(
        "k-mode product of balanced superpositions", "ns",
        {
            "ns": (1, 1, 1),
            "omega": lambda v: tuple(1.0 + 0.5 * i for i in range(len(v["ns"]))),
            "cutoffs": lambda v: tuple(n + 1 for n in v["ns"]),
            "base_omega": None,
        },
        lambda v: _product(v["ns"], v["omega"], v["base_omega"]),
    ),
    "entangled-noon": _Spec(
        "(|00> + |nm>)/sqrt(2), a jointly rotated pair", 2, _PAIR_KEYS, _noon
    ),
    "moon-degenerate": _Spec(
        "cos(phi)|M0> + sin(phi)|0N> with equal arm energies", 2,
        {
            "M": 2, "N": 1, "phi": math.pi / 3, "omega_a": 1.0,
            "omega_b": lambda v: v["M"] * v["omega_a"] / v["N"],
            "cutoffs": lambda v: (v["M"], v["N"]),
        },
        _moon_degenerate,
    ),
    "moon-perturbative": _Spec(
        "equal-occupation interferometer with small detuning", 2,
        {
            "N": 2, "M": lambda v: v["N"], "phi": math.pi / 3, "omega_a": 1.0,
            "omega_b": None, "eps": None,
            "cutoffs": lambda v: (v["M"], v["N"]),
        },
        _moon_perturbative,
    ),
    "gravitational-mzi": _Spec(
        "balanced interferometer with arms at different heights", 2,
        {
            "N": 1, "omega_0": 1.0, "r_S": None, "r_E": None, "L": None,
            "cutoffs": lambda v: (v["N"], v["N"]),
        },
        _gravitational,
    ),
    "custom-state": _Spec(
        "user-supplied amplitudes over the truncated basis", "cutoffs",
        {"amplitudes": ..., "cutoffs": ..., "omega": ..., "E0": None},
        _custom_state,
    ),
}

#: (test, requirement) that the value of a key, or each entry of a list
#: value, must pass
_RULES = {
    **dict.fromkeys(
        ("n", "m", "N", "M", "ns"), (lambda x: x >= 1, "occupation must be >= 1")
    ),
    "cutoffs": (lambda x: x >= 1, "cutoff must be >= 1"),
    **dict.fromkeys(
        ("omega", "omega_a", "omega_b", "omega_0", "base_omega"),
        (lambda x: x > 0, "frequency must be positive"),
    ),
    **dict.fromkeys(("r_S", "r_E"), (lambda x: x > 0, "radius must be positive")),
    "L": (lambda x: x > 0, "length must be positive"),
    # angles forgive rounded endpoint inputs, which are then clamped
    **dict.fromkeys(
        ("theta", "phi"),
        (lambda x: -1e-6 <= x <= math.pi / 2 + 1e-6, "must lie in [0, pi/2]"),
    ),
}


def _read(cfg: ScenarioConfig, spec: _Spec) -> dict:
    """Value of every key ``spec`` reads, in table order: the config value
    or the default, checked against the key's rule.  A value that fails is
    a ConfigError naming the key it was read from."""
    values = {}
    for key, default in spec.keys.items():
        value = getattr(cfg, key)
        if value in (None, ()):
            if default is ...:
                raise ConfigError(key, f"{cfg.scenario} needs explicit {key}")
            value = default(values) if callable(default) else default
        if key in ("omega", "cutoffs") and key != spec.modes:
            modes = spec.modes if isinstance(spec.modes, int) else len(
                values[spec.modes]
            )
            if len(value) != modes:
                raise ConfigError(
                    key, f"need one entry per mode ({modes}), got {len(value)}"
                )
        if key in _RULES and value is not None:
            test, need = _RULES[key]
            for x in value if isinstance(value, tuple) else (value,):
                if not test(x):
                    raise ConfigError(key, f"{need}, got {x}")
        if key in ("theta", "phi"):
            value = min(max(value, 0.0), math.pi / 2)
        values[key] = value
    return values


# --------------------------------------------------------------------------
# scenario assembly


@dataclass
class _Prepared:
    """Everything run_scenario needs after config resolution."""

    system: ModeSystem
    psi0: Ket
    dyn: EffectiveDynamics
    channels: dict  # name -> flat Fock indices whose populations it sums
    closed_channels: object  # callable t -> dict of channel arrays, or None
    t_max: float
    t_grid: np.ndarray
    occupations: np.ndarray  # total occupation of each flat Fock index
    rk4_substeps: int | None  # per grid step; None when no RK4 route runs
    omega_osc: float
    analytic_tol: float
    summary_extra: dict
    readout: object  # callable final channels -> summary entries, or None


def dynamics_theta(dyn: EffectiveDynamics) -> float:
    return float(math.asin(min(max(dyn.mixing_sine, 0.0), 1.0)))


def _rk4_substeps(dyn: EffectiveDynamics, omega_max: float, dt: float,
                  key: str = "t_max") -> int:
    """RK4 substeps per grid step ``dt``: a step of at most one
    RK4_STEPS_PER_PERIOD-th of the fastest period, of |sin(theta) gap| or
    of ``omega_max`` > 0, the register's top frequency.  A count past the
    float range is a ConfigError of ``key``."""
    omega_osc = max(abs(dyn.mixing_sine * dyn.energy_gap), omega_max)
    step = (2.0 * math.pi / omega_osc) / RK4_STEPS_PER_PERIOD
    count = float(dt) / step  # Python floats: past the range, inf and no warning
    if not math.isfinite(count):
        raise ConfigError(
            key, f"grid step {dt:g} takes RK4 substeps past the float range")
    return max(1, math.ceil(count))


def _assemble(cfg: ScenarioConfig) -> _Prepared:
    """Register, state, factored generator, channels and closed form of the
    configured scenario, from its row of :data:`SCENARIOS`, and the run's
    plan: the horizon, the time grid, the occupations and the RK4 substeps.
    Every ConfigError of a run is raised here."""
    spec = SCENARIOS[cfg.scenario]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in (*RUN_KEYS, *spec.keys) and value not in (f.default, ()):
            raise ConfigError(f.name, f"{cfg.scenario} does not read it, got {value}")
    values = _read(cfg, spec)
    model = spec.build(values)
    dimension = math.prod(c + 1 for c in values["cutoffs"])
    # t, then each channel with n_expect and p_survival, thrice when compared;
    # a custom state reads at most its terms, the vacuum and p_other
    read = len(model.terms) + 2 if model.channels is None else len(model.channels)
    columns = 1 + (read + 2) * (3 if cfg.comparison else 1)
    if (dimension + columns) * cfg.steps > MAX_RUN_ENTRIES:
        raise ConfigError(
            "cutoffs",
            f"({dimension} basis states + {columns} columns) x {cfg.steps} "
            f"samples exceed {MAX_RUN_ENTRIES} entries",
        )
    cutoffs = values["cutoffs"]
    for occ in model.channels or ():
        for i, (o, c) in enumerate(zip(occ, cutoffs)):
            if o > c:
                raise ConfigError(
                    "cutoffs", f"cutoff {c} of mode {i} cannot hold occupation {o}"
                )
    if cfg.E0 > min(model.omega):
        # the vacuum must be the lowest level: U_p rotates psi onto it
        raise ConfigError("E0", f"ground level {cfg.E0:g} lies above the lowest "
                          f"excitation {min(model.omega):g}")
    # |E| <= sum(top), and |lambda| and every gap are at most 2 |E|
    top = [w * c for w, c in zip(model.omega, cutoffs)]
    # the key of the largest frequency term; one key may set several modes
    keys = [k for k in spec.keys if k.startswith("omega")]
    omega_key = keys[min(top.index(max(top)), len(keys) - 1)]
    top.append(abs(cfg.E0))
    if not math.isfinite(4.0 * sum(top)):
        key = "E0" if top.index(max(top)) == len(top) - 1 else omega_key
        raise ConfigError(key, f"top energy {sum(top):g} leaves the float range")
    # the default horizon is set by the frequencies
    horizon_key = "t_max" if cfg.t_max is not None else omega_key

    def horizon(omega_osc):
        # t_max, or else two periods of omega_osc, or 10 if nothing oscillates
        t_max = model.t_default if cfg.t_max is None else cfg.t_max
        if t_max is None:
            t_max = 4 * math.pi / omega_osc if omega_osc > 0 else 10.0
        if not math.isfinite(4.0 * sum(top) * t_max):
            raise ConfigError(horizon_key,
                              f"{t_max:g} takes phases E t past the float range")
        return t_max

    # checked before the build unless the default horizon needs the generator
    early = (cfg.t_max, model.t_default, model.omega_osc) != (None, None, None)
    t_max = horizon(model.omega_osc) if early else None
    if cfg.engine == "analytic" and model.probabilities is None:
        raise ConfigError("engine", f"scenario {cfg.scenario!r} has no "
                          "closed-form route")
    system = ModeSystem(model.omega, cutoffs)
    psi = superposition(system, model.terms)
    if model.mode_terms is None:
        energies = free_energies(system)
        energies[0] += cfg.E0  # the ground level sits at E0
        factors = [(energies, psi)]
    else:
        factors = []
        for w, c, terms in zip(model.omega, cutoffs, model.mode_terms):
            sub = ModeSystem((w,), (c,))
            factors.append((free_energies(sub), superposition(sub, terms)))
    dyn = effective_dynamics(factors)

    occupations, rest = model.channels, ()
    if occupations is None:
        # one mask, no sort: the vacuum and the support in flat-index order
        held = np.abs(psi.amplitudes) > 1e-12
        held[0] = True
        indices, rest = np.flatnonzero(held)[:, None], np.flatnonzero(~held)
        axes = np.unravel_index(indices, [c + 1 for c in cutoffs])
        occupations = list(map(tuple, np.hstack(axes).tolist()))
    else:
        indices = [[flat_index(system, occ)] for occ in occupations]
    labels = _labels(occupations, len(cutoffs))
    channels = dict(zip(labels, indices))
    if len(rest):
        channels["p_other"] = rest

    closed = None
    if model.probabilities is not None:

        def closed(t):
            probs = model.probabilities(t)
            out = dict(zip(labels, probs))
            if model.number is None:
                out["n_expect"] = sum(
                    sum(occ) * p for occ, p in zip(occupations, probs)
                )
            else:
                out["n_expect"] = model.number(t)
            out["p_survival"] = model.p_return(t) if model.p_return else 1.0
            return {
                k: np.broadcast_to(v, t.shape).astype(float) for k, v in out.items()
            }

    omega_osc = model.omega_osc
    if omega_osc is None:
        omega_osc = cf.oscillation_frequency(dynamics_theta(dyn), dyn.energy_gap)
    t_max = t_max if early else horizon(omega_osc)
    t_grid = np.linspace(0.0, t_max, cfg.steps)
    analytic_tol = TOL_ANALYTIC
    if model.analytic_tol is not None:
        analytic_tol = model.analytic_tol(t_max)
    return _Prepared(
        system=system,
        psi0=psi,
        dyn=dyn,
        channels=channels,
        closed_channels=closed,
        t_max=t_max,
        t_grid=t_grid,
        occupations=occupation_counts(system),
        rk4_substeps=_rk4_substeps(
            dyn, max(system.omega), t_grid[1] - t_grid[0], horizon_key
        ) if cfg.engine in ("rk4", "all") else None,
        omega_osc=omega_osc,
        analytic_tol=analytic_tol,
        summary_extra=model.extra,
        readout=model.readout,
    )


# --------------------------------------------------------------------------
# engines


def _exponential_channels(prep: _Prepared) -> dict:
    args, t_grid = (prep.dyn, prep.psi0), prep.t_grid
    # survival_probability repeats p_survival bit for bit; it is called only as
    # test_perfbench.py::test_tracer_wraps_every_binding_and_restores pins 2 calls
    return {
        **evolve_probabilities(*args, prep.channels, t_grid, prep.occupations),
        **survival_probability(*args, t_grid),
    }


def _standard_channels(prep: _Prepared) -> dict:
    """Same channels under the unmodified propagator exp(-i H t).

    H is diagonal in the Fock basis, so each amplitude only turns its phase:
    only p_survival = |sum_j |psi0_j|^2 exp(-i E_j t)|^2 moves, summed by
    tiles of the rows with no BLAS.
    """
    amps, t_grid = prep.psi0.amplitudes, prep.t_grid
    rows = np.flatnonzero(amps)
    out = read_channels(rows, None, amps[rows, None], amps, prep.channels,
                        prep.occupations)
    out = {name: np.broadcast_to(v, t_grid.shape) for name, v in out.items()}
    weights, energies = np.abs(amps[rows]) ** 2, prep.dyn.energies[rows]
    overlap = sum(_row_sum(weights[k], np.exp(-1j * np.outer(energies[k], t_grid)))
                  for k in _tiles(rows.size, t_grid.size))
    out["p_survival"] = np.abs(overlap) ** 2
    return {"std_" + name: values for name, values in out.items()}


def run_scenario(cfg: ScenarioConfig, strict: bool = True):
    """Evolve one configured scenario.

    Returns ``(series, summary)``.  With ``strict`` (the default) an
    :class:`EngineDisagreementError` is raised when the engines selected by
    the config disagree beyond the scenario tolerance.
    """
    cfg = cfg.validated()
    prep = _assemble(cfg)
    t_grid, engine = prep.t_grid, cfg.engine
    routes = {}
    if engine in ("exponential", "all"):
        routes["exponential"] = _exponential_channels(prep)
    if engine in ("analytic", "all") and prep.closed_channels is not None:
        routes["analytic"] = prep.closed_channels(t_grid)
    if engine in ("rk4", "all"):
        routes["rk4"] = rk4_expectation_series(
            prep.dyn, prep.psi0, prep.channels, t_grid, prep.occupations,
            substeps=prep.rk4_substeps,
        )
    primary = routes["exponential" if engine == "all" else engine]

    peaks = {}
    for pair, checked in (("analytic_vs_exponential", "analytic"),
                          ("exponential_vs_rk4", "rk4")):
        if checked in routes and "exponential" in routes:
            peaks[pair] = _peak_residual(routes[checked], routes["exponential"])
    residuals = {pair: value for pair, (value, _, _) in peaks.items()}
    max_residual = max(residuals.values(), default=0.0)

    prob_names = list(prep.channels)
    channels = dict(primary)
    probability_channels = set(prob_names) | {"p_survival"}
    partitions = [tuple(prob_names)]

    if cfg.comparison:
        std = _standard_channels(prep)
        channels.update(std)
        probability_channels |= {"std_" + n for n in prob_names + ["p_survival"]}
        partitions.append(tuple("std_" + n for n in prob_names))
        for name in prob_names + ["p_survival", "n_expect"]:
            channels["delta_" + name] = channels[name] - std["std_" + name]

    try:
        series = TimeSeries(
            t_grid,
            channels,
            probability_channels=probability_channels,
            partitions=partitions,
        )
    except ValueError as exc:
        if engine != "rk4":
            raise
        # the channels hold all of the state's population, so a failed check
        # is the squared-norm drift of the RK4 state: inside RK4_DRIFT_TOL but
        # past the bound of the series
        raise RefinementError(
            f"RK4 state norm drift fails the series check: {exc}; "
            "shorten t_max or choose engine exponential"
        ) from None
    if cfg.comparison:
        # the series checked that both partitions sum to 1 within 1e-9, so
        # their differences sum to 0 within 2e-9, and C differences round by
        # C 2^-52 more
        drift = np.abs(sum(channels["delta_" + n] for n in prob_names)).max()
        if not drift <= 2e-9 + len(prob_names) * 2.0**-52:
            raise ValueError(f"delta_ probability channels sum to {drift:g}, not 0")

    neg = None
    if prep.system.modes >= 2:
        # mode 0 against the rest of the register
        neg = negativity(prep.psi0, prep.system)

    summary = {
        "scenario": cfg.scenario,
        "engine": engine,
        "dimension": prep.system.dimension,
        "t_max": prep.t_max,
        "steps": cfg.steps,
        "theta": dynamics_theta(prep.dyn),
        "energy_gap": prep.dyn.energy_gap,
        "omega_osc": prep.omega_osc,
        "coherence": l1_coherence(prep.psi0),
        "negativity": neg,
        "residuals": residuals,
        "max_cross_engine_residual": max_residual,
        "tolerance_analytic": prep.analytic_tol,
        "tolerance_rk4": TOL_RK4,
        "comparison": cfg.comparison,
        "config": _config_echo(cfg),
    }
    summary.update(prep.summary_extra)
    if prep.readout is not None:
        summary.update(prep.readout(channels))

    agree = residuals.get("analytic_vs_exponential", 0.0) <= prep.analytic_tol and (
        residuals.get("exponential_vs_rk4", 0.0) <= TOL_RK4
    )
    summary["engines_agree"] = bool(agree)
    if strict and not agree:
        where = {
            pair: (channel, k, float(t_grid[k]))
            for pair, (_, channel, k) in peaks.items()
        }
        raise EngineDisagreementError(
            "evolution engines disagree: "
            + ", ".join(
                f"{pair}={residuals[pair]:.3e} (peak in {channel} at t[{k}]={t:g})"
                for pair, (channel, k, t) in where.items()
            )
            + f" (tolerances: analytic {prep.analytic_tol:.3e}, rk4 {TOL_RK4:.3e})",
            residuals=residuals,
            peaks=where,
        )
    return series, summary


def _peak_residual(a: dict, b: dict) -> tuple[float, str, int]:
    """max |a - b| over the channels both engines give, with the channel and
    the time index where it peaks."""
    peak = (-1.0, "", 0)
    for name in a:
        if name in b:
            diff = np.abs(a[name] - b[name])
            k = int(np.argmax(diff))  # the first NaN, if there is one
            # a NaN difference is the peak, so that it fails every gate
            if not diff[k] <= peak[0] and not math.isnan(peak[0]):
                peak = (float(diff[k]), name, k)
    return peak


def _config_echo(cfg: ScenarioConfig) -> dict:
    """The config as JSON values: lists as lists, complex numbers as text."""
    echo = {}
    for key, (kind, _) in _SCHEMA.items():
        value = getattr(cfg, key)
        if isinstance(value, tuple):
            value = list(map(str, value) if kind is complex else value)
        echo[key] = value
    return echo


SWEEPABLE = {
    name for name, (kind, is_list) in _SCHEMA.items()
    if kind in (int, float) and not is_list
}


def sweep(cfg: ScenarioConfig, parameter: str, values):
    """Run the scenario once per parameter value; one summary row each."""
    if parameter not in SWEEPABLE:
        raise ConfigError(
            parameter, f"not a sweepable numeric parameter; choose from "
            f"{sorted(SWEEPABLE)}"
        )
    rows = []
    for value in values:
        value = _coerce(parameter, value)
        _, summary = run_scenario(replace(cfg, **{parameter: value}), strict=True)
        rows.append({parameter: value, **{k: summary[k] for k in SWEEP_COLUMNS}})
    return rows
