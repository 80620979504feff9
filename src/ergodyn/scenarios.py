"""Named end-to-end scenarios, configuration handling, and engine routing.

Each scenario assembles a mode register, an initial state, the passive
rotation, and its channels (named sets of flat Fock indices whose
populations are read out), then evolves them with up to three
independent engines (closed forms, exponential propagator, RK4) and
cross-checks the results.  The exponential route is canonical; the others
exist to catch it lying.
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
    effective_dynamics,
    evolve_probabilities,
    read_channels,
    rk4_expectation_series,
    survival_probability,
)
from .errors import ConfigError, EngineDisagreementError, RefinementError
from .fock import (
    Ket,
    ModeSystem,
    flat_index,
    free_energies,
    occupation_counts,
    occupations_of,
    superposition,
)
from .measures import BipartitionSpec, l1_coherence, negativity

ENGINES = ("analytic", "exponential", "rk4", "all")

#: cross-engine gates: closed form vs exponential (exact-regime scenarios)
TOL_ANALYTIC = 1e-9
#: exponential vs RK4 at the default step
TOL_RK4 = 1e-7
#: frozen scale for the perturbative closed-form residual, tol = coeff * eps^2
PERT_RESIDUAL_COEFF = 8.0

#: most time samples per run: np.linspace rounding alone breaks the 1e-9
#: uniformity check of TimeSeries near 1e7 samples (1.3e-10 at 1e6)
MAX_STEPS = 1_000_000

SCENARIO_NAMES = (
    "single-mode-superposition",
    "single-eigenstate",
    "two-mode-separable",
    "multimode-product",
    "entangled-noon",
    "moon-degenerate",
    "moon-perturbative",
    "gravitational-mzi",
    "custom-state",
)

SCENARIO_DESCRIPTIONS = {
    "single-mode-superposition": "cos(theta)|0> + sin(theta)|n> in one mode",
    "single-eigenstate": "a bare Fock state |n>; nothing should move",
    "two-mode-separable": "product of two balanced superpositions, product rotation",
    "multimode-product": "k-mode product of balanced superpositions",
    "entangled-noon": "(|00> + |nm>)/sqrt(2), a jointly rotated pair",
    "moon-degenerate": "cos(phi)|M0> + sin(phi)|0N> with equal arm energies",
    "moon-perturbative": "equal-occupation interferometer with small detuning",
    "gravitational-mzi": "balanced interferometer with arms at different heights",
    "custom-state": "user-supplied amplitudes over the truncated basis",
}


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
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(
                isinstance(v, (float, complex)) and not cmath.isfinite(v)
                for v in items
            ):
                raise ConfigError(f.name, f"must be finite, got {value}")
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(
                "scenario",
                f"unknown scenario {self.scenario!r}; "
                f"choose from {', '.join(SCENARIO_NAMES)}",
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
                items = [s.strip() for s in value.split(",") if s.strip()]
                return tuple(_parse_scalar(kind, s) for s in items)
            return _parse_scalar(kind, value.strip())
        if value is None:
            return None
        return tuple(kind(v) for v in value) if is_list else kind(value)
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
        with open(path, "r", encoding="utf-8") as fh:
            entries.update(parse_config_text(fh.read()))
    for key, value in (overrides or {}).items():
        entries[key] = _coerce(key, value)
    return ScenarioConfig(**entries).validated()


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
    regime: str  # "exact", "perturbative", "none"
    t_max: float
    omega_osc: float
    analytic_tol: float
    summary_extra: dict = field(default_factory=dict)
    partition_b_modes: tuple = ()


def _require(cfg_value, default):
    return default if cfg_value is None else cfg_value


def _angle(value: float, field: str) -> float:
    """Validate an angle in [0, pi/2], forgiving rounded endpoint inputs."""
    if -1e-6 <= value < 0.0:
        return 0.0
    if math.pi / 2 < value <= math.pi / 2 + 1e-6:
        return math.pi / 2
    if not 0.0 <= value <= math.pi / 2:
        raise ConfigError(field, f"must lie in [0, pi/2], got {value}")
    return value


def _occ_label(occ) -> str:
    return "p_" + "_".join(str(o) for o in occ)


def _fock_channels(system: ModeSystem, occupations) -> dict:
    """Channel ``p_<occ>`` -> the flat index of basis vector |occ>, per occupation."""
    return {_occ_label(occ): [flat_index(system, occ)] for occ in occupations}


def _ground_offset_energies(system: ModeSystem, e0: float) -> np.ndarray:
    """Free energies with the ground level shifted to energy e0."""
    h = free_energies(system)
    h[0] += e0
    return h


def _single_mode(cfg: ScenarioConfig, eigenstate: bool) -> _Prepared:
    n = _require(cfg.n, 3)
    if n < 1:
        raise ConfigError("n", f"occupation must be >= 1, got {n}")
    omega = cfg.omega[0] if cfg.omega else 1.0
    if omega <= 0:
        raise ConfigError("omega", f"frequency must be positive, got {omega}")
    theta = math.pi / 2 if eigenstate else _angle(
        _require(cfg.theta, math.pi / 4), "theta"
    )
    cutoff = cfg.cutoffs[0] if cfg.cutoffs else n + 1
    if cutoff < n:
        raise ConfigError("cutoffs", f"cutoff {cutoff} cannot hold occupation {n}")
    system = ModeSystem((omega,), (cutoff,))
    psi = superposition(system, {(0,): math.cos(theta), (n,): math.sin(theta)})
    dyn = effective_dynamics([(_ground_offset_energies(system, cfg.E0), psi)])
    gap = n * omega - cfg.E0
    omega_osc = cf.oscillation_frequency(theta, gap)
    channels = _fock_channels(system, [(0,), (n,)])

    def closed(t):
        p0, pn = cf.two_level_probabilities(theta, gap, t)
        return {
            _occ_label((0,)): p0,
            _occ_label((n,)): pn,
            "n_expect": n * pn,
            "p_survival": cf.two_level_survival(theta, gap, t),
        }

    t_default = 4 * math.pi / omega_osc if omega_osc > 0 else 10.0
    return _Prepared(
        system=system,
        psi0=psi,
        dyn=dyn,
        channels=channels,
        closed_channels=closed,
        regime="exact",
        t_max=_require(cfg.t_max, t_default),
        omega_osc=omega_osc,
        analytic_tol=TOL_ANALYTIC,
    )


def _product_modes(cfg: ScenarioConfig, ns, omegas) -> _Prepared:
    if cfg.E0 != 0.0:
        raise ConfigError("E0", "product scenarios assume a zero ground energy")
    for i, (n, w) in enumerate(zip(ns, omegas)):
        if n < 1:
            raise ConfigError("ns", f"occupation {n} of mode {i} must be >= 1")
        if w <= 0:
            raise ConfigError("omega", f"frequency {w} of mode {i} must be positive")
    cutoffs = cfg.cutoffs if cfg.cutoffs else tuple(n + 1 for n in ns)
    if len(cutoffs) != len(ns):
        raise ConfigError("cutoffs", f"need {len(ns)} cutoffs, got {len(cutoffs)}")
    for n, c in zip(ns, cutoffs):
        if c < n:
            raise ConfigError("cutoffs", f"cutoff {c} cannot hold occupation {n}")
    system = ModeSystem(tuple(omegas), tuple(cutoffs))

    # per-mode balanced superpositions and a product rotation
    root = 1.0 / math.sqrt(2.0)
    factors = []
    for n, w, c in zip(ns, omegas, cutoffs):
        sub = ModeSystem((w,), (c,))
        psi_mode = superposition(sub, {(0,): root, (n,): root})
        factors.append((free_energies(sub), psi_mode))

    # uniform amplitude (1/sqrt(2))^k on every excitation-pattern corner
    corners = [
        tuple(n if bit else 0 for n, bit in zip(ns, bits))
        for bits in np.ndindex(*(2,) * len(ns))
    ]
    psi = superposition(system, {occ: root ** len(ns) for occ in corners})

    dyn = effective_dynamics(factors)
    channels = _fock_channels(system, corners)

    def closed(t):
        t = np.asarray(t, dtype=float)
        singles = [
            cf.balanced_superposition_probabilities(n, w, 0.0, t)
            for n, w in zip(ns, omegas)
        ]
        out = {}
        for occ in corners:
            prob = np.ones_like(t)
            for (p_ground, p_excited), o in zip(singles, occ):
                prob = prob * (p_excited if o else p_ground)
            out[_occ_label(occ)] = prob
        out["n_expect"] = sum(
            cf.balanced_superposition_number(n, w, 0.0, t)
            for n, w in zip(ns, omegas)
        )
        surv = np.ones_like(t)
        for n, w in zip(ns, omegas):
            surv = surv * cf.two_level_survival(math.pi / 4, n * w, t)
        out["p_survival"] = surv
        return out

    # two periods of the slowest single-mode oscillation
    slowest = min(n * w for n, w in zip(ns, omegas)) / math.sqrt(2.0)
    t_default = 2.0 * math.pi / slowest
    extra = {}
    if cfg.base_omega is not None:
        extra["periodic"] = cf.product_recurrence_possible(
            ns, omegas, cfg.base_omega
        )
    return _Prepared(
        system=system,
        psi0=psi,
        dyn=dyn,
        channels=channels,
        closed_channels=closed,
        regime="exact",
        t_max=_require(cfg.t_max, t_default),
        omega_osc=cf.oscillation_frequency(dynamics_theta(dyn), dyn.energy_gap),
        analytic_tol=TOL_ANALYTIC,
        summary_extra=extra,
        partition_b_modes=tuple(range(1, len(ns))),
    )


def dynamics_theta(dyn: EffectiveDynamics) -> float:
    return float(math.asin(min(max(dyn.mixing_sine, 0.0), 1.0)))


def _entangled_pair(cfg: ScenarioConfig) -> _Prepared:
    if cfg.E0 != 0.0:
        raise ConfigError("E0", "the entangled scenario assumes a zero ground energy")
    n = _require(cfg.n, 2)
    m = _require(cfg.m, 3)
    omega_a = _require(cfg.omega_a, 1.0)
    omega_b = _require(cfg.omega_b, math.sqrt(2.0))
    if n < 1 or m < 1:
        raise ConfigError("n", f"occupations must be >= 1, got n={n}, m={m}")
    if omega_a <= 0 or omega_b <= 0:
        raise ConfigError("omega_a", "frequencies must be positive")
    cutoffs = cfg.cutoffs if cfg.cutoffs else (n + 1, m + 1)
    if len(cutoffs) != 2 or cutoffs[0] < n or cutoffs[1] < m:
        raise ConfigError("cutoffs", f"cutoffs {cutoffs} cannot hold ({n}, {m})")
    system = ModeSystem((omega_a, omega_b), tuple(cutoffs))
    root = 1.0 / math.sqrt(2.0)
    psi = superposition(system, {(0, 0): root, (n, m): root})
    dyn = effective_dynamics([(free_energies(system), psi)])
    gap = n * omega_a + m * omega_b
    channels = _fock_channels(system, [(0, 0), (n, m)])

    def closed(t):
        p00, pnm = cf.noon_probabilities(n, m, omega_a, omega_b, t)
        return {
            _occ_label((0, 0)): p00,
            _occ_label((n, m)): pnm,
            "n_expect": (n + m) * pnm,
            "p_survival": cf.two_level_survival(math.pi / 4, gap, t),
        }

    omega_osc = cf.oscillation_frequency(math.pi / 4, gap)
    return _Prepared(
        system=system,
        psi0=psi,
        dyn=dyn,
        channels=channels,
        closed_channels=closed,
        regime="exact",
        t_max=_require(cfg.t_max, 4 * math.pi / omega_osc),
        omega_osc=omega_osc,
        analytic_tol=TOL_ANALYTIC,
        partition_b_modes=(1,),
    )


def _moon(cfg: ScenarioConfig, flavor: str) -> _Prepared:
    if cfg.E0 != 0.0:
        raise ConfigError("E0", "interferometer scenarios assume a zero ground energy")
    if flavor == "gravitational":
        n_occ = _require(cfg.N, 1)
        m_occ = n_occ
        phi = math.pi / 4
        omega_a = _require(cfg.omega_0, 1.0)
        if n_occ < 1:
            raise ConfigError("N", f"occupation must be >= 1, got {n_occ}")
        if omega_a <= 0:
            raise ConfigError("omega_0", f"frequency must be positive, got {omega_a}")
        if cfg.r_E <= 0:
            raise ConfigError("r_E", f"radius must be positive, got {cfg.r_E}")
        if cfg.L >= 0.1 * cfg.r_E:
            raise ConfigError(
                "L", f"first-order redshift needs L < 0.1 r_E, got L={cfg.L:g}"
            )
        scenario = cf.GravityScenario(
            schwarzschild_radius=cfg.r_S,
            earth_radius=cfg.r_E,
            path_length=cfg.L,
            omega_0=omega_a,
            n_occ=n_occ,
        )
        eps = -scenario.relative_shift
        omega_b = omega_a * (1.0 + eps)
        omega_b_key = "r_S"
    elif flavor == "perturbative":
        n_occ = _require(cfg.N, 2)
        m_occ = _require(cfg.M, n_occ)
        if m_occ != n_occ:
            raise ConfigError("M", "the perturbative interferometer needs M = N")
        phi = _require(cfg.phi, math.pi / 3)
        omega_a = _require(cfg.omega_a, 1.0)
        if cfg.omega_b is not None and cfg.eps is not None:
            raise ConfigError("eps", "give either eps or omega_b, not both")
        if cfg.omega_b is not None:
            omega_b = cfg.omega_b
            eps = (omega_b - omega_a) / omega_a
            omega_b_key = "omega_b"
        else:
            eps = _require(cfg.eps, 1e-3)
            omega_b = omega_a * (1.0 + eps)
            omega_b_key = "eps"
        scenario = None
    else:  # degenerate
        m_occ = _require(cfg.M, 2)
        n_occ = _require(cfg.N, 1)
        phi = _require(cfg.phi, math.pi / 3)
        omega_a = _require(cfg.omega_a, 1.0)
        omega_b = _require(cfg.omega_b, m_occ * omega_a / n_occ)
        gap = n_occ * omega_b - m_occ * omega_a
        if abs(gap) > 1e-9 * max(m_occ * omega_a, 1.0):
            raise ConfigError(
                "omega_b",
                f"arm energies differ by {gap:g}; the degenerate scenario "
                "needs M omega_a = N omega_b",
            )
        eps = 0.0
        scenario = None
        omega_b_key = "omega_b"
    if m_occ < 1 or n_occ < 1:
        raise ConfigError("N", "occupations must be >= 1")
    if omega_a <= 0:
        raise ConfigError("omega_a", f"frequency must be positive, got {omega_a}")
    if omega_b <= 0:
        raise ConfigError(
            omega_b_key, f"arm frequency omega_b = {omega_b:g} must be positive"
        )
    phi = _angle(phi, "phi")

    cutoffs = cfg.cutoffs if cfg.cutoffs else (m_occ, n_occ)
    if len(cutoffs) != 2 or cutoffs[0] < m_occ or cutoffs[1] < n_occ:
        raise ConfigError(
            "cutoffs", f"cutoffs {cutoffs} cannot hold ({m_occ}, {n_occ})"
        )
    system = ModeSystem((omega_a, omega_b), tuple(cutoffs))
    psi = superposition(
        system, {(m_occ, 0): math.cos(phi), (0, n_occ): math.sin(phi)}
    )
    dyn = effective_dynamics([(free_energies(system), psi)])
    first = (m_occ, 0)
    second = (0, n_occ)
    channels = _fock_channels(system, [(0, 0), first, second])

    if flavor == "degenerate":
        p_first, p_second = cf.moon_degenerate_probabilities(phi)

        def closed(t):
            t = np.asarray(t, dtype=float)
            ones = np.ones_like(t)
            return {
                _occ_label((0, 0)): 0.0 * ones,
                _occ_label(first): p_first * ones,
                _occ_label(second): p_second * ones,
                "n_expect": (m_occ * p_first + n_occ * p_second) * ones,
                "p_survival": ones,
            }

        regime = "exact"
        analytic_tol = TOL_ANALYTIC
        omega_osc = 0.0
        t_default = 50.0
        extra = {"eps": 0.0}
    else:
        params = cf.MoonParams(
            m_occ=m_occ, n_occ=n_occ, phi=phi, omega_a=omega_a, omega_b=omega_b
        )
        if flavor == "gravitational":
            closed_pair = lambda t: cf.gravitational_probabilities(scenario, t)
        else:
            closed_pair = lambda t: cf.moon_perturbative_probabilities(params, t)

        def closed(t):
            t = np.asarray(t, dtype=float)
            pf, ps = closed_pair(t)
            return {
                _occ_label((0, 0)): np.zeros_like(t),
                _occ_label(first): pf,
                _occ_label(second): ps,
                "n_expect": m_occ * pf + n_occ * ps,
                "p_survival": np.ones_like(t),
            }

        regime = "perturbative"
        period = 2.0 * math.pi / (n_occ * omega_a)
        t_default = 2.0 * period
        horizon = _require(cfg.t_max, t_default)
        analytic_tol = (
            PERT_RESIDUAL_COEFF * eps**2 * max(1.0, horizon / period) + 1e-12
        )
        omega_osc = n_occ * omega_a
        extra = {"eps": eps}
        if scenario is not None:
            extra["asymmetry_closed_form"] = scenario.asymmetry

    return _Prepared(
        system=system,
        psi0=psi,
        dyn=dyn,
        channels=channels,
        closed_channels=closed,
        regime=regime,
        t_max=_require(cfg.t_max, t_default),
        omega_osc=omega_osc,
        analytic_tol=analytic_tol,
        summary_extra=extra,
        partition_b_modes=(1,),
    )


def _custom_state(cfg: ScenarioConfig) -> _Prepared:
    if cfg.amplitudes is None:
        raise ConfigError("amplitudes", "custom-state needs explicit amplitudes")
    if not cfg.cutoffs:
        raise ConfigError("cutoffs", "custom-state needs explicit cutoffs")
    if not cfg.omega:
        raise ConfigError("omega", "custom-state needs one frequency per mode")
    if len(cfg.omega) != len(cfg.cutoffs):
        raise ConfigError(
            "omega",
            f"{len(cfg.omega)} frequencies for {len(cfg.cutoffs)} cutoffs",
        )
    if min(cfg.cutoffs) < 1:
        raise ConfigError("cutoffs", f"every cutoff must be >= 1, got {cfg.cutoffs}")
    if min(cfg.omega) <= 0:
        raise ConfigError("omega", f"frequencies must be positive, got {cfg.omega}")
    system = ModeSystem(cfg.omega, cfg.cutoffs)
    if len(cfg.amplitudes) != system.dimension:
        raise ConfigError(
            "amplitudes",
            f"expected {system.dimension} amplitudes for this basis, "
            f"got {len(cfg.amplitudes)}",
        )
    try:
        psi = Ket(cfg.amplitudes)
    except ValueError as exc:  # all amplitudes zero
        raise ConfigError("amplitudes", str(exc)) from None
    dyn = effective_dynamics([(_ground_offset_energies(system, cfg.E0), psi)])

    # the vacuum and every basis vector the state occupies; the rest of the
    # basis, if any, is read as one channel p_other
    support = np.union1d([0], np.flatnonzero(np.abs(psi.amplitudes) > 1e-12))
    channels = {_occ_label(occupations_of(system, k)): [k] for k in support}
    rest = np.setdiff1d(np.arange(system.dimension), support)
    if rest.size:
        channels["p_other"] = rest

    omega_osc = cf.oscillation_frequency(dynamics_theta(dyn), dyn.energy_gap)
    part_b = tuple(range(1, system.modes)) if system.modes > 1 else ()
    return _Prepared(
        system=system,
        psi0=psi,
        dyn=dyn,
        channels=channels,
        closed_channels=None,
        regime="none",
        t_max=_require(cfg.t_max, 4 * math.pi / omega_osc if omega_osc > 0 else 10.0),
        omega_osc=omega_osc,
        analytic_tol=TOL_ANALYTIC,
        partition_b_modes=part_b,
    )


def _prepare(cfg: ScenarioConfig) -> _Prepared:
    name = cfg.scenario
    if name == "single-mode-superposition":
        return _single_mode(cfg, eigenstate=False)
    if name == "single-eigenstate":
        return _single_mode(cfg, eigenstate=True)
    if name == "two-mode-separable":
        n = _require(cfg.n, 2)
        m = _require(cfg.m, 3)
        omega_a = _require(cfg.omega_a, 1.0)
        omega_b = _require(cfg.omega_b, math.sqrt(2.0))
        return _product_modes(cfg, (n, m), (omega_a, omega_b))
    if name == "multimode-product":
        ns = cfg.ns if cfg.ns else (1, 1, 1)
        omegas = cfg.omega if cfg.omega else tuple(
            1.0 + 0.5 * i for i in range(len(ns))
        )
        if len(omegas) != len(ns):
            raise ConfigError(
                "omega", f"{len(omegas)} frequencies for {len(ns)} occupations"
            )
        return _product_modes(cfg, ns, omegas)
    if name == "entangled-noon":
        return _entangled_pair(cfg)
    if name == "moon-degenerate":
        return _moon(cfg, "degenerate")
    if name == "moon-perturbative":
        return _moon(cfg, "perturbative")
    if name == "gravitational-mzi":
        return _moon(cfg, "gravitational")
    if name == "custom-state":
        return _custom_state(cfg)
    raise ConfigError("scenario", f"unhandled scenario {name!r}")


# --------------------------------------------------------------------------
# engines


def _exponential_channels(prep: _Prepared, t_grid, occupations) -> dict:
    series = evolve_probabilities(
        prep.dyn, prep.psi0, prep.channels, t_grid, occupations
    )
    surv = survival_probability(prep.dyn, prep.psi0, t_grid)
    channels = dict(series.channels)
    channels["p_survival"] = surv.channels["p_survival"]
    return channels


def _standard_channels(prep: _Prepared, t_grid, occupations) -> dict:
    """Same channels under the unmodified propagator exp(-i H t).

    H is diagonal in the Fock basis, so each amplitude only turns its phase.
    """
    amps = prep.psi0.amplitudes
    states = amps[:, None] * np.exp(-1j * np.outer(prep.dyn.energies, t_grid))
    out = read_channels(states, prep.channels, occupations)
    out["p_survival"] = np.abs(amps.conj() @ states) ** 2
    return {"std_" + name: values for name, values in out.items()}


def run_scenario(cfg: ScenarioConfig, strict: bool = True):
    """Evolve one configured scenario.

    Returns ``(series, summary)``.  With ``strict`` (the default) an
    :class:`EngineDisagreementError` is raised when the engines selected by
    the config disagree beyond the scenario tolerance.
    """
    cfg = cfg.validated()
    prep = _prepare(cfg)
    t_grid = np.linspace(0.0, prep.t_max, cfg.steps)
    occupations = occupation_counts(prep.system)

    engine = cfg.engine
    if engine == "analytic" and prep.closed_channels is None:
        raise ConfigError(
            "engine", f"scenario {cfg.scenario!r} has no closed-form route"
        )

    exponential = None
    analytic = None
    rk4 = None
    if engine in ("exponential", "all"):
        exponential = _exponential_channels(prep, t_grid, occupations)
    if engine in ("analytic", "all") and prep.closed_channels is not None:
        analytic = prep.closed_channels(t_grid)
        analytic = {k: np.broadcast_to(v, t_grid.shape).astype(float)
                    for k, v in analytic.items()}
    if engine in ("rk4", "all"):
        rk4 = rk4_expectation_series(
            prep.dyn,
            prep.psi0,
            prep.channels,
            t_grid,
            occupations,
            survival=True,
            omega_max=max(prep.system.omega),
        )
    if engine == "exponential":
        primary = exponential
    elif engine == "analytic":
        primary = analytic
    elif engine == "rk4":
        primary = rk4
    else:
        primary = exponential

    peaks = {}
    if analytic is not None and exponential is not None:
        peaks["analytic_vs_exponential"] = _peak_residual(analytic, exponential)
    if rk4 is not None and exponential is not None:
        peaks["exponential_vs_rk4"] = _peak_residual(rk4, exponential)
    residuals = {pair: value for pair, (value, _, _) in peaks.items()}
    max_residual = max(residuals.values(), default=0.0)

    prob_names = list(prep.channels)
    channels = dict(primary)
    probability_channels = set(prob_names) | {"p_survival"}
    partitions = [tuple(prob_names)]

    if cfg.comparison:
        std = _standard_channels(prep, t_grid, occupations)
        for name, values in std.items():
            channels[name] = values
        probability_channels |= {"std_" + n for n in prob_names}
        probability_channels.add("std_p_survival")
        partitions.append(tuple("std_" + n for n in prob_names))
        for name in prob_names + ["p_survival", "n_expect"]:
            channels["delta_" + name] = channels[name] - std["std_" + name]

    try:
        series = TimeSeries(
            t_grid,
            channels,
            probability_channels=probability_channels & set(channels),
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

    coherence = l1_coherence(prep.psi0)
    neg = None
    if prep.system.modes >= 2:
        part = BipartitionSpec(
            subsystem_a=tuple(
                i for i in range(prep.system.modes)
                if i not in prep.partition_b_modes
            ),
            subsystem_b=prep.partition_b_modes or (prep.system.modes - 1,),
        )
        neg = negativity(prep.psi0, prep.system, part)

    summary = {
        "scenario": cfg.scenario,
        "engine": engine,
        "dimension": prep.system.dimension,
        "t_max": prep.t_max,
        "steps": cfg.steps,
        "theta": dynamics_theta(prep.dyn),
        "energy_gap": prep.dyn.energy_gap,
        "omega_osc": prep.omega_osc,
        "coherence": coherence,
        "negativity": neg,
        "residuals": residuals,
        "max_cross_engine_residual": max_residual,
        "tolerance_analytic": prep.analytic_tol,
        "tolerance_rk4": TOL_RK4,
        "comparison": cfg.comparison,
        "config": _config_echo(cfg),
    }
    summary.update(prep.summary_extra)
    if cfg.scenario == "gravitational-mzi":
        first, second = prob_names[1], prob_names[2]
        summary["asymmetry_amplitude"] = float(
            np.max(channels[first] - channels[second])
        )

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
            k = int(np.argmax(diff))
            if diff[k] > peak[0]:
                peak = (float(diff[k]), name, k)
    return peak


def _config_echo(cfg: ScenarioConfig) -> dict:
    echo = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = [
                str(v) if isinstance(v, complex) else v for v in value
            ]
        echo[f.name] = value
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
        rows.append(
            {
                parameter: value,
                "omega_osc": summary["omega_osc"],
                "energy_gap": summary["energy_gap"],
                "coherence": summary["coherence"],
                "negativity": summary["negativity"],
                "max_cross_engine_residual": summary["max_cross_engine_residual"],
            }
        )
    return rows
