"""Spans around calls into ergodyn's layers, recorded from outside the package.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` in every
ergodyn module that binds them (``scenarios`` imports names such as
``evolve_probabilities`` into its own namespace), wraps chosen class
methods in place, and wraps ``numpy.linalg.eigh`` and ``eigvalsh``.  Every
wrapper appends one span to the active ``Recorder``; ``Tracer.restore()`` puts
the originals back, so untraced passes run the unmodified program.

A name that a later version of the package no longer defines is skipped,
and a layer left with nothing to wrap is reported as absent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: layer -> (module, attribute path) pairs that belong to it.  A dotted
#: attribute path names a method patched on its class.
LAYERS = {
    "cli": [("ergodyn.cli", n) for n in ("main", "build_parser")],
    "scenarios.load_config": [
        ("ergodyn.scenarios", n) for n in ("load_config", "parse_config_text")
    ],
    "scenarios.run_scenario": [
        ("ergodyn.scenarios", n) for n in ("run_scenario", "sweep", "dynamics_theta")
    ],
    "fock": [
        ("ergodyn.fock", n)
        for n in (
            "dimension_cap", "build_basis", "flat_index", "occupations_of",
            "fock_ket", "vacuum_ket", "superposition", "free_hamiltonian",
            "number_operator", "projector", "identity_operator", "tensor",
            "pure_density", "ModeSystem.__post_init__", "Ket.__init__",
            "Operator.__init__", "Operator.dagger", "Operator.expectation",
            "DensityOperator.__init__",
        )
    ],
    "passive": [
        ("ergodyn.passive", n)
        for n in (
            "decompose_against_ground", "build_passive_unitary",
            "passive_unitary_for", "passive_state", "passive_energy",
        )
    ],
    "dynamics.generator": [
        ("ergodyn.dynamics", n)
        for n in ("effective_hamiltonian", "expanded_generator", "subspace_generator")
    ],
    "dynamics.exponential": [
        ("ergodyn.dynamics", n)
        for n in (
            "evolve_probabilities", "survival_probability", "propagator",
            "standard_propagator", "block_probabilities", "first_order_dyson",
        )
    ],
    "dynamics.rk4": [
        ("ergodyn.dynamics", n)
        for n in ("rk4_expectation_series", "rk4_commutator_oracle", "default_rk4_step")
    ],
    "dynamics.series": [
        ("ergodyn.dynamics", n) for n in ("TimeSeries.__init__", "TimeSeries.merged_with")
    ],
    "closed_forms": [
        ("ergodyn.closed_forms", n)
        for n in (
            "two_level_probabilities", "two_level_survival",
            "balanced_superposition_probabilities", "balanced_superposition_number",
            "separable_pair_probabilities", "separable_pair_number",
            "product_recurrence_possible", "noon_probabilities", "detuning_response",
            "moon_degenerate_probabilities", "moon_perturbative_probabilities",
            "gravitational_probabilities", "oscillation_frequency",
            "oscillation_frequency_from_coherence",
        )
    ],
    "measures": [
        ("ergodyn.measures", n)
        for n in ("l1_coherence", "partial_transpose", "negativity",
                  "BipartitionSpec.validate_for")
    ],
    "emit": [
        ("ergodyn.emit", n)
        for n in (
            "format_series_csv", "write_series_csv", "read_series_csv",
            "format_summary_json", "write_summary_json", "format_sweep_csv",
        )
    ],
    "linalg.eigh": [("numpy.linalg", "eigh")],
    "linalg.eigvalsh": [("numpy.linalg", "eigvalsh")],
}

#: layers whose returned matrices are summed into ``<layer>.alloc_bytes``
ALLOC_LAYERS = ("fock", "passive")

#: pseudo-layer for the tracer's own work inside a span (matrix digests);
#: it counts toward no program layer
BOOKKEEPING = "trace"


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    layer: str
    start: float
    end: float = 0.0


@dataclass
class Recorder:
    """Spans of one traced pass, kept in memory."""

    spans: list = field(default_factory=list)
    alloc_bytes: dict = field(default_factory=dict)
    eigh_digests: list = field(default_factory=list)
    flops: float = 0.0
    _stack: list = field(default_factory=list)

    def enter(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.span_id if parent else None, layer,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def outer_layer(self) -> str | None:
        """Layer of the innermost open span, if any."""
        return self._stack[-1].layer if self._stack else None


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's.

    Calls nest strictly in one thread, so the children of a span never
    overlap and their durations can be summed.
    """
    out = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent_id is not None:
            out[s.parent_id] -= s.end - s.start
    return out


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """layer -> (summed self time, calls into the layer).

    A call into a layer is a span whose parent belongs to another layer, so
    a layer function calling another of its own counts once.
    """
    totals: dict[str, list] = {}
    selfs = self_times(spans)
    layer_of = {s.span_id: s.layer for s in spans}
    for s in spans:
        entry = totals.setdefault(s.layer, [0.0, 0])
        entry[0] += selfs[s.span_id]
        entry[1] += layer_of.get(s.parent_id) != s.layer
    return {layer: (t, n) for layer, (t, n) in totals.items()}


def _matrix_bytes(value) -> int:
    """Summed nbytes of the 2-D arrays a wrapped call returned."""
    if isinstance(value, np.ndarray):
        return value.nbytes if value.ndim == 2 else 0
    matrix = getattr(value, "matrix", None)
    if isinstance(matrix, np.ndarray) and matrix.ndim == 2:
        return matrix.nbytes
    return 0


def _eig_flops(matrix, vectors: bool) -> float:
    """Computed real flop count of a complex Hermitian eigensolve.

    Golub and Van Loan give about 9 n^3 for a real symmetric eigensystem
    and 4/3 n^3 for eigenvalues alone; complex arithmetic costs four times
    as many real operations.
    """
    n = np.shape(matrix)[-1]
    return 4.0 * (9.0 if vectors else 4.0 / 3.0) * float(n) ** 3


class Tracer:
    """Installs and removes the span wrappers around one ``Recorder``."""

    def __init__(self):
        self.recorder: Recorder | None = None
        self.absent_layers: list[str] = []
        self.missing_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rec = tracer.recorder
            if rec is None:
                return func(*args, **kwargs)
            outer = rec.outer_layer()
            if layer == "linalg.eigh":
                book = rec.enter(BOOKKEEPING)
                matrix = np.ascontiguousarray(args[0])
                rec.eigh_digests.append(hashlib.blake2b(matrix.tobytes()).digest())
                rec.exit(book)
            if layer.startswith("linalg."):
                rec.flops += _eig_flops(args[0], vectors=layer == "linalg.eigh")
            span = rec.enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.exit(span)
            if layer in ALLOC_LAYERS and outer != layer:
                rec.alloc_bytes[layer] = (
                    rec.alloc_bytes.get(layer, 0) + _matrix_bytes(result)
                )
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed name wherever an ergodyn module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent_layers, self.missing_names = [], []
        for module_name in {m for names in LAYERS.values() for m, _ in names}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ergodyn" or name.startswith("ergodyn.")]
        for layer, names in LAYERS.items():
            found = 0
            for module_name, path in names:
                module = sys.modules.get(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing_names.append(f"{module_name}.{path}")
                    continue
                found += 1
                wrapper = self._wrap(layer, original)
                if owner_name or module_name == "numpy.linalg":
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            if not found:
                self.absent_layers.append(layer)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
