"""Acceptance gate: one test per criterion, each at its stated tolerance, and
each criterion failing under a mutant of the code it covers.

The mutants put one fault each into the package, as in test_mutants.py: a
checked source substitution, recompiled in the module's namespace.  A
criterion that no mutant can fail checks nothing (on mutation analysis, see
DeMillo, Lipton and Sayward, "Hints on test data selection", Computer 11(4),
1978).
"""

import contextlib
import dataclasses
from unittest import mock

import pytest

from ergodyn import acceptance, closed_forms, measures, oracles, scenarios
from ergodyn.acceptance import CRITERIA
from ergodyn.scenarios import SCENARIOS
from test_mutants import MUTANTS, _substituted


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[c.__name__ for c in CRITERIA]
)
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number} ({result.title}): {result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"


def _patched(module, name, old, new):
    """The patch of ``module.name``, and of acceptance's import of it, with
    ``old`` replaced by ``new`` in its source."""
    def patch():
        original = getattr(module, name)
        mutant = _substituted(module, original, old, new)
        stack = contextlib.ExitStack()
        for owner in (module, acceptance):
            if getattr(owner, name, None) is original:
                stack.enter_context(mock.patch.object(owner, name, mutant))
        return stack
    return patch


def _rebuilt(scenario, build):
    """The patch of the ``scenario`` row of SCENARIOS to ``build(spec)``."""
    spec = SCENARIOS[scenario]
    return lambda: mock.patch.dict(
        SCENARIOS, {scenario: dataclasses.replace(spec, build=build(spec))}
    )


def _flipped_mode_states(spec):
    # the scenario rotates each mode by the passive rotation of its own
    # state; flipping the sign of the excited amplitude in that state (not
    # in the joint initial state) changes the generator the scenario runs
    def build(values):
        model = spec.build(values)
        model.mode_terms = [
            {occ: -amp if any(occ) else amp for occ, amp in terms.items()}
            for terms in model.mode_terms
        ]
        return model
    return build


#: the closed forms at 1.01 times their rate: the routes all agree, and only
#: the analytic residual moves
_TWO_LEVEL_RATE = _patched(
    closed_forms, "two_level_probabilities", "np.sin(np.sin(theta) * energy_gap * t)",
    "np.sin(1.01 * np.sin(theta) * energy_gap * t)")
_BALANCED_RATE = _patched(
    closed_forms, "balanced_superposition_probabilities", "np.sin(gap * t / np.sqrt(2.0))",
    "np.sin(1.01 * gap * t / np.sqrt(2.0))")

#: criterion -> (mutant name, the function returning its patch, the checks
#: that must fail under it).  A mutant of the generator that the run's own
#: gates see, as theta-sign, sin-0.999, diag-h0 and drop-DhD are, fails every
#: row through them ("a run raised"); these mutants reach the values the rows
#: read.
CAUGHT_BY = {
    "criterion_01_two_level_triangle": (
        "two-level-rate-x1.01", _TWO_LEVEL_RATE, ["analytic_vs_exponential"]),
    "criterion_03_full_fock_single_mode": (
        "two-level-rate-x1.01", _TWO_LEVEL_RATE, ["analytic_vs_exponential"]),
    "criterion_04_two_mode_products": (
        "flipped-mode-state",
        _rebuilt("two-mode-separable", _flipped_mode_states),
        ["analytic_vs_exponential", "tensor-split deviation"]),
    "criterion_05_entangled_pair": (
        "balanced-rate-x1.01", _BALANCED_RATE, ["analytic_vs_exponential"]),
    "criterion_06_degenerate_interferometer": (
        "row-shift", MUTANTS["row-shift"], ["channel drift"]),
    "criterion_07_perturbative_interferometer": (
        "detuning-response-x1.1",
        _patched(closed_forms, "detuning_response", "return float(",
                 "return 1.1 * float("),
        ["residual ratio", "residual at eps 1e-3"]),
    "criterion_08_gravitational_asymmetry": (
        "swapped-asymmetry-arms",
        _rebuilt("gravitational-mzi", lambda spec: _substituted(
            scenarios, scenarios._gravitational, "channels[first] - channels[second]",
            "channels[second] - channels[first]")),
        ["asymmetry vs r_S L / r_E^2"]),
    "criterion_09_measures_and_rates": (
        "negativity-not-halved",
        _patched(measures, "negativity", "(sigma.sum() ** 2 - 1.0) / 2.0",
                 "(sigma.sum() ** 2 - 1.0)"),
        ["negativity deviation"]),
    "criterion_10_passivity": (
        "passive-sort-reversed",
        _patched(oracles, "passive_state", "eigvalsh(rho.matrix)[::-1]",
                 "eigvalsh(rho.matrix)"),
        ["gap to the permutation minimum", "passive minus least"]),
    "criterion_11_orthogonal_survival_comparison": (
        "standard-energies-x1.01",
        _patched(scenarios, "_standard_channels", "prep.dyn.energies[rows]",
                 "1.01 * prep.dyn.energies[rows]"),
        ["standard survival vs phase sum"]),
    "criterion_12_structural_properties": (
        "row-shift", MUTANTS["row-shift"], ["reduced vs dense"]),
}


def test_every_criterion_has_a_mutant():
    assert list(CAUGHT_BY) == [c.__name__ for c in CRITERIA]


@pytest.mark.parametrize(
    "criterion", CRITERIA,
    ids=[f"{c.__name__}-{CAUGHT_BY[c.__name__][0]}" for c in CRITERIA],
)
def test_criterion_fails_under_its_mutant(criterion):
    _, patch, failing = CAUGHT_BY[criterion.__name__]
    with patch():
        result = criterion()
    assert not result.passed, result.detail
    failed = result.detail.partition(" | FAILED: ")[2].split("; ")
    for what in failing:
        assert any(f.startswith(what) for f in failed), result.detail
