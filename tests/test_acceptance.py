"""Acceptance gate: one test per criterion, each at its stated tolerance."""

import dataclasses

import pytest

from ergodyn import acceptance
from ergodyn.acceptance import CRITERIA
from ergodyn.scenarios import SCENARIOS


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[c.__name__ for c in CRITERIA]
)
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number} ({result.title}): {result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"


def test_criterion_04_catches_a_wrong_per_mode_state(monkeypatch):
    # the scenario rotates each mode by the passive rotation of its own
    # state; flipping the sign of the excited amplitude in that state (not
    # in the joint initial state) changes the generator the scenario runs
    spec = SCENARIOS["two-mode-separable"]

    def flipped(values):
        model = spec.build(values)
        model.mode_terms = [
            {occ: -amp if any(occ) else amp for occ, amp in terms.items()}
            for terms in model.mode_terms
        ]
        return model

    monkeypatch.setitem(
        SCENARIOS, "two-mode-separable", dataclasses.replace(spec, build=flipped)
    )
    result = acceptance.criterion_04_two_mode_products()
    assert not result.passed
    assert "product-form deviation" in result.detail
    assert "tensor-split deviation" in result.detail
