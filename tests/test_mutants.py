"""Mutation panel: does a user's ``--engine all`` run notice a wrong generator?

Each mutant puts one fault into the shared run path, by ``mock.patch`` of a
module constant or by a checked source substitution: the replaced text must
occur exactly once in the function or class, which is recompiled in the
module's namespace and patched over the original.  Every mutant runs on the
panel: the eight closed-form scenarios at their defaults and a 3,3 custom
state, each through ``run_scenario(strict=True)`` under engine all.  A
mutant is caught on a config when the run raises one of the package's
errors or a gate's ValueError (exit 1 or more from the CLI).  A pair that
the mutant cannot change is listed in ``EQUIVALENT`` with the reason, and
there the mutant must leave every channel within 1e-14 of the unmutated run.
"""

import inspect
import textwrap
from unittest import mock

import numpy as np
import pytest

from ergodyn import dynamics
from ergodyn.errors import ErgodynError, RefinementError
from ergodyn.scenarios import load_config, run_scenario

CLOSED_FORMS = (
    "single-mode-superposition", "single-eigenstate", "two-mode-separable",
    "multimode-product", "entangled-noon", "moon-degenerate",
    "moon-perturbative", "gravitational-mzi",
)

#: config name -> overrides; all at the default sizes, under engine all
PANEL = {
    **{name: {"scenario": name} for name in CLOSED_FORMS},
    "custom-3-3": {
        "scenario": "custom-state", "cutoffs": "3,3", "omega": "1.0,1.4",
        "amplitudes": "1,0.5,0,0.2,0,0,0,0.3,0,0,0,0,0,0,0.1,0",
    },
}


def _substituted(obj, old: str, new: str):
    """``obj`` (a function or class of ``dynamics``) with ``old`` replaced by
    ``new`` in its source, compiled in a copy of the module's namespace."""
    source = textwrap.dedent(inspect.getsource(obj))
    assert source.count(old) == 1, f"{obj.__name__}: {old!r} x {source.count(old)}"
    namespace = dict(vars(dynamics))
    code = compile(source.replace(old, new), inspect.getsourcefile(obj), "exec")
    exec(code, namespace)
    return namespace[obj.__name__]


def _factor(old: str, new: str):
    return lambda: mock.patch.object(
        dynamics, "_Factor", _substituted(dynamics._Factor, old, new)
    )


#: mutant -> a function returning the patch that applies it
MUTANTS = {
    "theta-sign": _factor(
        "[[c - 1.0, s], [-s, c - 1.0]]", "[[c - 1.0, -s], [s, c - 1.0]]"
    ),
    "drop-DhD": _factor("\n                + pair @ dm.T @ diag @ dm @ pair.T\n", "\n"),
    "diag-h0": _factor("np.diag([h0, e_exc])", "np.diag([h0, h0])"),
    "sin-0.999": _factor("s = np.cos(dec.theta), np.sin(dec.theta)",
                         "s = np.cos(dec.theta), 0.999 * np.sin(dec.theta)"),
    "rank-tol-1e-3": lambda: mock.patch.object(dynamics, "RANK_TOL", 1e-3),
    "row-shift": lambda: mock.patch.object(
        dynamics, "_reduced_states",
        _substituted(dynamics._reduced_states, "p = p[rows]", "p = p[rows - 1]"),
    ),
    "row-sum-conj": lambda: mock.patch.object(
        dynamics, "_row_sum", _substituted(dynamics._row_sum, "a.conj()", "a")
    ),
}

_NO_VACUUM = (
    "the flipped rotation is S U S for S = -1 on the vacuum, so H_eff becomes "
    "S H_eff S; S leaves psi0 and every population alone when psi0 has no "
    "vacuum part (theta = pi/2)"
)
_REAL = (
    "every panel state is real, and so are its basis B and the K x K "
    "matrices that _row_sum forms: conjugation is the identity on them"
)

#: (mutant, config) -> why the mutant cannot change that config's channels
EQUIVALENT = {
    **{("theta-sign", c): _NO_VACUUM for c in (
        "single-eigenstate", "moon-degenerate", "moon-perturbative",
        "gravitational-mzi")},
    **{("rank-tol-1e-3", c): (
        "e lies on one energy level (a Fock excitation, or the degenerate "
        "arms), so h e is parallel to e and the basis has rank 2 at any "
        "RANK_TOL") for c in CLOSED_FORMS[:6]},
    ("rank-tol-1e-3", "custom-3-3"): (
        "the Gram-Schmidt remainder of h e is far above 1e-3 of the scale, so "
        "the third column is kept"),
    ("row-shift", "single-eigenstate"): (
        "|n> only turns its phase under H_eff, so its populations stay 1 and "
        "0; the shifted P misses it and leaves it frozen, with the same ones"),
    **{("row-shift", c): (
        "a product register takes the several-factor branch, which the "
        "shifted one-factor line is not on") for c in (
        "two-mode-separable", "multimode-product")},
    **{("row-sum-conj", c): _REAL for c in PANEL},
}

#: an expected failure: the run does not notice this fault
MISSED = {
    ("theta-sign", "custom-3-3"): (
        "a fault in the shared factor passes --engine all on a custom state: "
        "RK4 steps the same _Factor, so both routes agree on the wrong "
        "generator, and no closed form checks a custom state"),
}


def _cases():
    for mutant in MUTANTS:
        for config in PANEL:
            reason = MISSED.get((mutant, config))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(mutant, config, marks=marks, id=f"{mutant}-{config}")


def _run(config):
    cfg = load_config(None, {**PANEL[config], "engine": "all"})
    return run_scenario(cfg, strict=True)[0].channels


@pytest.fixture(scope="module")
def unmutated():
    return {config: _run(config) for config in PANEL}


@pytest.mark.parametrize("mutant, config", _cases())
def test_mutant_is_caught_or_equivalent(mutant, config, unmutated):
    with MUTANTS[mutant]():
        if (mutant, config) in EQUIVALENT:
            channels = _run(config)
            for name, values in unmutated[config].items():
                np.testing.assert_allclose(channels[name], values, rtol=0, atol=1e-14)
        else:
            with pytest.raises((ValueError, ErgodynError)):
                _run(config)


def test_conjugation_mutant_is_caught_on_a_complex_state():
    # equivalent on the real panel only: with complex amplitudes the dropped
    # conjugation breaks the RK4 norm gate at t = 0
    amplitudes = "1,0.5j,0,0.2,0,0,0,(0.3-0.1j),0,0,0,0,0,0,0.1j,0"
    cfg = load_config(None, {**PANEL["custom-3-3"], "amplitudes": amplitudes})
    run_scenario(cfg, strict=True)
    with MUTANTS["row-sum-conj"](), pytest.raises(RefinementError):
        run_scenario(cfg, strict=True)


def test_listed_pairs_are_panel_pairs():
    assert set(EQUIVALENT) | set(MISSED) <= {(m, c) for m in MUTANTS for c in PANEL}
    assert not set(EQUIVALENT) & set(MISSED)
