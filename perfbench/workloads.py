"""Seeded task lists for the benchmark workloads.

Only the standard library is used here, so a set-up probe can build every
input before it starts timing the package import.  A seed draws angles and
amplitudes only; occupations, cutoffs and step counts are fixed, so every
seed asks the program for the same amount of work.

A task is a plain dict:

``{"name": str, "kind": "scenario", "overrides": {key: text}}``
    one ``load_config`` plus ``run_scenario`` call, in process;
``{"name": str, "kind": "cli", "command": "compare" | "sweep",
  "overrides": {key: text}, "values": [text, ...]}``
    one in-process ``cli.main`` call that writes its files to a scratch
    directory (``values`` only for ``sweep``, which sweeps ``theta``).

Every override value is the text a user would type, as in a config file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: the eight scenarios that have a closed form, at their default sizes
CLOSED_FORM_SCENARIOS = (
    "single-mode-superposition",
    "single-eigenstate",
    "two-mode-separable",
    "multimode-product",
    "entangled-noon",
    "moon-degenerate",
    "moon-perturbative",
    "gravitational-mzi",
)

#: samples per series on the long-grid workload
LONG_GRID_STEPS = 20001

#: flat indices of the 8-term state on the 11 x 11 x 11 register: the
#: vacuum plus seven fixed occupations, so the support never depends on the seed
SPARSE_SUPPORT_1331 = (0, 1, 11, 121, 133, 376, 665, 1330)


def _angle(rng: random.Random, low: float, high: float) -> str:
    return repr(rng.uniform(low, high))


def _amplitudes(rng: random.Random, dimension: int, support) -> str:
    """Comma-separated complex amplitudes, nonzero exactly on ``support``.

    Magnitudes lie in [0.2, 1], so no drawn entry falls under the program's
    1e-12 support threshold and the channel count is fixed.
    """
    values = ["0j"] * dimension
    for k in support:
        radius = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        values[k] = repr(complex(radius * math.cos(phase), radius * math.sin(phase)))
    return ",".join(values)


def _closed_form_angles(rng: random.Random, scenario: str) -> dict:
    """Seeded angles for the scenarios that take one.

    theta stays in [0.4, 1.5] so the single-mode oscillation rate is at
    least the mode frequency and the RK4 step count does not grow with the
    draw (rounding still moves it between 8 and 9 substeps per sample, under
    0.5% of a scenario-defaults pass); phi stays away from the endpoints
    where an arm empties.
    """
    if scenario == "single-mode-superposition":
        return {"theta": _angle(rng, 0.4, 1.5)}
    if scenario in ("moon-degenerate", "moon-perturbative"):
        return {"phi": _angle(rng, 0.3, 1.2)}
    return {}


def scenario_defaults(seed: int) -> list[dict]:
    rng = random.Random(seed)
    tasks = []
    for scenario in CLOSED_FORM_SCENARIOS:
        overrides = {"scenario": scenario, "engine": "all"}
        overrides.update(_closed_form_angles(rng, scenario))
        tasks.append({"name": scenario, "kind": "scenario", "overrides": overrides})
    return tasks


def large_dim(seed: int) -> list[dict]:
    rng = random.Random(seed)
    exp = {"engine": "exponential", "steps": "501"}
    return [
        {
            "name": "multimode-product-343",
            "kind": "scenario",
            "overrides": {"scenario": "multimode-product", "ns": "1,2,3",
                          "cutoffs": "6,6,6", **exp},
        },
        {
            "name": "multimode-product-1331",
            "kind": "scenario",
            "overrides": {"scenario": "multimode-product", "ns": "1,2,3",
                          "cutoffs": "10,10,10", **exp},
        },
        {
            # one dense projector per support entry: O(N^3) memory in N
            "name": "custom-state-full-216",
            "kind": "scenario",
            "overrides": {"scenario": "custom-state", "cutoffs": "5,5,5",
                          "omega": "1.0,1.3,1.7",
                          "amplitudes": _amplitudes(rng, 216, range(216)), **exp},
        },
        {
            "name": "custom-state-sparse-1331",
            "kind": "scenario",
            "overrides": {"scenario": "custom-state", "cutoffs": "10,10,10",
                          "omega": "1.0,1.3,1.7",
                          "amplitudes": _amplitudes(rng, 1331, SPARSE_SUPPORT_1331),
                          **exp},
        },
    ]


def long_grid(seed: int) -> list[dict]:
    rng = random.Random(seed)
    grid = {"engine": "exponential", "steps": str(LONG_GRID_STEPS)}
    tasks = []
    for scenario in CLOSED_FORM_SCENARIOS:
        overrides = {"scenario": scenario, **grid}
        overrides.update(_closed_form_angles(rng, scenario))
        tasks.append({"name": scenario, "kind": "cli", "command": "compare",
                      "overrides": overrides})
    tasks.append({
        "name": "custom-state",
        "kind": "cli",
        "command": "compare",
        "overrides": {"scenario": "custom-state", "cutoffs": "2,2",
                      "omega": "1.0,1.4",
                      "amplitudes": _amplitudes(rng, 9, range(9)), **grid},
    })
    tasks.append({
        "name": "sweep-theta",
        "kind": "cli",
        "command": "sweep",
        "overrides": {"scenario": "single-mode-superposition", "n": "3",
                      "omega": "1.0", **grid},
        "values": sorted(_angle(rng, 0.4, 1.5) for _ in range(5)),
    })
    return tasks


#: workload name -> function that draws its task list from a seed
WORKLOADS = {
    "scenario-defaults": scenario_defaults,
    "large-dim": large_dim,
    "long-grid": long_grid,
}


def build(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise KeyError(
            f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    return WORKLOADS[workload](seed)


def digest(tasks: list[dict]) -> str:
    """SHA-256 of the canonical JSON form of a task list."""
    text = json.dumps(tasks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_overrides(task: dict) -> list[dict]:
    """Every override set the task hands to ``load_config``, one per run."""
    if task.get("command") == "sweep":
        return [dict(task["overrides"], theta=v) for v in task["values"]]
    if task.get("command") == "compare":
        return [dict(task["overrides"], comparison="true")]
    return [dict(task["overrides"])]


def time_samples(task: dict) -> int:
    """Grid samples the task asks for over all of its scenario runs."""
    steps = int(task["overrides"].get("steps", "501"))
    return steps * len(config_overrides(task))
