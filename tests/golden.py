"""Golden-output manifest: the digested output bytes of a panel of commands.

Each command of :data:`COMMANDS` runs in process through ``ergodyn.cli.main``,
with the series CSV and the summary JSON written to a scratch directory.
``golden.json`` next to this file records, per command, the exit code, a
sha256 per CSV column and per JSON key, a sha256 each of stdout and stderr,
and the numpy warnings raised; and once, the context the bytes depend on
(the numpy version and the BLAS).  ``test_golden.py`` runs the panel and
compares it with the manifest.  Per-column digests name the columns that
moved.

Rewrite the manifest (from the package on the path) with

    PYTHONPATH=src python tests/golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from ergodyn.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

CLOSED_FORMS = (
    "single-mode-superposition", "single-eigenstate", "two-mode-separable",
    "multimode-product", "entangled-noon", "moon-degenerate",
    "moon-perturbative", "gravitational-mzi",
)

#: the complex 3,3 custom state of the mutation panel
COMPLEX_3_3 = (
    "--scenario custom-state --cutoffs 3,3 --omega 1.0,1.4 "
    "--amplitudes 1,0.5j,0,0.2,0,0,0,(0.3-0.1j),0,0,0,0,0,0,0.1j,0"
)

#: refusals (exit 2) and engine disagreements (exit 3) named in CHANGES.md
#: and ROADMAP.md that end in well under 0.2 s
REFUSALS = (
    "run --steps 100000000 --engine analytic",
    "run --steps 1",
    "run --scenario no-such-scenario",
    "run --engine no-such-engine",
    "run --t_max -1",
    "run --scenario moon-perturbative --eps -1",
    "run --scenario moon-perturbative --eps 0.5",
    "run --scenario moon-perturbative --omega_a 0",
    "run --scenario entangled-noon --theta 2.5",
    "run --scenario entangled-noon --m 0",
    "run --scenario two-mode-separable --m 0",
    "run --scenario two-mode-separable --E0 1",
    "run --scenario single-eigenstate --theta 0.3",
    "run --scenario single-eigenstate --E0 1e6",
    "run --scenario single-eigenstate --E0 1e308 --engine exponential",
    "run --scenario moon-degenerate --M 0",
    "run --scenario moon-degenerate --N 0",
    "run --scenario moon-degenerate --omega_b -0.5",
    "run --scenario gravitational-mzi --r_S -1",
    "run --scenario gravitational-mzi --L 0",
    "run --scenario gravitational-mzi --omega_0 1e-310",
    "run --omega 0",
    "run --omega 1,2",
    "run --omega 1e-320",
    "run --cutoffs 0",
    "run --cutoffs 5,3",
    "run --E0 5",
    "run --E0 1e308",
    "run --E0=1e300 --engine exponential",
    "run --E0=-1e308",
    "run --omega 1e308 --n 3 --engine exponential",
    "run --t_max 1e308 --steps 3 --engine exponential",
    "run --n 3000000 --steps 2 --t_max 1e303",
    "run --t_max 1e18 --steps 3",
    "run --t_max 1e300 --steps 3",
    "run --engine rk4 --t_max 1e300 --steps 3",
    "run --engine rk4 --t_max 1e6 --steps 2",
    "run --omega 1e300 --n 1 --t_max 1e6 --steps 2",
    "run --scenario two-mode-separable --omega_b 1e-306 --steps 3",
    "run --scenario custom-state --cutoffs 2 --omega 1 --amplitudes 1,1,1 --E0 1.5",
    "run --scenario custom-state --cutoffs 3 --omega 1 --amplitudes 0,0,0,0",
    "run --scenario custom-state --cutoffs 3 --omega 1 --amplitudes 1,2",
    "run --engine analytic " + COMPLEX_3_3,
    "run --scenario two-mode-separable --omega_a 1e6",
    "run --scenario two-mode-separable --omega_a 1e7",
    "run --scenario gravitational-mzi --omega_0 1e-300",
    "run --scenario gravitational-mzi --L 1e6",
    "run --scenario moon-perturbative --M 3",
    "run --scenario moon-perturbative --omega_b 1.5",
    "run --scenario gravitational-mzi --r_S 1e12",
    "run --scenario multimode-product --base_omega 0",
    "run --scenario gravitational-mzi --r_E 1e190",
    "run --scenario gravitational-mzi --r_E 1e155 --r_S 1e300 --L 1e150 --steps 3",
    "run --scenario single-mode-superposition --cutoffs 2 --n 3",
)

#: valid runs down branches that no other command of the panel takes: a
#: frozen factor (theta = 0), two reachable basis states in p_other, a
#: periodic product register, and a grid of subnormal spacing
BRANCHES = (
    "compare --scenario custom-state --cutoffs 2 --omega 1 --amplitudes 1,0,0",
    "compare --scenario custom-state --cutoffs 3 --omega 1 --amplitudes 1,1e-13,1e-13,1",
    "run --scenario multimode-product --omega 1,3,5 --base_omega 0.7071067811865476",
    "run --t_max 1e-320 --steps 11",
)

#: the command lines, in manifest order; each runs as ``main(line.split())``
COMMANDS = (
    *(f"run --scenario {name} --engine {engine}"
      for name in CLOSED_FORMS for engine in ("analytic", "exponential", "rk4", "all")),
    *(f"compare --scenario {name} --engine all" for name in CLOSED_FORMS),
    "compare " + COMPLEX_3_3,
    *REFUSALS,
    *BRANCHES,
    "run --engine rk4 --steps 20001",
    "run --scenario multimode-product --engine rk4 --steps 20001",
    "compare --scenario multimode-product --engine exponential --steps 20001",
    "compare --engine exponential --steps 20001 " + COMPLEX_3_3,
)


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def context() -> dict:
    """What the bytes depend on besides the program: numpy and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _csv_digests(path):
    """sha256 of each column's cells joined by newlines, in header order."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        header, *lines = fh.read().decode("utf-8").split("\n")
    assert lines[-1] == "", "a series CSV ends with a newline"
    cells = zip(*(line.split(",") for line in lines[:-1]))
    return dict(zip(header.split(","), ("\n".join(col) for col in cells)))


def record(argv) -> dict:
    """Exit code and digests of one command's outputs."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv, summary = os.path.join(tmp, "s.csv"), os.path.join(tmp, "s.json")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--csv", csv, "--json", summary])
        columns = _csv_digests(csv)
        keys = None
        if os.path.exists(summary):
            with open(summary, encoding="utf-8") as fh:
                keys = json.load(fh)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue()),
        "stderr": _sha(err.getvalue()),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "csv": None if columns is None else {k: _sha(v) for k, v in columns.items()},
        "json": None if keys is None else {
            k: _sha(json.dumps(v, sort_keys=True)) for k, v in keys.items()
        },
    }


def load() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def write() -> None:
    manifest = {
        "context": context(),
        "commands": {line: record(line.split()) for line in COMMANDS},
    }
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    write()
