"""ergodyn benchmark: seeded workloads, verified outputs, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced and
untraced passes alternately and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.

The load is a closed loop: one process runs the tasks back to back.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

#: passes a run makes per 30 s of --seconds.  Fixed work keeps every sample
#: count and percentile rank the same on the commits that are compared.
#: large-dim's long BLAS-bound tasks are steady in one pass; long-grid's
#: short pure-Python tasks need the most passes for a steady median.  On a
#: busy 2-core x86-64 machine a run took 40-47 s, 14-18 s and 31-42 s.
PASSES_PER_30_S = {"scenario-defaults": 4, "large-dim": 1, "long-grid": 8}

#: fresh processes timed for ``setup_s``
SETUP_PROBES = 5

#: samples that must lie beyond the reported tail sample
TAIL_BEYOND = 10

#: run artefacts (scratch files, results) go here, inside the checkout
OUT_DIR = ".perfbench_out"

#: layers whose call counts ``--trace 1`` reports
COUNTED_LAYERS = ("dynamics.rk4", "dynamics.exponential", "linalg.eigh",
                  "linalg.eigvalsh")


def tail_sample(samples, beyond: int = TAIL_BEYOND):
    """Highest-percentile sample with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``.  With ``beyond`` or fewer
    samples no percentile qualifies and the maximum is returned as p100.
    """
    ordered = sorted(samples)
    count = len(ordered)
    index = count - 1 - beyond if count > beyond else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def passes_for(workload: str, seconds: int) -> int:
    return max(1, int(PASSES_PER_30_S[workload] * seconds / 30 + 0.5))


def blas_context() -> dict:
    """BLAS library name and the thread count it runs with."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def run_context(seed: int, tasks: list) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "inputs_sha256": workloads.digest(tasks),
        "nproc": len(os.sched_getaffinity(0)),
        **blas_context(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def measure_setup(src: Path, workload: str, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _cli_argv(task: dict, scratch: Path) -> list[str]:
    argv = [task["command"]] + [f"--{k}={v}" for k, v in task["overrides"].items()]
    if task["command"] == "sweep":
        return argv + ["--parameter=theta", "--values=" + ",".join(task["values"]),
                       f"--out={scratch / 'sweep.csv'}"]
    return argv + [f"--csv={scratch / 'series.csv'}", f"--json={scratch / 'summary.json'}"]


def execute(task: dict, scratch: Path):
    """The timed part of one task: exactly what a user's call does."""
    from ergodyn import cli, scenarios

    if task["kind"] == "scenario":
        cfg = scenarios.load_config(None, task["overrides"])
        return scenarios.run_scenario(cfg, strict=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(_cli_argv(task, scratch))
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}: {sink.getvalue().strip()[-400:]}")
    return None


#: marks an output identical to the first verified output of its task
SAME = "same as the first output"


def same_series(a: dict, b: dict) -> bool:
    import numpy as np

    return (np.array_equal(a["times"], b["times"])
            and a["channels"].keys() == b["channels"].keys()
            and all(np.array_equal(v, b["channels"][k]) for k, v in a["channels"].items())
            and a["summary"] == b["summary"])


def capture(task: dict, result, scratch: Path, first):
    """Untimed: the task's output, and the CSV bytes it wrote.

    The output is ``SAME`` when it equals ``first``, the task's first
    output (files byte for byte, in-memory series value for value);
    otherwise it is read back into arrays for the verifier.
    """
    import numpy as np

    if task["kind"] == "scenario":
        series, summary = result
        out = {"times": series.times, "channels": dict(series.channels),
               "summary": summary}
        return (SAME if first is not None and same_series(out, first) else out), 0
    if task["command"] == "sweep":
        paths = [scratch / "sweep.csv"]
    else:
        paths = [scratch / "series.csv", scratch / "summary.json"]
    raw = [path.read_bytes() for path in paths]
    for path in paths:
        path.unlink()
    csv_bytes = len(raw[0])
    digest = hashlib.sha256(b"\0".join(raw)).hexdigest()
    if first is not None and first["sha256"] == digest:
        return SAME, csv_bytes
    lines = raw[0].decode("utf-8").splitlines()
    names = lines[0].split(",")
    if task["command"] == "sweep":
        rows = [{n: (float(c) if c else None) for n, c in zip(names, line.split(","))}
                for line in lines[1:]]
        return {"rows": rows, "sha256": digest}, csv_bytes
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {
        "times": data[:, 0],
        "channels": {name: data[:, i + 1] for i, name in enumerate(names[1:])},
        "summary": json.loads(raw[1]),
        "sha256": digest,
    }, csv_bytes


def run_pass(tasks: list, scratch: Path, kept: list, tracer=None) -> dict:
    """Run the task list once.

    ``kept`` holds the first output of each task.  A later output equal to
    it is stored as ``SAME`` and verified through it, so one pass's outputs
    are held in memory, not all of them.
    """
    from spans import Recorder

    recorder = None
    if tracer is not None:
        recorder = Recorder()
        tracer.install()
        tracer.recorder = recorder
    record = {"traced": tracer is not None, "durations": [], "outputs": [],
              "errors": [], "csv_bytes": 0, "recorder": recorder}
    try:
        for k, task in enumerate(tasks):
            result, error, out = None, None, None
            start = time.perf_counter()
            try:
                result = execute(task, scratch)
            except Exception as exc:  # a failed task is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            record["durations"].append(time.perf_counter() - start)
            if error is None:
                if tracer is not None:
                    tracer.recorder = None
                try:
                    out, csv_bytes = capture(task, result, scratch, kept[k])
                    record["csv_bytes"] += csv_bytes
                    if kept[k] is None:
                        kept[k] = out
                except Exception as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
                if tracer is not None:
                    tracer.recorder = recorder
            record["outputs"].append(out)
            record["errors"].append(error)
    finally:
        if tracer is not None:
            tracer.recorder = None
            tracer.restore()
    return record


def verify_outputs(tasks: list, passes: list) -> list[list]:
    """Problems per pass and task; references are built once per task."""
    import verify
    from ergodyn.scenarios import TOL_ANALYTIC

    problems = [[[] if err is None else [err] for err in p["errors"]] for p in passes]
    for k, task in enumerate(tasks):
        outputs = [(i, p["outputs"][k]) for i, p in enumerate(passes)
                   if p["outputs"][k] not in (None, SAME)]
        if not outputs:
            continue
        try:
            if "rows" in outputs[0][1]:
                for i, out in outputs:
                    problems[i][k] += verify.check_sweep(
                        out["rows"], task["overrides"], task["values"], TOL_ANALYTIC)
            else:
                ref_times, ref = verify.reference(task["overrides"])
                for i, out in outputs:
                    problems[i][k] += verify.check_series(
                        out["times"], out["channels"], out["summary"], ref_times, ref)
        except Exception as exc:
            for i, _ in outputs:
                problems[i][k].append(f"verifier error: {type(exc).__name__}: {exc}")
        first = problems[outputs[0][0]][k]
        for p, per_pass in zip(passes, problems):
            if p["outputs"][k] is SAME:
                per_pass[k] += first
    return problems


def layer_metrics(recorder, wall: float) -> dict:
    """Per-layer numbers of one traced pass."""
    from spans import LAYERS, layer_totals

    totals = layer_totals(recorder.spans)
    out = {f"{layer}.self_s": totals.get(layer, (0.0, 0))[0] for layer in LAYERS}
    out["trace.unattributed_s"] = wall - sum(out.values())
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = totals.get(layer, (0.0, 0))[1]
    digests = recorder.eigh_digests
    out["linalg.eigh.distinct_ratio"] = len(set(digests)) / len(digests) if digests else 0.0
    out["linalg.flops_est"] = recorder.flops
    for layer in ("fock", "passive"):
        out[f"{layer}.alloc_bytes"] = recorder.alloc_bytes.get(layer, 0)
    return out


def traced_metrics(passes: list, walls: list, tasks: list, kept: list) -> dict:
    """``--trace 1`` metrics: means over the traced passes, plus sizes."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [layer_metrics(p["recorder"], sum(p["durations"])) for p in traced]
    out = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    traced_walls = [sum(p["durations"]) for p in traced]
    out["trace.wall_s"] = statistics.fmean(traced_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    csv_bytes = traced[0]["csv_bytes"]
    out["emit.csv_bytes"] = csv_bytes
    emit_s = out["emit.self_s"]
    out["emit.bytes_per_s"] = csv_bytes / emit_s if emit_s > 0 else 0.0
    series = [o for o in kept if o is not None and "summary" in o]
    out["size.dimension_max"] = max((o["summary"]["dimension"] for o in series), default=0)
    out["size.time_samples"] = sum(workloads.time_samples(t) for t in tasks)
    out["size.channels"] = sum(len(o["channels"]) for o in series)
    return out


def declared_units(root: Path, key: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares under ``key``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ergodyn" / "__init__.py").is_file():
        print(f"no ergodyn sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tasks = workloads.build(args.workload, args.seed)

    setup_samples = measure_setup(src, args.workload, args.seed)
    import ergodyn
    from ergodyn import scenarios

    if not Path(ergodyn.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ergodyn was imported from {ergodyn.__file__}, not {src}", file=sys.stderr)
        return 2
    # warm-up outside the timed region: lazy imports, BLAS thread start-up;
    # a failure here shows again, and is counted, in the tasks
    try:
        scenarios.run_scenario(scenarios.load_config(None, {"engine": "exponential"}))
    except Exception:
        pass

    planned = passes_for(args.workload, args.seconds)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        planned = max(2, planned)
    (root / OUT_DIR).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=root / OUT_DIR))
    passes, kept = [], [None] * len(tasks)
    try:
        for i in range(planned):
            traced = tracer is not None and i % 2 == 1
            passes.append(run_pass(tasks, scratch, kept, tracer if traced else None))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = verify_outputs(tasks, passes)
    attempted = sum(len(p["durations"]) for p in passes)
    failed = sum(1 for per_pass in problems for probs in per_pass if probs)

    untraced = [p for p in passes if not p["traced"]]
    walls = [sum(p["durations"]) for p in untraced]
    task_times = [d for p in untraced for d in p["durations"]]
    tail, tail_pct, tail_n = tail_sample(task_times)

    report = {
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(task_times),
        "task_tail_s": tail,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = traced_metrics(passes, walls, tasks, kept) if tracer else report
    units = declared_units(root, "per_layer" if tracer else "end_to_end")
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {metrics.keys() ^ units.keys()}")
    e2e_units = declared_units(root, "end_to_end")

    context = run_context(args.seed, tasks)
    print(f"workload {args.workload}: {len(tasks)} tasks x {planned} passes "
          f"({len(untraced)} untraced), trace {args.trace}")
    print("pass walls (s): " + " ".join(
        f"{sum(p['durations']):.4f}{'*' if p['traced'] else ''}" for p in passes))
    print("context " + json.dumps(context, sort_keys=True))
    for name, value in report.items():
        print(f"  {name:<30} {value:.6g} {e2e_units[name]}")
    print(f"  {'fail_ratio':<30} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} tasks failed)")
    print(f"  task_tail_s is p{tail_pct:.1f} of {tail_n} task samples"
          + ("" if tail_n > TAIL_BEYOND else "; too few samples for 10 beyond, so the maximum"))
    if tracer is not None:
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g} {units[name]}")
        if tracer.absent_layers:
            print("  absent layers: " + ", ".join(tracer.absent_layers))
        if tracer.missing_names:
            print("  names no longer defined: " + ", ".join(tracer.missing_names))
    for i, per_pass in enumerate(problems):
        for task, probs in zip(tasks, per_pass):
            for problem in probs[:5]:
                print(f"  FAIL pass {i} {task['name']}: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, context=context, workload=args.workload, passes=planned,
                  fail_ratio=failed / attempted, setup_samples=setup_samples,
                  task_tail={"percentile": tail_pct, "samples": tail_n},
                  pass_durations=[p["durations"] for p in passes],
                  pass_traced=[p["traced"] for p in passes],
                  end_to_end=report)
    if tracer is not None:
        record["absent_layers"] = tracer.absent_layers
    out_file = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
