"""Paper-workload benchmark: one command, every workload, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py                      # every workload, tables
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the run prints a human-readable block, a ``detail:``
line (sample counts, the named tail percentile, the decision digest)
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
every workload runs once untraced and once traced, each in its own
process, one after another, and the end-to-end table, the per-layer
table (each metric labelled with the end-to-end metric it should move)
and the tracing overhead are printed.

Exit status: 0 when every check passed; 1 on a digest or consistency
mismatch; 2 when the program under test is missing or an argument is
bad; 3 when the compiled kernels cannot be built.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5

# One thread per workload process: numpy's BLAS pool would otherwise
# start worker threads at import, whose spinning shows in CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(ROOT))

from perfbench.calibrate import REFERENCE_CALL_S  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _fail(code: int, message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(2, f"the program is missing: no {SRC / 'repro'} package")


def _load_program(workload) -> None:
    """Make ``repro`` importable and pin the workload's kernel backend."""
    _require_program()
    if workload.backend == "c":
        from perfbench import ckernels

        try:
            shared = ckernels.build(SRC / "repro" / "_kernels" / "_ckernels.c", OUT)
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            _fail(3, f"cannot build the compiled kernels: {exc}")
        ckernels.install_finder(shared)
    sys.path.insert(0, str(SRC))
    from repro import _kernels

    try:
        _kernels.use_backend(workload.backend)
    except RuntimeError as exc:
        _fail(3, str(exc))
    if _kernels.kernels_info()["backend"] != workload.backend:
        _fail(3, f"kernel backend {_kernels.kernels_info()} is not {workload.backend}")


def _setup_seconds(workload, seed: int) -> list[float]:
    """CPU time from process start to the first arrival, per fresh process.

    Each probe is a new interpreter that imports the program, builds the
    workload's inputs and state, reports ``ready`` with the CPU time it
    has used since it started (interpreter start-up included) and the
    host's reference-call time, and exits.  Returned in reference
    seconds (see :mod:`perfbench.calibrate`).
    """
    times = []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload.name,
        "--seed", str(seed),
        "--setup-probe",
    ]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=120)
        said = proc.stdout.split()
        if proc.returncode != 0 or len(said) != 3 or said[0] != "ready":
            _fail(1, f"set-up probe failed (exit {proc.returncode}): {proc.stderr}")
        setup, reference = float(said[1]), float(said[2])
        times.append(setup * REFERENCE_CALL_S / reference)
    return times


def _print_single(result: dict, traced: bool, setup: list[float] | None) -> None:
    from perfbench.measure import END_TO_END, LAYER_METRICS

    detail = result["detail"]
    metrics = result["metrics"]
    mode = "traced" if traced else "untraced"
    print(
        f"perfbench {detail['workload']} seed={detail['seed']} "
        f"backend={detail['backend']} reps={detail['reps']} "
        f"arrivals/rep={detail['arrivals_per_rep']} ({mode})"
    )
    if traced:
        for name, unit, _, moves in LAYER_METRICS:
            print(f"  {name:42s} {metrics[name]:>16.4f} {unit:6s} moves: {moves}")
        for name, value in sorted(detail["extra_obs_counters"].items()):
            print(f"  obs.{name:38s} {value:>16} count  (not in the metric set)")
    else:
        notes = {
            "place_p50_ms": f"p50 of {detail['place_calls']} place calls",
            "place_p99_ms": (
                f"p{detail['tail_percentile']} of {detail['place_calls']} place calls; "
                f"max {detail['place_max_ms']:.3f} ms"
            ),
            "setup_s": f"median of {len(setup or ())} set-ups",
        }
        raw = detail["raw"]
        for name in raw:
            notes[name] = f"{notes.get(name, '')} (raw {raw[name]:.4f})".strip()
        for name, unit, _ in END_TO_END:
            print(f"  {name:16s} {metrics[name]:>14.4f} {unit:4s} {notes.get(name, '')}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")
    print("detail: " + json.dumps(detail, sort_keys=True))


def _result_json(result: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": not result["errors"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    _load_program(workload)
    from perfbench import measure
    from perfbench.calibrate import call_seconds
    from perfbench.tracer import Probe
    from perfbench.workloads import instantiate, prepare

    if args.setup_probe:
        instantiate(prepare(workload, seed), Probe())
        setup = time.process_time()
        print("ready", setup, call_seconds(), flush=True)
        return 0
    traced = bool(args.trace)
    setup = None if traced else _setup_seconds(workload, seed)
    trace_path = None
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}.json"  # latest traced run
    result = measure.run(
        prepare(workload, seed), seconds=args.seconds, traced=traced, trace_path=trace_path
    )
    if traced:
        units = {name: unit for name, unit, *_ in measure.LAYER_METRICS}
    else:
        units = {name: unit for name, unit, _ in measure.END_TO_END}
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["metrics"] = {name: result["metrics"][name] for name in units}
    _print_single(result, traced, setup)
    print(_result_json(result, units), flush=True)
    return 0 if not result["errors"] else 1


def _child(name: str, seed: int | None, seconds: float, trace: int) -> tuple[dict, dict, int]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seconds", str(seconds), "--trace", str(trace),
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("perfbench ") or "CHECK FAILED" in line:
            print(line)
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
    except (IndexError, StopIteration, json.JSONDecodeError):
        return {}, {}, proc.returncode or 1
    return result, detail, proc.returncode


def run_all(args) -> int:
    """Every workload untraced then traced, one process at a time."""
    from perfbench.measure import END_TO_END, LAYER_METRICS

    _require_program()
    gated = {w["name"] for w in _benchmark().get("workloads", ())}
    status = 0
    rows = []
    for name, workload in WORKLOADS.items():
        print(f"== {name}: {json.dumps(workload.identity())}", flush=True)
        print(f"   stresses {workload.stresses}", flush=True)
        plain, plain_detail, code = _child(name, args.seed, args.seconds, 0)
        traced, traced_detail, traced_code = _child(name, args.seed, args.seconds, 1)
        ok = (
            code == 0 and traced_code == 0
            and plain.get("correct") and traced.get("correct")
            and plain_detail.get("digest") == traced_detail.get("digest")
        )
        if not ok:
            status = 1
        rows.append((name, name in gated, plain, plain_detail, traced, traced_detail, ok))
    print()
    print("End-to-end (untraced runs)")
    header = f"  {'workload':20s} {'gated':5s} " + " ".join(
        f"{n + ' [' + u + ']':>22s}" for n, u, _ in END_TO_END
    ) + f" {'place_calls':>11s} {'tail':>4s} {'checks':>6s}"
    print(header)
    for name, is_gated, plain, detail, _, _, ok in rows:
        values = " ".join(
            f"{plain['metrics'][n]['value']:>22.4f}" if plain else f"{'-':>22s}"
            for n, _, _ in END_TO_END
        )
        print(
            f"  {name:20s} {'yes' if is_gated else 'no':5s} {values} "
            f"{detail.get('place_calls', '-'):>11} p{detail.get('tail_percentile', '-'):<3} "
            f"{'ok' if ok else 'FAIL':>6s}"
        )
    print()
    print("Per-layer (traced runs, per repetition); moves = end-to-end metric it should move")
    print(f"  {'metric':46s} " + " ".join(f"{r[0][:18]:>18s}" for r in rows) + "  moves")
    for metric, unit, _, moves in LAYER_METRICS:
        cells = " ".join(
            f"{r[4]['metrics'][metric]['value']:>18.3f}" if r[4] else f"{'-':>18s}"
            for r in rows
        )
        print(f"  {metric + ' [' + unit + ']':46s} {cells}  {moves}")
    print()
    print("Tracing overhead (untraced events_per_s / traced events_per_s)")
    for name, _, plain, _, traced, traced_detail, _ in rows:
        if plain and traced:
            base = plain["metrics"]["events_per_s"]["value"]
            slow = traced["metrics"]["trace.events_per_s"]["value"]
            print(
                f"  {name:20s} {base / slow:6.2f}x  backend={traced_detail['backend']}  "
                f"chrome trace: {traced_detail.get('chrome_trace')}"
            )
    return status


def _benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark().get("run_seconds", 20))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
