#!/usr/bin/env python3
"""Wall-clock benchmark of the dbDedup reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload wiki-ingest --seed 1 --seconds 20 --trace 0

Workloads: ``wiki-ingest``, ``wiki-history``, ``oltp-mixed`` (see
``perfbench/workloads.py``). All inputs are generated from ``--seed``
before the clock starts; one client drives the cluster closed-loop
through ``repro.api``, in one process and one thread, repeating the
workload on fresh clusters until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (medians over repetitions)
and also replays one repetition in a child process under another
``PYTHONHASHSEED`` to check the simulated figures repeat exactly.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics of the traced ones, and writes the spans of the last
traced repetition to ``.perfbench/spans-<workload>.json``.

A readable report comes first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the metric names and units are those listed in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
#: The ROADMAP's coverage bar: layers must explain >= 90% of traced wall.
MAX_UNATTRIBUTED_SHARE = 0.10
#: Units of the end-to-end figures the report prints beyond those listed
#: in BENCHMARK.json; latency figures (``*_ms``) are in ms.
REPORT_UNITS = {
    "ingest_mb_s": "MB/s",
    "ops_s": "ops/s",
    "storage_ratio": "x",
    "network_ratio": "x",
    "sim_ops_s": "ops/simulated-s",
    "fail_ratio": "failed/attempted",
}
#: The PYTHONHASHSEED replay uses a quarter-size plan: every code path
#: runs, at a fraction of a full repetition's time.
FINGERPRINT_SCALE = 0.25
FINGERPRINT_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fingerprint", action="store_true",
        help="run one repetition and print only its simulated figures",
    )
    return parser.parse_args(argv)


def _hashseed_problem(args, fingerprint) -> str | None:
    """Replay the quarter-size plan under another PYTHONHASHSEED; compare."""
    alternative = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--fingerprint",
    ]
    try:
        child = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": alternative},
            timeout=FINGERPRINT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"PYTHONHASHSEED={alternative} replay timed out"
    if child.returncode != 0:
        return f"PYTHONHASHSEED={alternative} replay failed:\n{child.stderr}"
    theirs = tuple(json.loads(child.stdout.splitlines()[-1])["fingerprint"])
    if theirs != fingerprint:
        return (
            f"simulated figures differ under PYTHONHASHSEED={alternative}: "
            f"{theirs} vs {fingerprint}"
        )
    return None


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report_end_to_end(result, metrics, units) -> None:
    print(f"  {'setup_s':<16} {_fmt(metrics['setup_s'])} s"
          f"  (median of {len(result.setup_samples)} set-ups)")
    samples = result.latency_samples()
    for name, value in metrics.items():
        if name == "setup_s":
            continue
        note = ""
        kind, _, stat = name.partition("_")
        if kind in samples and stat in ("p50_ms", "tail_ms"):
            n, p = samples[kind]
            note = f"  (n={n} per rep" + (f", p{p})" if stat == "tail_ms" else ")")
        unit = units.get(name) or REPORT_UNITS.get(name, "ms")
        print(f"  {name:<16} {_fmt(value)} {unit}{note}")
    for kind, (n, p) in samples.items():
        if p is None:
            print(f"  {kind}_tail_ms     n/a  (n={n} per rep: not even p90 leaves "
                  "10 samples beyond)")


def _report_layers(result, metrics, workload) -> list[str]:
    from perfbench import spans

    wall = metrics["obs.traced_wall_s"]
    print(f"  traced wall {_fmt(wall)} s, tracing overhead "
          f"{metrics['obs.trace_overhead_ratio']:+.1%} (median of "
          f"{len(result.traced)} traced vs {len(result.reps)} untraced reps)")
    print("  self time by layer (share of traced wall):")
    for layer in spans.LAYERS:
        own = metrics[f"{layer}.self_s"]
        print(f"    {layer:<12} {_fmt(own):>10} s  {own / wall:6.1%}")
    unattributed = metrics["unattributed_s"]
    print(f"    {'unattributed':<12} {_fmt(unattributed):>10} s  "
          f"{unattributed / wall:6.1%}")
    for name, value in metrics.items():
        if not name.endswith(".self_s"):
            print(f"  {name:<28} {_fmt(value)}")
    flags = []
    if unattributed > MAX_UNATTRIBUTED_SHARE * wall:
        flags.append(
            f"{workload}: unattributed_s is {unattributed / wall:.1%} of traced "
            f"wall (> {MAX_UNATTRIBUTED_SHARE:.0%} coverage bar)"
        )
    return flags


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.fingerprint:
        small = workloads.make_plan(args.workload, args.seed, FINGERPRINT_SCALE)
        print(json.dumps({"fingerprint": harness.run_rep(small).fingerprint}))
        return 0
    start = time.perf_counter()
    plan = workloads.make_plan(args.workload, args.seed)
    generation_s = time.perf_counter() - start

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in definition[section]}

    result = harness.measure(plan, args.seconds, bool(args.trace))
    problems = result.problems()
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(result.reps) + len(result.traced)} repetitions in "
          f"{result.measure_s:.1f} s; generation {generation_s:.2f} s "
          "(before the clock, in no metric)")
    if args.trace:
        metrics = result.per_layer()
        flags = _report_layers(result, metrics, args.workload)
        last = result.traced[-1]
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "wall_ns": last.wall_ns,
            "metrics": last.layers,
            **last.recorder.to_json(last.origin_ns),
        }))
        print(f"  spans: {spans_path.relative_to(ROOT)} "
              f"({len(last.recorder.starts)} spans)")
        for flag in flags:
            print(f"FLAG {flag}")
    else:
        metrics = result.end_to_end()
        _report_end_to_end(result, metrics, units)
        small = workloads.make_plan(args.workload, args.seed, FINGERPRINT_SCALE)
        problem = _hashseed_problem(args, harness.run_rep(small).fingerprint)
        if problem:
            problems.append(problem)
    for problem in problems:
        print(f"FAIL {problem}")

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: {args.workload} did not produce {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
