"""Standing end-to-end benchmark of the CQAds answer path.

One closed-loop client asks seeded questions through
``AnswerService.answer`` on the default ``SystemBuilder``
configuration (delta cache maintenance, adaptive access paths, the
columnar ranker, the fragment cache on, no answer cache) and, on the
churn workloads, writes to the ads table between questions.  The
workloads live in ``workload.py``; ``NOTES.md`` explains the metrics
and records findings.

    python3 perfbench/run.py --workload churn_cars --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --quick

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` replays
the same stream on a fresh build, layer by layer (``replay.py``), and
reports the per-layer metrics; its spans go to ``perfbench/out/``.
``--quick`` runs a few operations and checks the output schema and
every answer, but no timing.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _error(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (``None`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(args, *extra: str) -> list[str]:
    """This script's command line for another run with *extra* flags."""
    return [
        sys.executable, str(Path(__file__)), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        *(["--quick"] if args.quick else []), *extra,
    ]


def check_schema(result: dict, traced: bool) -> list[str]:
    """Problems with *result* against ``BENCHMARK.json`` (none is good)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if traced else "end_to_end"]
    }
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = {name: value.get("unit") for name, value in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics {got} != declared {wanted}")
    for name, value in result["metrics"].items():
        if not isinstance(value.get("value"), (int, float)):
            problems.append(f"{name} is not a number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive whole number")
    return problems


def run_one(args) -> int:
    import bench
    from workload import WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    if args.record:
        return bench.record(workload, args.seed, args.seconds, args.quick, Path(args.record))
    if args.trace:
        # The untraced pass runs in its own process, so that both
        # passes time the first system built in their process.
        record_path = OUT / f"record-{tag}.json"
        completed = subprocess.run(_child(args, "--record", str(record_path)))
        if completed.returncode != 0:
            _error(f"the untraced pass exited with {completed.returncode}")
            return 1
        outcome, tracer = bench.trace(
            workload, args.seed, json.loads(record_path.read_text()), args.quick
        )
        with open(OUT / f"spans-{tag}.jsonl", "w") as handle:
            for row in tracer.rows():
                handle.write(json.dumps(row) + "\n")
    else:
        outcome = bench.measure(workload, args.seed, args.seconds, args.quick)
    environment = {
        "workload": workload.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        **outcome["counts"],
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({"kinds": outcome["kinds"]}))
    if "unscaled" in outcome:
        print(json.dumps({"unscaled": outcome["unscaled"]}))
    if args.trace:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(
            {"environment": environment, "kinds": outcome["kinds"]}, indent=2
        ) + "\n")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    if args.quick:
        problems = check_schema(result, bool(args.trace))
        for problem in problems:
            _error(f"schema: {problem}")
        result["correct"] = result["correct"] and not problems
    print(json.dumps(result))
    return 0 if result["correct"] or not args.quick else 1


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process),
    printed as one table of metrics with their units."""
    from workload import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.quick else (args.trace,):
            args.workload = name
            completed = subprocess.run(
                _child(args, "--trace", str(trace)), capture_output=True, text=True
            )
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} (trace {trace}): exit {completed.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(
                f"{name} (trace {trace}): correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for metric, value in result["metrics"].items():
                print(f"  {metric:<34} {value['value']:>14.4f} {value['unit']}")
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few operations; check schema and answers, not timings")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        _error(f"the program's sources are missing under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workload import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        _error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
