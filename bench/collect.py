"""Run the benchmark over several seeds and save the output of every run.

    python3 bench/collect.py --out runs --seeds 1-10 --seconds 15
    python3 bench/collect.py --out runs --tree parent=../parent --tree change=. --seeds 1-10

Each run is ``bench/run.py`` of this copy of the benchmark, started with
the tree as working directory, so every tree is measured by the same
benchmark code.  With several trees, the tree that runs first alternates
from seed to seed.  Output goes to OUT/<tree>/<workload>-trace<T>-seed<S>.txt.
Afterwards the script prints, per tree, workload and end-to-end metric, the
median and the spread (interquartile range over median) next to the
metric's bound.  Runs go one at a time; each is waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def last_json(path: Path) -> dict | None:
    lines = path.read_text().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def spread(values):
    """(median, interquartile range over median) of a list of values."""
    middle = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / middle if middle else float("inf")


def summarize(directory: Path, trace: int):
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [last_json(p) for p in sorted(directory.glob(f"{workload}-trace{trace}-seed*.txt"))]
        runs = [r for r in runs if r is not None]
        if not runs:
            continue
        failed = sum(r["failed"] for r in runs)
        print(f"{directory.name} {workload}: {len(runs)} runs, {failed} failed operations")
        if trace or len(runs) < 2:
            continue
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            middle, share = spread(values)
            print(f"  {metric['name']:16s} median {middle:12.4f} {metric['unit']:6s} "
                  f"spread {share:7.4f}  bound {metric['bound']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tree", action="append", default=[], help="NAME=PATH (default: this=.)")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trees = [entry.split("=", 1) for entry in (args.tree or ["this=."])]
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    for seed in seed_range(args.seeds):
        order = trees if seed % 2 else trees[::-1]
        for workload in workloads:
            for name, tree in order:
                target = args.out / name
                target.mkdir(parents=True, exist_ok=True)
                out = target / f"{workload}-trace{args.trace}-seed{seed}.txt"
                command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
                with out.open("w") as handle:
                    done = subprocess.run(command, cwd=tree, stdout=handle, stderr=subprocess.STDOUT)
                print(f"{name} {workload} seed {seed}: exit {done.returncode}", flush=True)
    for name, _ in trees:
        summarize(args.out / name, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
