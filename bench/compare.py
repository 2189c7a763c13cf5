"""Compare benchmark runs of a parent and of a change.

    python3 bench/compare.py runs/parent runs/change

Both directories hold run outputs as written by collect.py.  For each
workload and end-to-end metric the verdict is, with the bound from
BENCHMARK.json:

  improved    the change wins at least 9 of every 10 pairs (same seed),
              with at least 10 pairs, and the medians differ by more than
              the interquartile range of the parent's runs;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, unless every run of the change reads
              better than every run of the parent;
  unchanged   otherwise.

It also compares the share of failed operations, and flags any change in
the verification counts of the traced runs (``algebra.identities_checked``
and ``*.certs_verified``): speed may not come from checking less.  The
exit code is 1 when a metric got worse or more operations failed.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RUN_NAME = re.compile(r"(?P<workload>.+)-trace(?P<trace>[01])-seed(?P<seed>-?\d+)\.txt$")
VERIFICATION_COUNTS = re.compile(r"^(algebra\.identities_checked|.*\.certs_verified)$")


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: result}} from the files of one side."""
    runs: dict = {}
    for path in sorted(directory.glob("*.txt")):
        match = RUN_NAME.match(path.name)
        lines = path.read_text().strip().splitlines()
        if match is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, {})[int(match["seed"])] = result
    return runs


def verdict(metric, parent: dict, change: dict) -> tuple[str, str]:
    better = (lambda a, b: a < b) if metric["better"] == "lower" else (lambda a, b: a > b)
    p_values = list(parent.values())
    c_values = list(change.values())
    p_mid = statistics.median(p_values)
    c_mid = statistics.median(c_values)
    q1, _, q3 = statistics.quantiles(p_values, n=4)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(better(c, p) for p, c in pairs)
    worse_share = (c_mid - p_mid) / p_mid if metric["better"] == "lower" else (p_mid - c_mid) / p_mid
    all_better = all(better(c, p) for c in c_values for p in p_values)
    detail = (f"parent {p_mid:.4f} [{q1:.4f}, {q3:.4f}]  change {c_mid:.4f}  "
              f"{worse_share:+.2%} worse  wins {wins}/{len(pairs)}")
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(c_mid - p_mid) > q3 - q1 and better(c_mid, p_mid):
        return "improved", detail
    if worse_share > metric["bound"]:
        return "worse", detail
    if (q3 - q1) / p_mid > metric["bound"] and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def failed_share(results) -> float:
    results = [r for r in results if r is not None]
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (load(Path(d)) for d in argv)
    bad = False
    for workload in [w["name"] for w in SPEC["workloads"]]:
        print(workload)
        if not any((workload, t) in side for side in (parent, change) for t in (0, 1)):
            print("  no runs")
            continue
        p_runs = parent.get((workload, 0), {})
        c_runs = change.get((workload, 0), {})
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            if any(r is None for r in runs.values()):
                print(f"  {side}: a run printed no result")
                bad = True
        p_ok = {s: r for s, r in p_runs.items() if r is not None}
        c_ok = {s: r for s, r in c_runs.items() if r is not None}
        if len(p_ok) >= 2 and c_ok:
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                status, detail = verdict(
                    metric,
                    {s: r["metrics"][name]["value"] for s, r in p_ok.items()},
                    {s: r["metrics"][name]["value"] for s, r in c_ok.items()},
                )
                bad |= status == "worse"
                print(f"  {name:16s} {status:10s} {detail}")
        else:
            print("  not enough untraced runs on both sides")
        p_failed = failed_share(list(p_runs.values()) + list(parent.get((workload, 1), {}).values()))
        c_failed = failed_share(list(c_runs.values()) + list(change.get((workload, 1), {}).values()))
        status = "worse" if c_failed > p_failed else "unchanged"
        bad |= status == "worse"
        print(f"  {'failed_share':16s} {status:10s} parent {p_failed:.4f}  change {c_failed:.4f}")
        p_traced = parent.get((workload, 1), {})
        c_traced = change.get((workload, 1), {})
        for seed in sorted(set(p_traced) & set(c_traced)):
            p_result, c_result = p_traced[seed], c_traced[seed]
            if p_result is None or c_result is None:
                continue
            for name, entry in p_result["metrics"].items():
                if not VERIFICATION_COUNTS.match(name):
                    continue
                before, after = entry["value"], c_result["metrics"].get(name, {}).get("value")
                if before != after:
                    print(f"  FLAG seed {seed}: {name} changed from {before} to {after}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
