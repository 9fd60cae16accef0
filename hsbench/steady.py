"""Steadiness check: run the same code as two sets of runs and compare them.

    python3 hsbench/steady.py --runs 10

Run from the root of a checkout. Each set runs every workload of
BENCHMARK.json once per seed (seeds 1..runs in set A, runs+1..2*runs in
set B), untraced, for BENCHMARK.json's run_seconds. For each workload and
end-to-end metric it prints both sets' median and quartiles, the spread
(interquartile distance over the median), and how far set B's median is
from set A's. The two sets agree on a metric when that distance, either
way, is within the metric's bound and so is each set's spread. The spread
of setup_s is printed but not held to the bound: set-up is a few
sub-second process starts, the noisiest figure here, and it is kept so
that work moved into set-up shows in its median. It also compares the
share of failed operations. Raw results go to .hsbench-work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

UNGATED_SPREAD = {"setup_s"}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "hsbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-6000:]}")
    result = json.loads(lines[-1])
    result["rounds"] = [line for line in proc.stderr.splitlines() if line.startswith("round ")]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs rejected")
    return result


def _cpu_ticks() -> list[int]:
    """The machine's aggregate CPU counters from /proc/stat (index 7 is steal)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first (negative: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    sets: list[dict[str, list[dict]]] = []
    steal: list[float] = []
    for s in range(2):
        cpu0 = _cpu_ticks()
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for workload in workloads:
                runs[workload].append(one_run(workload, seed, spec["run_seconds"]))
                print(f"set {'AB'[s]} {workload} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(runs)
        cpu1 = _cpu_ticks()
        steal.append((cpu1[7] - cpu0[7]) / max(1, sum(cpu1) - sum(cpu0)))
    out = Path(".hsbench-work")
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(sets, indent=1))

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"{'metric':16s} {'bound':>5s}  " + "  ".join(
            f"{'set ' + s + ' median [q1, q3] spread':>40s}" for s in "AB") + "  B vs A   agree")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, agree = [], [], True
            for runs in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs[workload]])
                medians.append(med)
                cells.append(f"{med:10.4f} [{q1:10.4f}, {q3:10.4f}] {100 * spread:5.1f}%")
                if name not in UNGATED_SPREAD and spread > bound:
                    agree = False
            delta = worse_by(medians[0], medians[1], metric["better"])
            agree = agree and abs(delta) <= bound
            ok = ok and agree
            print(f"{name:16s} {bound:5.2f}  " + "  ".join(f"{c:>40s}" for c in cells)
                  + f"  {100 * delta:+6.1f}%  {'yes' if agree else 'NO'}")
        shares = [
            {round(r["failed"] / r["attempted"], 12) for r in runs[workload]} for runs in sets
        ]
        same = len(set().union(*shares)) == 1
        ok = ok and same
        print(f"failed share per run: {' / '.join(str(sorted(s)) for s in shares)}"
              f" -> {'same in every run' if same else 'DIFFERS'}")
    print("\nsteal time: " + ", ".join(f"set {'AB'[i]} {100 * x:.1f}%" for i, x in enumerate(steal)))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
