"""Benchmark of the honeysheets pipeline and live tracker; stdlib only.

    python3 hsbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each run writes its inputs from --seed,
then repeats whole rounds (see rounds.py) until --seconds have passed,
checks every round's outputs, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every subcommand runs under
launcher.py and the metrics are the per-layer ones. Exit status is 0 on
a completed run, 1 when a stage fails or a check rejects an output, and
2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import rounds  # noqa: E402
import tracing  # noqa: E402
from procs import Launch, Spawner, StageFailed, child_env  # noqa: E402
from tracker import NoReply  # noqa: E402
from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

WORK_DIR = ".hsbench-work"
MIN_ROUNDS = 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _median(values) -> float:
    return statistics.median(values)


def end_to_end(results: list[rounds.RoundResult]) -> dict:
    scans = [s.seconds for r in results for s in r.scan.answered]
    values = {
        "setup_s": (_median([r.setup_s for r in results]), "s"),
        "peak_rss_mb": (_median([r.peak_rss_kb / 1024 for r in results]), "MB"),
        "tracker_rss_mb": (_median([r.tracker_rss_kb / 1024 for r in results]), "MB"),
        "scan_p99_ms": (percentile(scans, 99) * 1000, "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _stage_summaries(paths: list[Path]) -> list[dict]:
    out = []
    for path in paths:
        dump = json.loads(path.read_text(encoding="utf-8"))
        out.append({"spans": tracing.summarize(dump), "counts": dump["counts"],
                    "start_s": dump["start_s"], "raw": dump})
    return out


def round_layers(r: rounds.RoundResult) -> None:
    """Fill r.layers and r.stage_self from the round's span and output files.

    Each quantity is summed over stages, taking per stage the median over
    that stage's invocations, so repeated invocations count once.
    """
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for stage, paths in r.spans.items():
        invocations = _stage_summaries(paths)
        names = {n for inv in invocations for n in inv["spans"]}
        for name in names:
            for field in ("total_s", "self_s", "calls"):
                add(f"{name}:{field}", _median([inv["spans"].get(name, {}).get(field, 0) for inv in invocations]))
        r.stage_self[stage] = {
            n: _median([inv["spans"].get(n, {}).get("self_s", 0.0) for inv in invocations]) for n in names
        }
        for key in {k for inv in invocations for k in inv["counts"]}:
            add(key, _median([inv["counts"].get(key, 0) for inv in invocations]))
        totals[f"cli.{stage}.start_s"] = _median([inv["start_s"] for inv in invocations])
        totals[f"cli.{stage}.self_s"] = r.stage_self[stage].get("cli.run", 0.0)
        if stage == "ingest":
            totals["ingest:body_hash_calls"] = _median(
                [inv["spans"].get("sheetstore.body_hash", {}).get("calls", 0) for inv in invocations]
            )
        if stage == "serve":
            lo, hi = r.click_window
            handle = [end - start for name, start, end, _ in invocations[0]["raw"]["spans"]
                      if name == "honeylink.handle" and lo <= start <= hi]
            totals["serve:click_handle_p50_s"] = _median(handle)
    totals["timeline_modifications"] = sum(
        1 for row in json.loads(r.files["timeline"].read_text()) if row["kind"] == "modification"
    )
    totals["log_bytes"] = r.files["access_log"].stat().st_size + r.files["serve_log"].stat().st_size
    totals["message_bytes"] = sum(p.stat().st_size for p in r.files["mailbox"].glob("*.msg"))
    r.layers = totals


LAYER_TOTALS = (
    "honeygen.build_honey_sheet", "honeylink.mint_token", "honeylink.handle",
    "honeylink.log_append", "honeylink.load_access_log", "sheetstore.take_snapshot",
    "sheetstore.diff", "sheetstore.apply_edit", "sheetstore.sheets_from_json",
    "sheetstore.sheets_to_json", "sheetstore.changeset_to_json", "sheetstore.body_hash",
    "notify.emit_notification", "notify.ingest_mailbox", "notify.parse_message",
    "notify.timeline_from_events", "notify.timeline_from_dict", "leak.schedule", "leak.post",
    "analytics.aggregate", "analytics.geo_lookup", "analytics.load_csv",
    "analytics.export_report", "simharness.trace_to_json", "simharness.trace_from_json",
)
LAYER_CALLS = {
    "honeylink.handle_calls": "honeylink.handle",
    "sheetstore.snapshots": "sheetstore.take_snapshot",
    "sheetstore.diff_calls": "sheetstore.diff",
    "sheetstore.changeset_to_json_calls": "sheetstore.changeset_to_json",
    "sheetstore.body_hash_calls": "sheetstore.body_hash",
    "notify.messages_written": "notify.emit_notification",
    "notify.messages_read": "notify.parse_message",
    "leak.posts_written": "leak.post",
    "analytics.geo_lookups": "analytics.geo_lookup",
}
LAYER_COUNTS = (
    "honeygen.rows_built", "honeylink.tokens_minted", "honeylink.log_lines_read",
    "sheetstore.cells_compared", "sheetstore.cells_changed", "sheetstore.sheet_bytes_parsed",
    "simharness.actions", "simharness.trace_bytes",
)
STAGES = ("gen", "leak", "simulate", "replay", "ingest", "report", "serve")


def per_layer(results: list[rounds.RoundResult]) -> dict:
    layers = [r.layers for r in results]

    def med(key: str) -> float:
        return _median([x.get(key, 0.0) for x in layers])

    def med_ratio(num: str, den: str) -> float:
        return _median([x.get(num, 0.0) / max(1.0, x.get(den, 0.0)) for x in layers])

    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_TOTALS:
        m[f"{name}_s"] = (med(f"{name}:total_s"), "s")
    m["simharness.simulate_self_s"] = (med("simharness.simulate:self_s"), "s")
    m["simharness.replay_self_s"] = (med("simharness.replay:self_s"), "s")
    for metric, span in LAYER_CALLS.items():
        m[metric] = (med(f"{span}:calls"), "count")
    for key in LAYER_COUNTS:
        unit = "bytes" if key.endswith("bytes") or key.endswith("_parsed") else "count"
        m[key] = (med(key), unit)
    m["sheetstore.diff_yield"] = (med_ratio("sheetstore.cells_changed", "sheetstore.cells_compared"), "ratio")
    m["notify.events_per_body_hash"] = (
        med_ratio("timeline_modifications", "ingest:body_hash_calls"), "ratio")
    m["honeylink.log_bytes"] = (med("log_bytes"), "bytes")
    m["notify.message_bytes"] = (med("message_bytes"), "bytes")
    # Left out of the end-to-end set for the same reason as the stage times.
    clicks = [s.seconds for r in results for s in r.click.sent]
    m["honeylink.click_req_per_s"] = (
        _median([len(r.click.answered) / r.click.wall_s for r in results]), "req/s")
    m["honeylink.click_p50_ms"] = (percentile(clicks, 50) * 1000, "ms")
    m["honeylink.scan_req_per_s"] = (
        _median([len(r.scan.answered) / r.scan.wall_s for r in results]), "req/s")
    m["honeylink.click_front_p50_ms"] = (
        (percentile(clicks, 50) - med("serve:click_handle_p50_s")) * 1000, "ms")
    m["honeylink.connections_opened"] = (_median([1 + r.click.connections + r.scan.connections for r in results]), "count")
    scan = [s for r in results for s in r.scan.answered]
    m["honeylink.scan_404_p50_ms"] = (percentile([s.seconds for s in scan if s.status == 404 and s.method == "GET"], 50) * 1000, "ms")
    m["honeylink.scan_302_p50_ms"] = (percentile([s.seconds for s in scan if s.status == 302], 50) * 1000, "ms")
    m["honeylink.probes_unanswered"] = (_median([sum(1 for s in r.scan.sent if s.status is None) for r in results]), "count")
    for stage in STAGES:
        m[f"cli.{stage}.start_s"] = (med(f"cli.{stage}.start_s"), "s")
        m[f"cli.{stage}.self_s"] = (med(f"cli.{stage}.self_s"), "s")
    # Stage wall times drift with the host beyond any useful bound, so they
    # are not end-to-end metrics (see README); these include tracing.
    for stage in ("simulate", "replay", "ingest", "report"):
        m[f"cli.{stage}.wall_s"] = (_median([s for r in results for s in r.stage_s[stage]]), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def breakdown(results: list[rounds.RoundResult]) -> str:
    """Each stage's wall time and the self time of every layer inside it."""
    lines = []
    for stage in results[0].stage_self:
        walls = [s for r in results for s in r.stage_s.get(stage, [])]
        label = "wall"
        if not walls:  # serve: its lifetime, most of it idle between phases
            walls, label = [r.stage_self[stage].get("cli.run", 0.0) for r in results], "cli.run self"
        wall = _median(walls)
        lines.append(f"{stage}: {label} {wall:.3f} s (median of {len(walls)})")
        names = {n for r in results for n in r.stage_self[stage]}
        by_self = {n: _median([r.stage_self[stage].get(n, 0.0) for r in results]) for n in names}
        for n in sorted(names, key=lambda n: -by_self[n]):
            lines.append(f"  {n:32s} self {by_self[n]:8.4f} s  {100 * by_self[n] / wall:5.1f}%")
    return "\n".join(lines)


def machine_loop_s() -> float:
    """A fixed pure-Python loop, timed between rounds to show the machine's drift."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return time.perf_counter() - t0


def _warm(root: Path) -> None:
    """Compile the package once so no timed process pays for it."""
    subprocess.run([sys.executable, "-c", "import honeysheets.cli"], env=child_env(root),
                   cwd=root, check=True, stdout=subprocess.DEVNULL)


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        root: Path) -> tuple[dict, list[rounds.RoundResult]]:
    work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _warm(root)
        inputs = write_inputs(workload, seed, work / "inputs")
        results: list[rounds.RoundResult] = []
        t0 = time.perf_counter()
        with Spawner() as spawner:
            # Start a round only if it should end within the run's time.
            while len(results) < MIN_ROUNDS or (
                (time.perf_counter() - t0) * (len(results) + 1) / len(results) <= seconds
            ):
                out = work / f"round-{len(results)}"
                launch = Launch(root, spawner, spans_dir=out / "spans" if traced else None)
                results.append(rounds.run_round(workload, inputs, out, launch))
                if traced:
                    round_layers(results[-1])
                # Thousands of mailbox files per round: deleting them keeps every
                # round creating files in the same state of the file system.
                shutil.rmtree(out)
                stages = {k: [round(x, 3) for x in v] for k, v in results[-1].stage_s.items()}
                print(f"round {len(results) - 1}: machine loop {machine_loop_s():.3f} s, "
                      f"setup {results[-1].setup_s:.3f} s, stages {json.dumps(stages)}",
                      file=sys.stderr, flush=True)
        metrics = per_layer(results) if traced else end_to_end(results)
        if traced:
            print(breakdown(results), file=sys.stderr)
        return metrics, results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "honeysheets" / "cli.py").is_file():
        print("error: run from a checkout root; src/honeysheets is missing", file=sys.stderr)
        return 2
    try:
        metrics, results = run(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), root)
    except (StageFailed, checks.CheckFailed, NoReply, OSError, RuntimeError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"{len(results)} rounds", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
