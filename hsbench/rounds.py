"""One round: stand up an experiment, run the pipeline, drive the tracker, check.

A round is the unit a run repeats. Every round runs the same operations
on the same inputs into a fresh directory (the access log is opened in
append mode, so reusing one would double the clicks), which keeps the
share of failed operations identical in every run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

import checks
import tracker
from procs import Launch, Tracker, run_stage
from workloads import HACKER_START, WINDOW_DAYS, RunInputs, Workload, _ts, scan_sequence

POSTS_PER_DAY = 2


@dataclass
class RoundResult:
    setup_s: float = 0.0
    stage_s: dict[str, list[float]] = field(default_factory=dict)
    peak_rss_kb: int = 0
    tracker_rss_kb: int = 0
    click: tracker.PhaseResult | None = None
    scan: tracker.PhaseResult | None = None
    attempted: int = 0
    failed: int = 0
    # traced runs only: the span file of each stage invocation, by stage
    spans: dict[str, list[Path]] = field(default_factory=dict)
    click_window: tuple[float, float] = (0.0, 0.0)
    files: dict[str, Path] = field(default_factory=dict)
    sent: list[tracker.Sent] = field(default_factory=list)
    # traced runs only: layer quantities, filled in before the files are deleted
    layers: dict[str, float] = field(default_factory=dict)
    stage_self: dict[str, dict[str, float]] = field(default_factory=dict)


class _Stages:
    """Runs subcommands, recording time, peak RSS and span files per stage."""

    def __init__(self, launch: Launch, out: Path, result: RoundResult):
        self.launch, self.out, self.result = launch, out, result
        self._n = 0

    def tag(self, stage: str) -> str:
        """A unique name for this invocation's stderr and span files."""
        self._n += 1
        return f"{self._n:02d}-{stage}"

    def run(self, stage: str, args: list[str]) -> float:
        tag = self.tag(stage)
        self.result.attempted += 1
        res = run_stage(self.launch, stage, args, tag, self.out)
        self.result.stage_s.setdefault(stage, []).append(res.seconds)
        self.result.peak_rss_kb = max(self.result.peak_rss_kb, res.maxrss_kb)
        if self.launch.spans_dir is not None:
            self.result.spans.setdefault(stage, []).append(self.launch.spans_dir / f"{tag}.json")
        return res.seconds


def _leak_windows(workload: Workload) -> list[tuple[str, str]]:
    """(theme, start) of each leak: one per experiment window, named after it."""
    if workload.constrained:
        return [
            (name, _ts(HACKER_START + i * timedelta(days=WINDOW_DAYS)))
            for i, (name, _, _) in enumerate(workload.experiments)
        ]
    return [("hacker", _ts(HACKER_START))]


def run_round(workload: Workload, inputs: RunInputs, out: Path, launch: Launch) -> RoundResult:
    out.mkdir(parents=True)
    if launch.spans_dir is not None:
        launch.spans_dir.mkdir(parents=True, exist_ok=True)
    result = RoundResult()
    stages = _Stages(launch, out, result)
    f = {
        "sheets": out / "sheets.json",
        "registry": out / "registry.json",
        "serve_log": out / "serve.log",
        "geo": inputs.dir / "geo.csv",
        "bounds": inputs.dir / "bounds.json",
        "profiles": inputs.dir / "profiles.json",
        "targets": inputs.dir / "targets.json",
    }
    result.files = f
    reps = workload.repeats

    # --- set-up: gen, leak, and serve until the first request is answered
    t0 = time.perf_counter()
    stages.run("gen", [
        "--rows", str(workload.rows), "--links", str(workload.links),
        "--controlled", str(workload.controlled), "--seed", str(inputs.gen_seed),
        "--count", str(workload.sheets), "--out", str(f["sheets"]),
        "--registry", str(f["registry"]),
    ])
    for theme, start in _leak_windows(workload):
        f[f"posts-{theme}"] = out / f"posts-{theme}"
        stages.run("leak", [
            "--theme", theme, "--days", str(WINDOW_DAYS), "--per-day", str(POSTS_PER_DAY),
            "--sheets", str(f["sheets"]), "--out", str(f[f"posts-{theme}"]),
            "--start", start, "--seed", str(inputs.leak_seed),
        ])
    tokens = sorted(json.loads(f["registry"].read_text(encoding="utf-8"))["links"])
    result.attempted += 1
    serve_tag = stages.tag("serve")
    server = Tracker(launch, ["--registry", str(f["registry"]), "--log", str(f["serve_log"])],
                     serve_tag, out)
    try:
        first = tracker.get_once(server.port, tokens[0])
        result.setup_s = time.perf_counter() - t0
        if launch.spans_dir is not None:
            result.spans["serve"] = [launch.spans_dir / f"{serve_tag}.json"]

        # --- the live tracker: a browser clicking, then a crawler scanning
        c0 = time.perf_counter()
        result.click = tracker.click_phase(server.port, tokens, workload.mix)
        result.click_window = (c0, time.perf_counter())
        sequence = scan_sequence(workload.mix, tokens, inputs.scan_seed)
        result.scan = tracker.scan_phase(server.port, sequence, workload.mix)
    except BaseException:
        server.kill()
        raise
    result.tracker_rss_kb = server.stop()
    sent = result.sent = [first] + result.click.sent + result.scan.sent
    result.attempted += len(sent)
    result.failed += sum(1 for s in sent if s.status is None)

    # --- the offline pipeline, one subcommand at a time
    sim_args = ["--profiles", str(f["profiles"]), "--seed", str(inputs.simulate_seed),
                "--sheets", str(f["sheets"]), "--registry", str(f["registry"])]
    if workload.constrained:
        sim_args += ["--targets", str(f["targets"]), "--geo", str(f["geo"])]
    else:
        sim_args += ["--days", str(workload.days), "--start", _ts(HACKER_START)]
    traces = [out / f"trace-{i}.json" for i in range(reps.get("simulate", 1))]
    for path in traces:
        stages.run("simulate", [*sim_args, "--out", str(path)])
    f["trace"] = traces[0]
    replays = [(out / f"mailbox-{i}", out / f"access-{i}.log") for i in range(reps.get("replay", 1))]
    for mailbox, log in replays:
        stages.run("replay", [
            "--trace", str(f["trace"]), "--sheets", str(f["sheets"]),
            "--registry", str(f["registry"]), "--mailbox", str(mailbox), "--log", str(log),
        ])
    f["mailbox"], f["access_log"] = replays[0]
    timelines = [out / f"timeline-{i}.json" for i in range(reps.get("ingest", 1))]
    for path in timelines:
        stages.run("ingest", ["--mailbox", str(f["mailbox"]), "--out", str(path)])
    f["timeline"] = timelines[0]
    reports = [out / f"report-{i}" for i in range(reps.get("report", 1))]
    for path in reports:
        stages.run("report", [
            "--timeline", str(f["timeline"]), "--log", str(f["access_log"]),
            "--geo", str(f["geo"]), "--bounds", str(f["bounds"]),
            "--registry", str(f["registry"]), "--out", str(path),
        ])
    f["report"] = reports[0] / "report.json"
    f["countries"] = reports[0] / "countries.csv"

    # --- checks, apart from the program
    checks.check_identical(traces)
    checks.check_identical([log for _, log in replays])
    checks.check_same_messages([mailbox for mailbox, _ in replays])
    checks.check_identical(timelines)
    checks.check_identical([p / "report.json" for p in reports])
    checks.check_identical([p / "countries.csv" for p in reports])
    checks.check_ibans(f["sheets"])
    for theme, _ in _leak_windows(workload):
        checks.check_leak_posts(f[f"posts-{theme}"], f["sheets"], WINDOW_DAYS, POSTS_PER_DAY)
    checks.check_countries(f["countries"], f["access_log"], f["geo"])
    checks.check_conservation(f["trace"], f["mailbox"], f["timeline"], f["access_log"], f["report"])
    checks.check_edits(f["trace"], f["sheets"], f["mailbox"], f["timeline"])
    if workload.constrained:
        checks.check_campaign_totals(f["report"], f["targets"])
    checks.check_tracker(sent, f["serve_log"], f["registry"])
    return result
