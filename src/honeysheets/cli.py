"""Single command-line entry point wiring the pipeline subcommands.

Exit codes: 0 success, 1 usage error, 2 data or IO error. Data outputs go
to the files named by flags (or stdout where documented); diagnostics go
to stderr only.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from random import Random

from ._util import canonical_dumps, compact_dumps, decode, encode, parse_ts
from .analytics import GeoTable, aggregate, export_report, load_windows
from .errors import HoneySheetsError
from .honeygen import SheetConfig, build_honey_sheet, derive_sheet_id
from .honeylink import (
    AccessLogWriter,
    HoneyLinkServer,
    LinkRegistry,
    LinkServerCore,
    load_access_log,
    mint_token,
)
from .leak import THEMES, FilePostSink, LeakPlan, schedule
from .notify import EventTimeline, ingest_mailbox
from .sheetstore import (
    HoneySheet,
    Snapshot,
    diff,
    sheets_from_json,
    sheets_to_json,
    take_snapshot,
)
from .simharness import (
    ActionTrace,
    DEFAULT_START,
    TargetCounts,
    VisitorProfile,
    default_profiles,
    replay,
    simulate,
)

DECOY_BANK_HOSTS = (
    "online.first-meridian-bank.example",
    "secure.cresthill-banking.example",
    "ebanking.northgate-trust.example",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(message)


@dataclass
class Config:
    """Operator defaults shared by the subcommands; flags override."""

    controlled_domain: str = "trap.example.net"
    redirect_target: str = "https://www.google.com"
    short_base: str = "https://snip.example.net"

    @classmethod
    def load(cls, path: str | None) -> Config:
        if path is None:
            return cls()
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise HoneySheetsError(f"config {path}: expected a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise HoneySheetsError(f"config {path}: unknown key(s) {', '.join(unknown)}")
        return cls(**data)


def _load_registry(path: str, config: Config) -> LinkRegistry:
    registry_path = Path(path)
    if registry_path.exists():
        return LinkRegistry.load(registry_path)
    return LinkRegistry(
        redirect_target=config.redirect_target,
        short_base=config.short_base,
        controlled_domain=config.controlled_domain,
    )


def _cmd_gen(args: argparse.Namespace, config: Config) -> int:
    registry = _load_registry(args.registry, config)
    rng = Random(args.seed)
    sheets = []
    for i in range(args.count):
        sheet_seed = args.seed + i
        sheet_id = derive_sheet_id(sheet_seed)
        links = []
        for n in range(args.links):
            if n < args.controlled:
                destination = f"https://{registry.controlled_domain}/transfer/{sheet_id}/{n}"
                links.append(mint_token(registry, "controlled", destination, sheet_id, rng))
            else:
                host = DECOY_BANK_HOSTS[n % len(DECOY_BANK_HOSTS)]
                destination = f"https://{host}/payments/confirm/{sheet_id}/{n}"
                links.append(mint_token(registry, "decoy_bank", destination, sheet_id, rng))
        sheet_config = SheetConfig(
            rows=args.rows,
            link_slots=args.links,
            controlled_slots=args.controlled,
            rng_seed=sheet_seed,
        )
        sheets.append(build_honey_sheet(sheet_config, links))
    Path(args.out).write_text(sheets_to_json(sheets), encoding="utf-8")
    registry.save(args.registry)
    print(f"wrote {len(sheets)} sheet(s) to {args.out}", file=sys.stderr)
    return 0


def _load_snapshot(path: str) -> Snapshot:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and "taken_at" in data:
        return decode(Snapshot, data)
    sheets = data if isinstance(data, list) else [data]
    if len(sheets) != 1:
        raise HoneySheetsError(f"{path}: expected one sheet, found {len(sheets)}")
    return take_snapshot(decode(HoneySheet, sheets[0]), parse_ts("1970-01-01T00:00:00Z"))


def _cmd_diff(args: argparse.Namespace, config: Config) -> int:
    before = _load_snapshot(args.before)
    after = _load_snapshot(args.after)
    changes = diff(before, after)
    Path(args.out).write_text(changes.to_json(), encoding="utf-8")
    return 0


def _cmd_serve(args: argparse.Namespace, config: Config) -> int:
    host, _, port_text = args.bind.rpartition(":")
    registry = LinkRegistry.load(args.registry)
    if args.redirect:
        registry.redirect_target = args.redirect
    sink = AccessLogWriter(args.log)
    core = LinkServerCore(registry, sink)
    server = HoneyLinkServer(core, bind=(host, int(port_text)))

    def print_counters(*_signal) -> None:  # to the operator only, never over the port
        print(compact_dumps(server.counters()), file=sys.stderr, flush=True)

    signal.signal(signal.SIGUSR1, print_counters)
    server.start()
    bound_host, bound_port = server.address
    print(f"listening on {bound_host}:{bound_port}", file=sys.stderr, flush=True)
    try:
        while True:
            server.wait(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        failures = core.close()
        if failures:
            print(f"warning: {failures} log write(s) failed", file=sys.stderr)
        print_counters()
    return 0


def _cmd_ingest(args: argparse.Namespace, config: Config) -> int:
    timeline, quarantined = ingest_mailbox(args.mailbox)
    rows = [encode(event) for event in timeline]
    Path(args.out).write_text(canonical_dumps(rows), encoding="utf-8")
    counts = timeline.counts()
    print(
        f"ingested {len(timeline)} events "
        f"({counts['open']} open, {counts['modification']} modification), "
        f"quarantined {quarantined}",
        file=sys.stderr,
    )
    return 0


def _cmd_leak(args: argparse.Namespace, config: Config) -> int:
    if args.theme not in THEMES:
        raise _UsageError(f"unknown theme {args.theme!r}; choose from {sorted(THEMES)}")
    sheets = sheets_from_json(Path(args.sheets).read_text(encoding="utf-8"))
    plan = LeakPlan(
        theme=THEMES[args.theme],
        start_date=parse_ts(args.start),
        days=args.days,
        posts_per_day=args.per_day,
    )
    posts = schedule(plan, sheets, Random(args.seed))
    sink = FilePostSink(args.out)
    for post in posts:
        sink.post(post)
    print(f"scheduled {len(posts)} post(s) into {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace, config: Config) -> int:
    sheets = sheets_from_json(Path(args.sheets).read_text(encoding="utf-8"))
    registry = LinkRegistry.load(args.registry)
    if args.profiles:
        data = json.loads(Path(args.profiles).read_text(encoding="utf-8"))
        profiles = [decode(VisitorProfile, item) for item in data]
    else:
        profiles = default_profiles()
    targets = None
    if args.targets:
        targets = decode(
            TargetCounts, json.loads(Path(args.targets).read_text(encoding="utf-8"))
        )
    geo = GeoTable.load_csv(args.geo) if args.geo else None
    trace = simulate(
        profiles,
        sheets,
        registry,
        seed=args.seed,
        duration_days=args.days,
        targets=targets,
        geo=geo,
        start=parse_ts(args.start) if args.start else DEFAULT_START,
    )
    Path(args.out).write_text(trace.to_json(), encoding="utf-8")
    print(f"simulated {len(trace)} action(s); ground truth: {trace.meta}", file=sys.stderr)
    return 0


def _cmd_replay(args: argparse.Namespace, config: Config) -> int:
    trace = ActionTrace.from_json(Path(args.trace).read_text(encoding="utf-8"))
    sheets = sheets_from_json(Path(args.sheets).read_text(encoding="utf-8"))
    registry = LinkRegistry.load(args.registry)
    with AccessLogWriter(args.log) as sink:
        core = LinkServerCore(registry, sink)
        replay(trace, {s.sheet_id: s for s in sheets}, core, Path(args.mailbox))
        failures = core.sink_failures
    if failures:
        print(f"warning: {failures} log write(s) failed", file=sys.stderr)
    print(f"replayed {len(trace)} action(s)", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace, config: Config) -> int:
    timeline = EventTimeline.from_dict(
        json.loads(Path(args.timeline).read_text(encoding="utf-8"))
    )
    torn: list[int] = []
    logs = load_access_log(args.log, torn)
    for line in torn:
        print(f"warning: {args.log} line {line} is torn; left it out", file=sys.stderr)
    geo = GeoTable.load_csv(args.geo)
    windows = load_windows(args.bounds)
    controlled_tokens = None
    if args.registry:
        registry = LinkRegistry.load(args.registry)
        controlled_tokens = {link.token for link in registry.by_class("controlled")}
    report = aggregate(timeline, logs, geo, windows, controlled_tokens=controlled_tokens)
    written = export_report(report, args.out)
    print(f"wrote {', '.join(str(p) for p in written)}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="honeysheets", description=__doc__)
    parser.add_argument("--config", help="JSON config file with operator defaults")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate decoy sheets and mint their links")
    gen.add_argument("--rows", type=int, default=20)
    gen.add_argument("--links", type=int, default=9)
    gen.add_argument("--controlled", type=int, default=3)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--count", type=int, default=1, help="number of sheets")
    gen.add_argument("--out", required=True, help="sheets JSON output")
    gen.add_argument("--registry", required=True, help="link registry JSON (created if missing)")
    gen.set_defaults(func=_cmd_gen)

    diff_cmd = commands.add_parser("diff", help="diff two sheet or snapshot files")
    diff_cmd.add_argument("--before", required=True)
    diff_cmd.add_argument("--after", required=True)
    diff_cmd.add_argument("--out", required=True, help="changeset JSON output")
    diff_cmd.set_defaults(func=_cmd_diff)

    serve = commands.add_parser("serve", help="run the redirect-and-log tracker")
    serve.add_argument("--registry", required=True)
    serve.add_argument("--log", required=True, help="access log path (JSONL, appended)")
    serve.add_argument("--redirect", help="override the registry redirect target")
    serve.add_argument("--bind", default="127.0.0.1:8080", help="addr:port")
    serve.set_defaults(func=_cmd_serve)

    ingest = commands.add_parser("ingest", help="parse the mailbox into a timeline")
    ingest.add_argument("--mailbox", required=True)
    ingest.add_argument("--out", required=True, help="timeline JSON output")
    ingest.set_defaults(func=_cmd_ingest)

    leak = commands.add_parser("leak", help="render and schedule themed leak posts")
    leak.add_argument("--theme", required=True)
    leak.add_argument("--days", type=int, required=True)
    leak.add_argument("--per-day", type=int, default=2, dest="per_day")
    leak.add_argument("--sheets", required=True)
    leak.add_argument("--out", required=True, help="directory for rendered posts")
    leak.add_argument("--start", default="2024-01-01T00:00:00Z")
    leak.add_argument("--seed", type=int, default=42)
    leak.set_defaults(func=_cmd_leak)

    sim = commands.add_parser("simulate", help="build a visitor action trace")
    sim.add_argument("--profiles", help="profiles JSON; bundled defaults if omitted")
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--days", type=float, default=0.0)
    sim.add_argument("--targets", help="target counts JSON for constrained traces")
    sim.add_argument("--sheets", required=True)
    sim.add_argument("--registry", required=True)
    sim.add_argument("--geo", help="geo table CSV (needed for country targets)")
    sim.add_argument("--start", help="free-running start time (ISO-8601)")
    sim.add_argument("--out", required=True, help="trace JSON output")
    sim.set_defaults(func=_cmd_simulate)

    rep = commands.add_parser("replay", help="replay a trace through the pipeline")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--sheets", required=True)
    rep.add_argument("--registry", required=True)
    rep.add_argument("--mailbox", required=True)
    rep.add_argument("--log", required=True)
    rep.set_defaults(func=_cmd_replay)

    report = commands.add_parser("report", help="aggregate timeline and log into a report")
    report.add_argument("--timeline", required=True)
    report.add_argument("--log", required=True)
    report.add_argument("--geo", required=True)
    report.add_argument("--bounds", required=True)
    report.add_argument("--registry", help="narrows visit counting to controlled tokens")
    report.add_argument("--out", required=True, help="output directory")
    report.set_defaults(func=_cmd_report)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        config = Config.load(args.config)
        return args.func(args, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HoneySheetsError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
