"""Deterministic visitor simulation against the full decoy pipeline.

simulate() builds a timed trace of opens, edits, and link clicks from
visitor profiles, either free-running from the profiles' stochastic mixes
or constrained to hit exact totals. replay() pushes a trace through the
live handles: every open or edit becomes a mailbox notification and every
click becomes a tracker request, so the normal ingest and aggregate path
runs on simulated activity exactly as it would on real activity.

Trace timestamps are virtual. Replay executes as fast as it can while
preserving order, and stamps notifications and log entries with the
virtual times, so weeks of simulated activity replay in seconds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random
from typing import Any, Iterator, Sequence
import json

from ._util import canonical_dumps, decode, encode
from .analytics import ExperimentWindow, GeoTable
from .errors import HoneySheetsError, InfeasibleTargets, ReplayError
from .honeylink import HoneyLink, LinkRegistry, LinkServerCore
from .notify import emit_notification
from .sheetstore import (
    CellFormat,
    EditCommand,
    HoneySheet,
    apply_edit,
    diff,
    modification_event,
    open_event,
    set_column_width,
    set_format,
    set_value,
    take_snapshot,
)
from urllib.parse import urlsplit

ACTION_KINDS = ("open_only", "expand_columns", "delete_content", "deface", "click_links")

DEFAULT_START = datetime(2024, 1, 1, tzinfo=timezone.utc)

DEFAULT_USER_AGENTS = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/70.0.3538.77 Safari/537.36",
    "Mozilla/5.0 (X11; Linux x86_64; rv:84.0) Gecko/20100101 Firefox/84.0",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 "
    "(KHTML, like Gecko) Version/14.0 Safari/605.1.15",
    "Mozilla/5.0 (Linux; Android 9; SM-G960F) AppleWebKit/537.36 (KHTML, like Gecko) "
    "SamsungBrowser/9.2 Chrome/67.0.3396.87 Mobile Safari/537.36",
    "Mozilla/5.0 (Linux; Android 10; Pixel 3) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/78.0.3904.108 Mobile Safari/537.36",
    "Mozilla/5.0 (Windows NT 6.1; WOW64; rv:54.0) Gecko/20100101 Firefox/54.0",
)


def _check_distribution(probs: Sequence[float], label: str) -> None:
    total = sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{label} probabilities sum to {total}, expected 1")
    if any(p < 0 for p in probs):
        raise ValueError(f"{label} probabilities must be non-negative")


@dataclass(frozen=True)
class VisitorProfile:
    """One attacker typology: what it does per visit and where it comes from."""

    name: str
    action_mix: dict[str, float]
    clicks_per_visit: tuple[tuple[int, float], ...] = ((1, 1.0),)
    source_ip_pool: tuple[str, ...] = ()
    user_agent_pool: tuple[str, ...] = DEFAULT_USER_AGENTS
    visits_per_day: float = 1.0

    def __post_init__(self) -> None:
        for action in self.action_mix:
            if action not in ACTION_KINDS:
                raise ValueError(f"unknown action {action!r}")
        _check_distribution(list(self.action_mix.values()), f"{self.name} action_mix")
        if self.action_mix.get("click_links", 0) > 0:
            _check_distribution(
                [p for _, p in self.clicks_per_visit], f"{self.name} clicks_per_visit"
            )
            if not self.source_ip_pool:
                raise ValueError(f"{self.name}: clicking profiles need a source IP pool")

    @staticmethod
    def _wire_in(data: dict) -> dict:
        # A missing or empty user_agent_pool in a profiles file means the bundled agents.
        return {k: v for k, v in data.items() if k != "user_agent_pool" or v}


def default_profiles(source_ips: Sequence[str] = ()) -> list[VisitorProfile]:
    """The bundled typologies, optionally rehomed onto a custom IP pool."""
    pool = tuple(source_ips) or tuple(f"203.0.113.{i}" for i in range(1, 40))
    return [
        VisitorProfile("curious", {"open_only": 1.0}, visits_per_day=2.0),
        VisitorProfile("lurker", {"expand_columns": 1.0}, visits_per_day=0.6),
        VisitorProfile("deleter", {"delete_content": 1.0}, visits_per_day=0.2),
        VisitorProfile("vandal", {"deface": 1.0}, visits_per_day=0.1),
        VisitorProfile(
            "prober",
            {"click_links": 1.0},
            clicks_per_visit=((1, 0.5), (2, 0.3), (4, 0.2)),
            source_ip_pool=pool,
            visits_per_day=1.2,
        ),
    ]


@dataclass(frozen=True)
class Action:
    at: datetime
    visitor: str
    sheet_id: str
    kind: str  # open | edit | click
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ActionTrace:
    actions: tuple[Action, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for earlier, later in zip(self.actions, self.actions[1:]):
            if later.at < earlier.at:
                raise ValueError("trace timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def to_json(self) -> str:
        return canonical_dumps(encode(self))

    @classmethod
    def from_json(cls, text: str) -> ActionTrace:
        return decode(cls, json.loads(text))


@dataclass(frozen=True)
class ExperimentTarget:
    name: str
    start: datetime
    days: int
    opens: int
    modifications: int

    def window(self) -> ExperimentWindow:
        return ExperimentWindow(self.name, self.start, self.start + timedelta(days=self.days))


@dataclass(frozen=True)
class TargetCounts:
    """Exact totals a constrained trace must reproduce."""

    experiments: tuple[ExperimentTarget, ...]
    clicks_total: int = 0
    controlled_visits: int = 0
    unique_controlled_ips: int = 0
    countries: int = 0

    def windows(self) -> list[ExperimentWindow]:
        return [t.window() for t in self.experiments]


class _EditPlanner:
    """Chooses edit targets such that every planned action changes the sheet.

    Cells are never reused across actions, widened columns track their
    planned absolute width, and vandal text carries a sequence number, so
    replaying the planned commands always yields a non-empty diff of the
    intended class.
    """

    def __init__(self, sheets: Sequence[HoneySheet]):
        self._sheets = {s.sheet_id: s for s in sheets}
        self._used: dict[str, set[tuple[int, int]]] = defaultdict(set)
        self._widths: dict[tuple[str, int], int] = {}
        self._seq = 0

    def _column_by_header(self, sheet: HoneySheet, prefix: str) -> list[int]:
        if sheet.n_rows == 0:
            return []
        return [
            c for c in range(sheet.n_cols) if sheet.grid[0][c].value.startswith(prefix)
        ]

    def _free_cells(self, sheet: HoneySheet, want_value: bool | None) -> list[tuple[int, int]]:
        used = self._used[sheet.sheet_id]
        out = []
        for r in range(1, sheet.n_rows):
            for c in range(sheet.n_cols):
                if (r, c) in used:
                    continue
                has_value = bool(sheet.grid[r][c].value)
                if want_value is None or has_value == want_value:
                    out.append((r, c))
        return out

    def expand(self, sheet: HoneySheet, rng: Random) -> list[EditCommand]:
        if sheet.n_cols == 0:
            raise InfeasibleTargets(f"sheet {sheet.sheet_id} has no columns to edit")
        preferred = self._column_by_header(sheet, "Transfer")
        col = rng.choice(preferred) if preferred else rng.randrange(sheet.n_cols)
        key = (sheet.sheet_id, col)
        current = self._widths.get(key, sheet.column_widths[col])
        new_width = current + rng.randrange(40, 160, 20)
        self._widths[key] = new_width
        return [set_column_width(col, new_width)]

    def delete(self, sheet: HoneySheet, rng: Random) -> list[EditCommand] | None:
        iban_cols = set(self._column_by_header(sheet, "IBAN"))
        candidates = self._free_cells(sheet, want_value=True)
        preferred = [rc for rc in candidates if rc[1] in iban_cols]
        pool = preferred or candidates
        if not pool:
            return None
        row, col = rng.choice(pool)
        self._used[sheet.sheet_id].add((row, col))
        return [set_value(row, col, "")]

    def deface(self, sheet: HoneySheet, rng: Random) -> list[EditCommand] | None:
        target = self._free_cells(sheet, want_value=None)
        if not target or sheet.n_rows < 1:
            return None
        self._seq += 1
        seq = self._seq
        insult_row, insult_col = rng.choice(target)
        self._used[sheet.sheet_id].add((insult_row, insult_col))
        commands = [
            set_value(insult_row, insult_col, f"\\MINIONSXDDDD #{seq}"),
            set_format(
                0,
                0,
                CellFormat(
                    font_size=18,
                    text_color=(255, 255, 0),
                    background_color=(seq % 256, (seq // 256) % 256, 32),
                ),
            ),
        ]
        link_cells = [
            rc
            for rc in self._free_cells(sheet, want_value=True)
            if sheet.grid[rc[0]][rc[1]].value.startswith("http")
        ]
        if link_cells:
            link_row, link_col = rng.choice(link_cells)
            self._used[sheet.sheet_id].add((link_row, link_col))
            commands.append(
                set_value(link_row, link_col, f"https://snip.example.net/t/minion{seq}")
            )
        return commands

    def plan(self, kind: str, sheet: HoneySheet, rng: Random) -> list[dict]:
        """The encoded commands of one edit action of the given kind."""
        commands = None
        if kind == "delete_content":
            commands = self.delete(sheet, rng)
        elif kind == "deface":
            commands = self.deface(sheet, rng)
        if commands is None:
            # Column expansion can always produce a fresh change.
            commands = self.expand(sheet, rng)
        return [encode(command) for command in commands]


def _weighted_choice(rng: Random, items: Sequence[tuple[Any, float]]) -> Any:
    x = rng.random() * sum(weight for _, weight in items)
    acc = 0.0
    for value, weight in items:
        acc += weight
        if x < acc:
            return value
    return items[-1][0]


def _strictly_increasing(actions: list[Action]) -> list[Action]:
    actions.sort(key=lambda a: a.at)
    out: list[Action] = []
    prev: datetime | None = None
    for action in actions:
        at = action.at
        if prev is not None and at <= prev:
            at = prev + timedelta(microseconds=1)
            action = replace(action, at=at)
        prev = at
        out.append(action)
    return out


def _links_for_sheets(
    registry: LinkRegistry, sheets: Sequence[HoneySheet], target_class: str
) -> list[HoneyLink]:
    wanted = {s.sheet_id for s in sheets}
    links = [l for l in registry.by_class(target_class) if l.sheet_id in wanted]
    links.sort(key=lambda l: l.token)
    return links


def _click_action(
    at: datetime,
    visitor: str,
    link: HoneyLink,
    ip: str,
    ua: str,
    rng: Random,
) -> Action:
    return Action(
        at=at,
        visitor=visitor,
        sheet_id=link.sheet_id,
        kind="click",
        params={
            "token": link.token,
            "target_class": link.target_class,
            "ip": ip,
            "port": rng.randint(1024, 65535),
            "user_agent": ua,
        },
    )


def _simulate_free(
    profiles: Sequence[VisitorProfile],
    sheets: Sequence[HoneySheet],
    registry: LinkRegistry,
    rng: Random,
    start: datetime,
    duration_days: float,
) -> list[Action]:
    end = start + timedelta(days=duration_days)
    planner = _EditPlanner(sheets)
    actions: list[Action] = []
    if not sheets:
        return actions
    for profile in profiles:
        if profile.visits_per_day <= 0:
            continue
        t = start
        while True:
            t = t + timedelta(seconds=rng.expovariate(profile.visits_per_day / 86400.0))
            if t >= end:
                break
            sheet = rng.choice(list(sheets))
            actions.append(Action(t, profile.name, sheet.sheet_id, "open"))
            behaviour = _weighted_choice(rng, list(profile.action_mix.items()))
            follow_up = t + timedelta(seconds=rng.randint(20, 600))
            if behaviour in ("expand_columns", "delete_content", "deface"):
                commands = planner.plan(behaviour, sheet, rng)
                actions.append(
                    Action(follow_up, profile.name, sheet.sheet_id, "edit", {"commands": commands})
                )
            elif behaviour == "click_links":
                links = _links_for_sheets(registry, [sheet], "controlled") + _links_for_sheets(
                    registry, [sheet], "decoy_bank"
                )
                if links:
                    n_clicks = _weighted_choice(rng, list(profile.clicks_per_visit))
                    for j in range(n_clicks):
                        actions.append(
                            _click_action(
                                follow_up + timedelta(seconds=5 * j),
                                profile.name,
                                rng.choice(links),
                                rng.choice(profile.source_ip_pool),
                                rng.choice(profile.user_agent_pool),
                                rng,
                            )
                        )
    return actions


def _window_moment(rng: Random, targets: TargetCounts) -> datetime:
    windows = [(t.start, t.days * 86400.0) for t in targets.experiments if t.days > 0]
    if not windows:
        raise InfeasibleTargets("clicks requested but no experiment windows exist")
    durations = [d for _, d in windows]
    start, duration = windows[rng.choices(range(len(windows)), weights=durations)[0]]
    return start + timedelta(seconds=rng.uniform(0.0, duration - 2.0))


def _simulate_constrained(
    profiles: Sequence[VisitorProfile],
    sheets: Sequence[HoneySheet],
    registry: LinkRegistry,
    targets: TargetCounts,
    geo: GeoTable | None,
    rng: Random,
) -> list[Action]:
    if not sheets and any(t.opens > 0 for t in targets.experiments):
        raise InfeasibleTargets("opens requested but no sheets supplied")
    for target in targets.experiments:
        if target.modifications > target.opens:
            raise InfeasibleTargets(
                f"{target.name}: {target.modifications} modifications exceed "
                f"{target.opens} opens"
            )
        if target.opens > 0 and target.days <= 0:
            raise InfeasibleTargets(f"{target.name}: opens requested in a zero-day window")
    if targets.controlled_visits > targets.clicks_total:
        raise InfeasibleTargets("controlled visits exceed total clicks")
    if targets.unique_controlled_ips > targets.controlled_visits:
        raise InfeasibleTargets("unique controlled IPs exceed controlled visits")
    if targets.controlled_visits > 0 and targets.unique_controlled_ips < 1:
        raise InfeasibleTargets("controlled visits need at least one unique IP")
    if targets.countries > targets.clicks_total:
        raise InfeasibleTargets("each click reaches one country at most")

    planner = _EditPlanner(sheets)
    actions: list[Action] = []
    edit_kinds = ("expand_columns", "delete_content", "deface")

    for target in targets.experiments:
        window_secs = target.days * 86400.0
        opens = [
            Action(
                at=target.start + timedelta(seconds=rng.uniform(0.0, window_secs - 2.0)),
                visitor=rng.choice(list(profiles)).name,
                sheet_id=rng.choice(list(sheets)).sheet_id if sheets else "",
                kind="open",
            )
            for _ in range(target.opens)
        ]
        actions.extend(opens)
        window_end = target.start + timedelta(days=target.days)
        for n, idx in enumerate(sorted(rng.sample(range(target.opens), target.modifications))):
            base = opens[idx]
            sheet = next(s for s in sheets if s.sheet_id == base.sheet_id)
            at = min(
                base.at + timedelta(seconds=rng.randint(30, 900)),
                window_end - timedelta(seconds=1),
            )
            commands = planner.plan(edit_kinds[n % len(edit_kinds)], sheet, rng)
            actions.append(
                Action(at, base.visitor, sheet.sheet_id, "edit", {"commands": commands})
            )

    decoy_clicks = targets.clicks_total - targets.controlled_visits
    if targets.clicks_total > 0:
        controlled_links = _links_for_sheets(registry, sheets, "controlled")
        decoy_links = _links_for_sheets(registry, sheets, "decoy_bank")
        if targets.controlled_visits > 0 and not controlled_links:
            raise InfeasibleTargets("controlled visits requested but no controlled links minted")
        if decoy_clicks > 0 and not decoy_links:
            raise InfeasibleTargets("decoy clicks requested but no decoy links minted")

        clickers = [p for p in profiles if p.source_ip_pool]
        if not clickers:
            raise InfeasibleTargets("clicks requested but no profile has an IP pool")
        ip_owner: dict[str, VisitorProfile] = {}
        for profile in clickers:
            for ip in profile.source_ip_pool:
                ip_owner.setdefault(ip, profile)
        all_ips = list(ip_owner)

        if targets.countries > 0:
            if geo is None:
                raise InfeasibleTargets("country target set but no geo table supplied")
            by_country: dict[str, list[str]] = defaultdict(list)
            for ip in all_ips:
                country = geo.lookup(ip)
                if country != "unknown":
                    by_country[country].append(ip)
            if len(by_country) < targets.countries:
                raise InfeasibleTargets(
                    f"profiles cover {len(by_country)} countries, need {targets.countries}"
                )
            chosen = rng.sample(sorted(by_country), targets.countries)
            usable_ips = [ip for c in chosen for ip in by_country[c]]
            coverage = [rng.choice(by_country[c]) for c in chosen]
        else:
            chosen = []
            usable_ips = all_ips
            coverage = []

        if len(usable_ips) < targets.unique_controlled_ips:
            raise InfeasibleTargets(
                f"{len(usable_ips)} usable IPs cannot supply "
                f"{targets.unique_controlled_ips} unique visitors"
            )

        controlled_ips = list(dict.fromkeys(coverage))[: targets.unique_controlled_ips]
        remaining = [ip for ip in usable_ips if ip not in controlled_ips]
        rng.shuffle(remaining)
        while len(controlled_ips) < targets.unique_controlled_ips:
            controlled_ips.append(remaining.pop())
        uncovered = [c for c in chosen if not any(ip in controlled_ips for ip in by_country[c])]
        if len(uncovered) > decoy_clicks:
            raise InfeasibleTargets(
                f"{len(uncovered)} countries can only be reached by decoy clicks "
                f"but just {decoy_clicks} are available"
            )

        def clicks(ips: list[str], links: list[HoneyLink]) -> None:
            for ip in ips:
                profile = ip_owner[ip]
                actions.append(
                    _click_action(
                        _window_moment(rng, targets),
                        profile.name,
                        rng.choice(links),
                        ip,
                        rng.choice(profile.user_agent_pool),
                        rng,
                    )
                )

        visit_ips = list(controlled_ips)
        visit_ips += [
            rng.choice(controlled_ips)
            for _ in range(targets.controlled_visits - len(controlled_ips))
        ]
        rng.shuffle(visit_ips)
        clicks(visit_ips, controlled_links)
        decoy_ips = [rng.choice(by_country[c]) for c in uncovered]
        decoy_ips += [
            rng.choice(usable_ips) for _ in range(decoy_clicks - len(decoy_ips))
        ]
        clicks(decoy_ips, decoy_links)
    return actions


def simulate(
    profiles: Sequence[VisitorProfile],
    sheets: Sequence[HoneySheet],
    registry: LinkRegistry,
    seed: int,
    duration_days: float = 0.0,
    targets: TargetCounts | None = None,
    geo: GeoTable | None = None,
    start: datetime = DEFAULT_START,
) -> ActionTrace:
    """Build a trace; identical arguments always yield an identical trace.

    With targets, the trace hits the requested totals exactly (or raises
    InfeasibleTargets); without, activity follows the profiles' mixes over
    duration_days from start.
    """
    rng = Random(seed)
    if targets is not None:
        actions = _simulate_constrained(profiles, sheets, registry, targets, geo, rng)
    else:
        actions = _simulate_free(profiles, sheets, registry, rng, start, duration_days)
    ordered = _strictly_increasing(actions)

    clicks = [a for a in ordered if a.kind == "click"]
    controlled = [a for a in clicks if a.params["target_class"] == "controlled"]
    meta = {
        "visitors": len({a.visitor for a in ordered}),
        "opens": sum(1 for a in ordered if a.kind == "open"),
        "modifications": sum(1 for a in ordered if a.kind == "edit"),
        "clicks": len(clicks),
        "controlled_visits": len(controlled),
        "unique_controlled_ips": len({a.params["ip"] for a in controlled}),
        "unique_click_ips": len({a.params["ip"] for a in clicks}),
    }
    return ActionTrace(actions=tuple(ordered), meta=meta)


def replay(
    trace: ActionTrace, sheets: dict[str, HoneySheet], core: LinkServerCore, mailbox_dir: Path
) -> None:
    """Drive every traced action through the pipeline, in order.

    Opens and edits emit mailbox notifications; clicks go through the
    tracker core and land in the access log. A rejected action aborts
    with the index of the offender.
    """
    host = urlsplit(core.registry.short_base).netloc
    for index, action in enumerate(trace):
        try:
            if action.kind == "open":
                emit_notification(open_event(action.sheet_id, action.at), mailbox_dir)
            elif action.kind == "edit":
                sheet = sheets.get(action.sheet_id)
                if sheet is None:
                    raise ReplayError(index, f"unknown sheet {action.sheet_id!r}")
                before = take_snapshot(sheet, action.at)
                for data in action.params["commands"]:
                    apply_edit(sheet, decode(EditCommand, data))
                changes = diff(before, take_snapshot(sheet, action.at))
                if changes.is_empty():
                    raise ReplayError(index, "edit action produced no change")
                emit_notification(
                    modification_event(action.sheet_id, action.at, changes), mailbox_dir
                )
            elif action.kind == "click":
                params = action.params
                headers = [("Host", host), ("User-Agent", params["user_agent"])]
                core.handle(
                    "GET",
                    f"/t/{params['token']}",
                    headers,
                    params["ip"],
                    params["port"],
                    at=action.at,
                )
            else:
                raise ReplayError(index, f"unknown action kind {action.kind!r}")
        except ReplayError:
            raise
        except (HoneySheetsError, KeyError, ValueError) as exc:
            raise ReplayError(index, str(exc)) from exc
