"""Joins the event timeline and access logs into attacker-activity reports.

A click is a logged tracker request whose token resolved; a visit is such
a click on a controlled-class link. Unique visitor IPs are counted over
controlled-link clicks (the channel where the operator actually sees the
peer address), while country and browser breakdowns cover clicks on every
channel. IPs that match no prefix bucket under "unknown", which never
counts as a distinct country.
"""

from __future__ import annotations

import csv
import ipaddress
import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Collection, Iterable, Sequence

from ._util import canonical_dumps, decode, encode
from .errors import BadBoundaries, ExportError
from .honeylink import AccessLogEntry, parse_user_agent
from .notify import EventTimeline

UNKNOWN_COUNTRY = "unknown"


class GeoTable:
    """Longest-prefix-match table from CIDR prefixes to country codes.

    Lookups mask the address at each prefix length present in the table,
    longest first, and probe a per-length dictionary; overlapping prefixes
    are fine because the longest one wins.
    """

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self.entries: list[tuple[str, str]] = []
        self._buckets: dict[tuple[int, int], dict[int, str]] = {}
        for cidr, country in entries:
            network = ipaddress.ip_network(cidr, strict=True)
            self.entries.append((cidr, country))
            bucket = self._buckets.setdefault((network.version, network.prefixlen), {})
            bucket[int(network.network_address)] = country
        self._lengths = {
            4: sorted((p for v, p in self._buckets if v == 4), reverse=True),
            6: sorted((p for v, p in self._buckets if v == 6), reverse=True),
        }

    def lookup(self, ip: str) -> str:
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return UNKNOWN_COUNTRY
        bits = addr.max_prefixlen
        value = int(addr)
        for prefixlen in self._lengths[addr.version]:
            masked = value >> (bits - prefixlen) << (bits - prefixlen) if prefixlen else 0
            country = self._buckets[(addr.version, prefixlen)].get(masked)
            if country is not None:
                return country
        return UNKNOWN_COUNTRY

    @classmethod
    def load_csv(cls, path: str | Path) -> GeoTable:
        entries = []
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.reader(handle):
                if not row or row[0].strip() == "cidr":
                    continue
                entries.append((row[0].strip(), row[1].strip()))
        return cls(entries)

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["cidr", "country"])
            writer.writerows(self.entries)


@dataclass(frozen=True)
class ExperimentWindow:
    """Half-open time range [start, end) labelling one experiment."""

    name: str
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window {self.name!r} ends before it starts")

    def contains(self, at: datetime) -> bool:
        return self.start <= at < self.end


def load_windows(path: str | Path) -> list[ExperimentWindow]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [decode(ExperimentWindow, item) for item in data]


@dataclass
class ReportSection:
    open_count: int = 0
    modification_count: int = 0
    modification_class_histogram: dict[str, int] = field(default_factory=dict)
    click_count: int = 0
    unique_ip_count: int = 0
    controlled_link_visit_count: int = 0
    country_histogram: dict[str, int] = field(default_factory=dict)
    browser_histogram: dict[str, int] = field(default_factory=dict)
    os_histogram: dict[str, int] = field(default_factory=dict)

    @property
    def distinct_country_count(self) -> int:
        return sum(
            1
            for country, count in self.country_histogram.items()
            if country != UNKNOWN_COUNTRY and count > 0
        )

    def _wire_out(self, data: dict) -> dict:
        data["distinct_country_count"] = self.distinct_country_count
        return data


@dataclass
class ExperimentReport:
    window: ExperimentWindow
    section: ReportSection

    def _wire_out(self, data: dict) -> dict:
        # An experiment is written as one flat object: window, then counts.
        return {**data["window"], **data["section"]}


@dataclass
class Report:
    total: ReportSection
    experiments: list[ExperimentReport] = field(default_factory=list)

    def experiment(self, name: str) -> ReportSection:
        for item in self.experiments:
            if item.window.name == name:
                return item.section
        raise KeyError(name)


def _build_section(
    events: Iterable,
    entries: Iterable[AccessLogEntry],
    geo: GeoTable,
    controlled_tokens: Collection[str] | None,
) -> ReportSection:
    section = ReportSection()
    class_counter: Counter = Counter()
    for event in events:
        if event.kind == "open":
            section.open_count += 1
        else:
            section.modification_count += 1
            class_counter[event.modification_class] += 1
    section.modification_class_histogram = dict(class_counter)

    clicks = [entry for entry in entries if entry.token is not None]
    controlled = [
        entry
        for entry in clicks
        if controlled_tokens is None or entry.token in controlled_tokens
    ]
    section.click_count = len(clicks)
    section.controlled_link_visit_count = len(controlled)
    section.unique_ip_count = len({entry.ip for entry in controlled})

    countries: Counter = Counter()
    browsers: Counter = Counter()
    systems: Counter = Counter()
    for entry in clicks:
        countries[geo.lookup(entry.ip)] += 1
        browser, os_name = parse_user_agent(entry.header("User-Agent") or "")
        browsers[browser] += 1
        systems[os_name] += 1
    section.country_histogram = dict(countries)
    section.browser_histogram = dict(browsers)
    section.os_histogram = dict(systems)
    return section


def aggregate(
    timeline: EventTimeline,
    logs: Sequence[AccessLogEntry],
    geo: GeoTable,
    experiment_boundaries: Sequence[ExperimentWindow],
    controlled_tokens: Collection[str] | None = None,
) -> Report:
    """Compute per-experiment and overall statistics.

    controlled_tokens narrows "visits" to clicks on those tokens; without
    it every resolved click counts as a controlled visit, which is correct
    when the whole registry is controlled infrastructure.
    """
    ordered = sorted(experiment_boundaries, key=lambda w: w.start)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.start < earlier.end:
            raise BadBoundaries(
                f"windows {earlier.name!r} and {later.name!r} overlap"
            )

    report = Report(total=_build_section(timeline, logs, geo, controlled_tokens))
    for window in experiment_boundaries:
        events = [e for e in timeline if window.contains(e.occurred_at)]
        entries = [e for e in logs if window.contains(e.received_at)]
        report.experiments.append(
            ExperimentReport(
                window=window,
                section=_build_section(events, entries, geo, controlled_tokens),
            )
        )
    return report


def export_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write report.json and countries.csv; re-exports are byte-identical."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_text(canonical_dumps(encode(report)), encoding="utf-8")
        rows = [
            (country, count)
            for country, count in report.total.country_histogram.items()
            if country != UNKNOWN_COUNTRY and count > 0
        ]
        rows.sort(key=lambda item: (-item[1], item[0]))
        csv_path = out / "countries.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["country", "count"])
            writer.writerows(rows)
    except OSError as exc:
        raise ExportError(f"cannot write report to {out}: {exc}") from exc
    return [report_path, csv_path]
