"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from random import Random

from honeysheets._util import compact_dumps, decode, encode
from honeysheets.analytics import aggregate
from honeysheets.honeygen import generate_iban, validate_iban
from honeysheets.honeylink import (
    AccessLogEntry,
    AccessLogWriter,
    HoneyLinkServer,
    LinkRegistry,
    LinkServerCore,
    load_access_log,
    mint_token,
)
from honeysheets.leak import HACKER_THEME, NAIVE_THEME, LeakPlan, schedule
from honeysheets.notify import emit_notification, ingest_mailbox, parse_message, emit_message
from honeysheets.sheetstore import (
    CellFormat,
    apply_changeset,
    apply_edit,
    classify,
    diff,
    set_column_width,
    set_format,
    set_value,
    take_snapshot,
)
from honeysheets.simharness import (
    ExperimentTarget,
    TargetCounts,
    default_profiles,
    replay,
    simulate,
)

from conftest import geo_ip_pool, make_fleet, make_geo_table, utc
from test_honeygen import mod97_oracle
from test_notify import random_event
from test_sheetstore import brute_force_diff, random_snapshot


def _verdict(criterion: int, description: str, ok: bool) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}")


def test_criterion_1_iban_validity_against_oracle() -> None:
    started = time.perf_counter()
    failures = 0
    countries = ("GB", "DE", "FR")
    for seed in range(1000):
        iban = generate_iban(countries[seed % 3], Random(seed))
        if mod97_oracle(iban.text) != 1 or not validate_iban(iban.text):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 1.0
    _verdict(1, f"1000 seeded IBANs, {failures} oracle failures, {elapsed:.3f}s", ok)
    assert failures == 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


def test_criterion_2_diff_equals_brute_force_and_roundtrips() -> None:
    rng = Random(20160123)
    mismatches = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 50), rng.randint(1, 20)
        before = random_snapshot(rng, rows, cols)
        after = random_snapshot(rng, rows, cols)
        changes = diff(before, after)
        cells, widths = brute_force_diff(before, after)
        got_cells = {(c.row, c.col, c.old, c.new) for c in changes.cell_changes}
        got_widths = {(l.col, l.old_width, l.new_width) for l in changes.layout_changes}
        rebuilt = apply_changeset(before, changes)
        if (
            got_cells != cells
            or got_widths != widths
            or changes.structural_changes
            or rebuilt.grid != after.grid
            or rebuilt.column_widths != after.column_widths
        ):
            mismatches += 1
    _verdict(2, f"500 random snapshot pairs, {mismatches} oracle/round-trip mismatches", mismatches == 0)
    assert mismatches == 0


def test_criterion_3_field_count_replay(tmp_path) -> None:
    started = time.perf_counter()
    registry, sheets = make_fleet()
    geo = make_geo_table()
    profiles = default_profiles(source_ips=geo_ip_pool())
    targets = TargetCounts(
        experiments=(
            ExperimentTarget("hacker", utc(2016, 1, 23), 46, 112, 17),
            ExperimentTarget("naive", utc(2016, 3, 9), 26, 53, 11),
        ),
        clicks_total=174,
        controlled_visits=44,
        unique_controlled_ips=39,
        countries=35,
    )
    trace = simulate(profiles, sheets, registry, seed=7, targets=targets, geo=geo)

    sink = AccessLogWriter(tmp_path / "access.log")
    core = LinkServerCore(registry, sink)
    replay(trace, {s.sheet_id: s for s in sheets}, core, tmp_path / "mailbox")
    sink.close()
    timeline, quarantined = ingest_mailbox(tmp_path / "mailbox")
    logs = load_access_log(tmp_path / "access.log")
    controlled = {link.token for link in registry.by_class("controlled")}
    report = aggregate(timeline, logs, geo, targets.windows(), controlled_tokens=controlled)
    elapsed = time.perf_counter() - started

    expected = {
        "hacker opens": (report.experiment("hacker").open_count, 112),
        "naive opens": (report.experiment("naive").open_count, 53),
        "hacker modifications": (report.experiment("hacker").modification_count, 17),
        "naive modifications": (report.experiment("naive").modification_count, 11),
        "total opens": (report.total.open_count, 165),
        "total modifications": (report.total.modification_count, 28),
        "total clicks": (report.total.click_count, 174),
        "controlled visits": (report.total.controlled_link_visit_count, 44),
        "unique controlled IPs": (report.total.unique_ip_count, 39),
        "distinct countries": (report.total.distinct_country_count, 35),
    }
    bad = {k: v for k, v in expected.items() if v[0] != v[1]}
    ok = not bad and quarantined == 0 and elapsed < 30.0
    _verdict(3, f"field-count replay exact match in {elapsed:.2f}s"
                + (f"; mismatches {bad}" if bad else ""), ok)
    assert quarantined == 0
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_4_server_logging_completeness(tmp_path) -> None:
    registry = LinkRegistry()
    rng = Random(44)
    tokens = [
        mint_token(registry, "controlled", f"https://trap.example.net/{i}", "s1", rng).token
        for i in range(3)
    ]
    sink = AccessLogWriter(tmp_path / "access.log")
    core = LinkServerCore(registry, sink)
    with HoneyLinkServer(core) as server:
        host, port = server.address

        def hit(i: int) -> tuple[bool, int, str | None]:
            valid = i % 2 == 0
            token = tokens[i % 3] if valid else f"bad{i:04d}"
            conn = http.client.HTTPConnection(host, port, timeout=15)
            conn.request("GET", f"/t/{token}", headers={"User-Agent": f"load/{i}"})
            response = conn.getresponse()
            response.read()
            location = response.getheader("Location")
            conn.close()
            return valid, response.status, location

        with ThreadPoolExecutor(32) as pool:
            results = list(pool.map(hit, range(1000)))
    sink.close()

    wrong_valid = sum(
        1 for valid, status, loc in results
        if valid and (status != 302 or loc != registry.redirect_target)
    )
    wrong_invalid = sum(1 for valid, status, _ in results if not valid and status != 404)
    lines = (tmp_path / "access.log").read_text().splitlines()
    parsed = []
    corrupt = 0
    for line in lines:
        try:
            entry = decode(AccessLogEntry, json.loads(line))
            if compact_dumps(encode(entry)) != line:
                corrupt += 1
            parsed.append(entry)
        except Exception:
            corrupt += 1
    ok = len(lines) == 1000 and corrupt == 0 and wrong_valid == 0 and wrong_invalid == 0
    _verdict(4, f"{len(lines)} log lines for 1000 concurrent requests, "
                f"{corrupt} corrupt, {wrong_valid}+{wrong_invalid} wrong responses", ok)
    assert len(lines) == 1000
    assert corrupt == 0
    assert wrong_valid == 0 and wrong_invalid == 0


def test_criterion_5_leak_schedule_counts() -> None:
    _, sheets = make_fleet()
    by_id = {s.sheet_id: s for s in sheets}
    hacker = schedule(
        LeakPlan(HACKER_THEME, utc(2016, 1, 23), days=46, posts_per_day=2), sheets, Random(1)
    )
    naive = schedule(
        LeakPlan(NAIVE_THEME, utc(2016, 3, 9), days=26, posts_per_day=2), sheets, Random(2)
    )
    link_violations = sum(
        1
        for post in hacker + naive
        if post.rendered_text.count(by_id[post.sheet_id].share_link) != 1
    )
    spread = Counter(post.sheet_id for post in hacker)
    fair = len(spread) == 5 and max(spread.values()) - min(spread.values()) <= 1
    ok = len(hacker) == 92 and len(naive) == 52 and link_violations == 0 and fair
    _verdict(5, f"hacker posts {len(hacker)}, naive posts {len(naive)}, "
                f"{link_violations} link violations, fair spread {fair}", ok)
    assert len(hacker) == 92
    assert len(naive) == 52
    assert link_violations == 0
    assert fair


def test_criterion_6_notification_roundtrip_and_quarantine(tmp_path) -> None:
    rng = Random(66)
    failures = 0
    events = []
    for _ in range(1000):
        event = random_event(rng)
        events.append(event)
        if parse_message(emit_message(event)) != event:
            failures += 1

    box_a, box_b = tmp_path / "a", tmp_path / "b"
    for event in events[:200]:
        emit_notification(event, box_a)
    shuffled = events[:200]
    rng.shuffle(shuffled)
    for event in shuffled:
        emit_notification(event, box_b)
    for i, path in enumerate(sorted(box_b.glob("*.msg"))):
        path.rename(box_b / f"renamed-{i ^ 85:04d}.msg")
    timeline_a, _ = ingest_mailbox(box_a)
    timeline_b, _ = ingest_mailbox(box_b)
    order_identical = timeline_a == timeline_b

    (box_a / "corrupt.msg").write_text("not a notification", encoding="utf-8")
    timeline_after, quarantined = ingest_mailbox(box_a)
    survived = timeline_after == timeline_a and quarantined == 1

    ok = failures == 0 and order_identical and survived
    _verdict(6, f"1000 round trips with {failures} failures, shuffled timeline identical "
                f"{order_identical}, corrupt file quarantined {survived}", ok)
    assert failures == 0
    assert order_identical
    assert survived


def test_criterion_7_observed_modification_scenarios() -> None:
    _, sheets = make_fleet(n_sheets=1)
    sheet = sheets[0]
    t0, t1 = utc(2016, 2, 1, 10), utc(2016, 2, 1, 12)

    before = take_snapshot(sheet, t0)
    apply_edit(sheet, set_value(3, 2, ""))  # wipe one account number
    deletion_class = classify(diff(before, take_snapshot(sheet, t1)))

    before = take_snapshot(sheet, t0)
    apply_edit(sheet, set_column_width(5, 400))  # widen the links column
    expansion_class = classify(diff(before, take_snapshot(sheet, t1)))

    before = take_snapshot(sheet, t0)
    apply_edit(sheet, set_format(1, 0, CellFormat(font_size=20, text_color=(255, 0, 0),
                                                  background_color=(0, 0, 0))))
    link_cell = next(
        (r, c)
        for r in range(1, sheet.n_rows)
        for c in range(sheet.n_cols)
        if sheet.grid[r][c].value.startswith("https://snip")
    )
    apply_edit(sheet, set_value(link_cell[0], link_cell[1], "https://short.example/ufniSo"))
    apply_edit(sheet, set_value(4, 1, "\\MINIONSXDDDD"))
    deface_class = classify(diff(before, take_snapshot(sheet, t1)))

    got = (deletion_class, expansion_class, deface_class)
    want = ("content", "layout_only", "mixed")
    _verdict(7, f"deletion/expansion/deface classify as {got}", got == want)
    assert got == want
