from __future__ import annotations

import json
import signal
import subprocess
import sys
import urllib.error
import urllib.request

from honeysheets._util import decode, encode
from honeysheets.cli import run
from honeysheets.honeylink import (
    AccessLogWriter,
    HoneyLinkServer,
    LinkRegistry,
    LinkServerCore,
    load_access_log,
)
from honeysheets.sheetstore import Cell, ChangeSet, sheets_from_json, sheets_to_json

from conftest import exchange, make_geo_table, geo_ip_pool


def test_help_exits_zero(capsys) -> None:
    assert run(["--help"]) == 0
    assert "honeysheets" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys) -> None:
    assert run(["report", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--timeline" in out


def test_unknown_subcommand_is_usage_error(capsys) -> None:
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error() -> None:
    assert run(["gen", "--out", "x.json"]) == 1


def test_missing_input_file_is_data_error(tmp_path, capsys) -> None:
    code = run(["ingest", "--mailbox", str(tmp_path / "nope"), "--out", str(tmp_path / "t.json")])
    assert code == 0  # empty mailbox is legal: zero events
    code = run([
        "report",
        "--timeline", str(tmp_path / "missing.json"),
        "--log", str(tmp_path / "missing.log"),
        "--geo", str(tmp_path / "missing.csv"),
        "--bounds", str(tmp_path / "missing-bounds.json"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_bad_config_aborts(tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"geo_table_path": str(tmp_path / "missing.csv")}))
    code = run(["--config", str(config), "ingest", "--mailbox", str(tmp_path), "--out",
                str(tmp_path / "t.json")])
    assert code == 2


def test_config_rejects_unknown_keys_and_non_objects(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    ingest = ["ingest", "--mailbox", str(tmp_path), "--out", str(tmp_path / "t.json")]
    for payload, message in (({"bogus": 1}, "unknown key(s) bogus"), ([1, 2], "JSON object")):
        config.write_text(json.dumps(payload))
        assert run(["--config", str(config), *ingest]) == 2
        assert message in capsys.readouterr().err
    config.write_text(json.dumps({"short_base": "https://s.example.org"}))
    registry_path = tmp_path / "registry.json"
    assert run(["--config", str(config), "gen", "--rows", "2", "--links", "1", "--controlled", "1",
                "--out", str(tmp_path / "s.json"), "--registry", str(registry_path)]) == 0
    assert LinkRegistry.load(registry_path).short_base == "https://s.example.org"


def test_gen_writes_sheets_and_registry(tmp_path) -> None:
    sheets_path = tmp_path / "sheets.json"
    registry_path = tmp_path / "registry.json"
    code = run([
        "gen", "--rows", "10", "--links", "9", "--controlled", "3", "--seed", "11",
        "--count", "2", "--out", str(sheets_path), "--registry", str(registry_path),
    ])
    assert code == 0
    sheets = sheets_from_json(sheets_path.read_text())
    assert len(sheets) == 2
    assert all(s.n_rows == 11 for s in sheets)
    registry = LinkRegistry.load(registry_path)
    assert len(registry.links) == 18
    assert len(registry.by_class("controlled")) == 6


def test_diff_command(tmp_path) -> None:
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    out = tmp_path / "changes.json"
    run(["gen", "--rows", "3", "--links", "0", "--controlled", "0", "--seed", "5",
         "--out", str(before), "--registry", str(tmp_path / "r1.json")])
    sheets = sheets_from_json(before.read_text())
    sheets[0].grid[1][0] = Cell(value="renamed")
    after.write_text(sheets_to_json(sheets))
    assert run(["diff", "--before", str(before), "--after", str(after), "--out", str(out)]) == 0
    changes = decode(ChangeSet, json.loads(out.read_text()))
    assert len(changes.cell_changes) == 1
    assert changes.cell_changes[0].new.value == "renamed"


def test_diff_command_rejects_a_ragged_snapshot(tmp_path, capsys) -> None:
    snapshot = {"sheet_id": "s", "taken_at": "2024-01-01T00:00:00Z",
                "grid": [[encode(Cell("a"))] * 2], "column_widths": [100] * 3}
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps(snapshot))
    assert run(["diff", "--before", str(ragged), "--after", str(ragged),
                "--out", str(tmp_path / "changes.json")]) == 2
    assert "ragged grid" in capsys.readouterr().err


def test_full_pipeline_through_cli(tmp_path) -> None:
    sheets_path = tmp_path / "sheets.json"
    registry_path = tmp_path / "registry.json"
    geo_path = tmp_path / "geo.csv"
    targets_path = tmp_path / "targets.json"
    profiles_path = tmp_path / "profiles.json"
    trace_path = tmp_path / "trace.json"
    timeline_path = tmp_path / "timeline.json"
    bounds_path = tmp_path / "bounds.json"
    log_path = tmp_path / "access.log"
    mailbox = tmp_path / "mailbox"
    out_dir = tmp_path / "out"

    assert run([
        "gen", "--rows", "20", "--links", "9", "--controlled", "3", "--seed", "7",
        "--count", "5", "--out", str(sheets_path), "--registry", str(registry_path),
    ]) == 0

    make_geo_table().save_csv(geo_path)
    from honeysheets.simharness import default_profiles

    profiles_path.write_text(json.dumps([encode(p) for p in default_profiles(geo_ip_pool())]))
    targets_path.write_text(json.dumps({
        "experiments": [
            {"name": "hacker", "start": "2016-01-23T00:00:00Z", "days": 46,
             "opens": 112, "modifications": 17},
            {"name": "naive", "start": "2016-03-09T00:00:00Z", "days": 26,
             "opens": 53, "modifications": 11},
        ],
        "clicks_total": 174, "controlled_visits": 44,
        "unique_controlled_ips": 39, "countries": 35,
    }))
    bounds_path.write_text(json.dumps([
        {"name": "hacker", "start": "2016-01-23T00:00:00Z", "end": "2016-03-09T00:00:00Z"},
        {"name": "naive", "start": "2016-03-09T00:00:00Z", "end": "2016-04-04T00:00:00Z"},
    ]))

    assert run([
        "leak", "--theme", "hacker", "--days", "46", "--per-day", "2",
        "--sheets", str(sheets_path), "--out", str(tmp_path / "posts"),
        "--start", "2016-01-23T00:00:00Z", "--seed", "3",
    ]) == 0
    assert len(list((tmp_path / "posts").glob("*.txt"))) == 92

    assert run([
        "simulate", "--profiles", str(profiles_path), "--seed", "42",
        "--targets", str(targets_path), "--sheets", str(sheets_path),
        "--registry", str(registry_path), "--geo", str(geo_path),
        "--out", str(trace_path),
    ]) == 0

    assert run([
        "replay", "--trace", str(trace_path), "--sheets", str(sheets_path),
        "--registry", str(registry_path), "--mailbox", str(mailbox),
        "--log", str(log_path),
    ]) == 0

    assert run(["ingest", "--mailbox", str(mailbox), "--out", str(timeline_path)]) == 0

    assert run([
        "report", "--timeline", str(timeline_path), "--log", str(log_path),
        "--geo", str(geo_path), "--bounds", str(bounds_path),
        "--registry", str(registry_path), "--out", str(out_dir),
    ]) == 0

    report = json.loads((out_dir / "report.json").read_text())
    assert report["total"]["open_count"] == 165
    assert report["total"]["modification_count"] == 28
    assert report["total"]["click_count"] == 174
    assert report["total"]["controlled_link_visit_count"] == 44
    assert report["total"]["unique_ip_count"] == 39
    assert report["total"]["distinct_country_count"] == 35
    countries_csv = (out_dir / "countries.csv").read_text().strip().splitlines()
    assert len(countries_csv) == 1 + 35
    assert len(load_access_log(log_path)) == 174


def test_serve_command_over_subprocess(tmp_path) -> None:
    registry_path = tmp_path / "registry.json"
    run(["gen", "--rows", "2", "--links", "3", "--controlled", "3", "--seed", "1",
         "--out", str(tmp_path / "s.json"), "--registry", str(registry_path)])
    registry = LinkRegistry.load(registry_path)
    token = next(iter(registry.links))
    log_path = tmp_path / "access.log"

    proc = subprocess.Popen(
        [sys.executable, "-m", "honeysheets.cli", "serve",
         "--registry", str(registry_path), "--log", str(log_path),
         "--bind", "127.0.0.1:0"],
        stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stderr.readline()
        assert "listening on" in line
        port = int(line.strip().rsplit(":", 1)[1])

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None

        opener = urllib.request.build_opener(NoRedirect)
        try:
            opener.open(f"http://127.0.0.1:{port}/t/{token}", timeout=5)
        except urllib.error.HTTPError as err:
            assert err.code == 302
            assert err.headers["Location"] == registry.redirect_target
        else:
            raise AssertionError("expected the redirect to surface as HTTPError")
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)
    assert proc.returncode == 0
    entries = load_access_log(log_path)
    assert len(entries) == 1 and entries[0].token == token


def test_serve_prints_its_counters_on_sigusr1_and_at_shutdown(tmp_path) -> None:
    registry_path = tmp_path / "registry.json"
    run(["gen", "--rows", "2", "--links", "3", "--controlled", "3", "--seed", "1",
         "--out", str(tmp_path / "s.json"), "--registry", str(registry_path)])
    token = next(iter(LinkRegistry.load(registry_path).links))
    proc = subprocess.Popen(
        [sys.executable, "-m", "honeysheets.cli", "serve", "--registry", str(registry_path),
         "--log", str(tmp_path / "access.log"), "--bind", "127.0.0.1:0"],
        stderr=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stderr.readline().strip().rsplit(":", 1)[1])
        for request in (f"GET /t/{token} HTTP/1.1\r\nConnection: close\r\n\r\n",
                        "GET /robots.txt HTTP/1.0\r\n\r\n", "GARBAGE\r\n"):
            assert exchange(("127.0.0.1", port), request).startswith(b"HTTP/1.1 ")
        proc.send_signal(signal.SIGUSR1)
        counters = json.loads(proc.stderr.readline())
    finally:
        proc.send_signal(signal.SIGINT)
        rest = proc.communicate(timeout=10)[1]
    assert proc.returncode == 0
    assert counters == {"answers": {"302": 1, "400": 1, "404": 1}, "malformed": 1,
                        "idle_closes": 0, "open_connections": 0, "peak_connections": 1,
                        "sink_failures": 0}
    assert json.loads(rest.splitlines()[-1]) == counters


def _replayed_world(tmp_path):
    """Sheets, a free-running trace and the report inputs; returns the report arguments."""
    sheets, registry, geo = tmp_path / "sheets.json", tmp_path / "registry.json", tmp_path / "geo.csv"
    profiles, trace, bounds = tmp_path / "profiles.json", tmp_path / "trace.json", tmp_path / "b.json"
    assert run(["gen", "--count", "2", "--seed", "7", "--out", str(sheets),
                "--registry", str(registry)]) == 0
    make_geo_table().save_csv(geo)
    from honeysheets.simharness import default_profiles

    profiles.write_text(json.dumps([encode(p) for p in default_profiles(geo_ip_pool())]))
    bounds.write_text(json.dumps([
        {"name": "all", "start": "2016-01-23T00:00:00Z", "end": "2016-03-01T00:00:00Z"},
    ]))
    assert run(["simulate", "--profiles", str(profiles), "--seed", "5", "--days", "20",
                "--start", "2016-01-23T00:00:00Z", "--sheets", str(sheets),
                "--registry", str(registry), "--out", str(trace)]) == 0
    replay = ["replay", "--trace", str(trace), "--sheets", str(sheets), "--registry", str(registry)]
    report = ["--geo", str(geo), "--bounds", str(bounds), "--registry", str(registry)]
    return replay, report


def _replay_and_report(replay, report, out, times: int = 1) -> int:
    mailbox, log, timeline = out / "mailbox", out / "access.log", out / "timeline.json"
    for _ in range(times):
        assert run([*replay, "--mailbox", str(mailbox), "--log", str(log)]) == 0
    assert run(["ingest", "--mailbox", str(mailbox), "--out", str(timeline)]) == 0
    return run(["report", "--timeline", str(timeline), "--log", str(log), *report,
                "--out", str(out / "report")])


def test_replaying_twice_reports_like_one_replay(tmp_path) -> None:
    replay, report = _replayed_world(tmp_path)
    (tmp_path / "once").mkdir()
    (tmp_path / "twice").mkdir()
    assert _replay_and_report(replay, report, tmp_path / "once") == 0
    assert _replay_and_report(replay, report, tmp_path / "twice", times=2) == 0
    log_lines = (tmp_path / "twice" / "access.log").read_text().splitlines()
    assert len(log_lines) == 2 * len(load_access_log(tmp_path / "twice" / "access.log"))
    once = json.loads((tmp_path / "once" / "report" / "report.json").read_text())
    assert once["total"]["click_count"] > 0
    for name in ("report.json", "countries.csv"):
        assert (tmp_path / "twice" / "report" / name).read_bytes() == (
            tmp_path / "once" / "report" / name
        ).read_bytes()


def test_report_accepts_the_malformed_requests_the_tracker_logs(tmp_path) -> None:
    replay, report = _replayed_world(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert _replay_and_report(replay, report, out) == 0
    before = (out / "report" / "report.json").read_bytes()
    log = out / "access.log"
    logged = len(load_access_log(log))
    with AccessLogWriter(log) as sink:
        core = LinkServerCore(LinkRegistry.load(tmp_path / "registry.json"), sink)
        with HoneyLinkServer(core) as server:
            for request in ("GARBAGE\r\n", "GET /x HTTP/9.9\r\n\r\n",
                            "GET /" + "x" * 65521 + " HTTP/1.1\r\n"):
                exchange(server.address, request)
    assert [e.method for e in load_access_log(log)[logged:]] == ["GARBAGE", "GET", "GET"]
    assert _replay_and_report(replay, report, out, times=0) == 0
    assert (out / "report" / "report.json").read_bytes() == before


def test_report_skips_a_torn_last_log_line_and_rejects_a_bad_one(tmp_path, capsys) -> None:
    replay, report = _replayed_world(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert _replay_and_report(replay, report, out) == 0
    clicks = json.loads((out / "report" / "report.json").read_text())["total"]["click_count"]
    log = out / "access.log"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:-1]) + lines[-1][:20])
    capsys.readouterr()
    assert _replay_and_report(replay, report, out, times=0) == 0
    assert f"line {len(lines)} is torn" in capsys.readouterr().err
    torn = json.loads((out / "report" / "report.json").read_text())
    assert torn["total"]["click_count"] == clicks - 1

    log.write_text("".join(lines[:2]) + "{not json\n" + "".join(lines[3:]))
    assert _replay_and_report(replay, report, out, times=0) == 2
    assert "line 3:" in capsys.readouterr().err
