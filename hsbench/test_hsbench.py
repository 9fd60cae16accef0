"""Tests of the benchmark itself: each output check passes on the real outputs
of a small round and rejects a planted error.

    PYTHONPATH=src python -m pytest -q hsbench
"""

from __future__ import annotations

import csv
import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import rounds
import run
from procs import Launch, Spawner, Tracker
from workloads import BIG_SHEETS, CAMPAIGN, TrackerMix, write_inputs

ROOT = Path(__file__).resolve().parents[1]
SMALL_MIX = TrackerMix(clicks=20, scan_requests=120, get_unknown=4, head=12, post=12, bad_length=2)

SMALL_CAMPAIGN = replace(
    CAMPAIGN, sheets=6, countries=14, experiments=(("hacker", 40, 9), ("naive", 20, 5)),
    clicks_total=40, controlled_visits=12, unique_controlled_ips=8, target_countries=7,
    repeats={"report": 2}, mix=SMALL_MIX,
)
SMALL_BIG = replace(BIG_SHEETS, sheets=2, rows=80, countries=6, days=6.0, mix=SMALL_MIX)


def _round(tmp_path_factory, workload, traced=False):
    base = tmp_path_factory.mktemp(workload.name)
    inputs = write_inputs(workload, 7, base / "inputs")
    with Spawner() as spawner:
        launch = Launch(ROOT, spawner, spans_dir=base / "round" / "spans" if traced else None)
        result = rounds.run_round(workload, inputs, base / "round", launch)
    if traced:
        run.round_layers(result)
    return base, result


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    return _round(tmp_path_factory, SMALL_CAMPAIGN)


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    return _round(tmp_path_factory, SMALL_BIG, traced=True)


def _copy(base: Path, result, tmp_path: Path) -> dict[str, Path]:
    """A private copy of a round's files, so a test can plant errors in it."""
    shutil.copytree(base, tmp_path / "copy")
    return {k: tmp_path / "copy" / p.relative_to(base) for k, p in result.files.items()}


def test_rounds_pass_every_check_and_count_the_probes(campaign, big) -> None:
    for _, result in (campaign, big):
        assert result.failed == SMALL_MIX.bad_length
        assert sum(1 for s in result.sent if s.probe) == SMALL_MIX.bad_length
        assert result.attempted > len(result.sent)


def test_report_total_off_by_one_is_rejected(campaign, tmp_path) -> None:
    f = _copy(*campaign, tmp_path)
    checks.check_campaign_totals(f["report"], f["targets"])
    report = json.loads(f["report"].read_text())
    report["total"]["click_count"] += 1
    f["report"].write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="click_count"):
        checks.check_campaign_totals(f["report"], f["targets"])
    with pytest.raises(checks.CheckFailed, match="clicks"):
        checks.check_conservation(f["trace"], f["mailbox"], f["timeline"], f["access_log"], f["report"])


def test_truncated_output_is_rejected(campaign, tmp_path) -> None:
    f = _copy(*campaign, tmp_path)
    f["report"].write_text(f["report"].read_text()[:-20])
    with pytest.raises(checks.CheckFailed, match="not JSON"):
        checks.check_campaign_totals(f["report"], f["targets"])
    log = f["access_log"].read_text()
    f["access_log"].write_text(log[:-20])
    with pytest.raises(checks.CheckFailed, match="line"):
        checks.read_log(f["access_log"])


def test_wrong_countries_row_is_rejected(campaign, tmp_path) -> None:
    f = _copy(*campaign, tmp_path)
    checks.check_countries(f["countries"], f["access_log"], f["geo"])
    rows = list(csv.reader(f["countries"].open()))
    rows[-1][0] = "ZZ" if rows[-1][0] != "ZZ" else "ZY"
    with f["countries"].open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    with pytest.raises(checks.CheckFailed, match="countries.csv row"):
        checks.check_countries(f["countries"], f["access_log"], f["geo"])


def test_extra_changed_cell_in_a_changeset_is_rejected(big, tmp_path) -> None:
    f = _copy(*big, tmp_path)
    checks.check_edits(f["trace"], f["sheets"], f["mailbox"], f["timeline"])
    for path in sorted(f["mailbox"].glob("*.msg")):
        head, _, body = path.read_text().partition("\n\n")
        if "Event-Type: modification" in head:
            break
    changes = json.loads(body)
    cell = {"value": "x", "format": {"font_size": 10, "text_color": [0, 0, 0],
                                     "background_color": [255, 255, 255]}}
    changes["cell_changes"].append({"row": 1, "col": 1, "old": cell, "new": dict(cell, value="y")})
    path.write_text(head + "\n\n" + json.dumps(changes))
    with pytest.raises(checks.CheckFailed, match="cell changes"):
        checks.check_edits(f["trace"], f["sheets"], f["mailbox"], f["timeline"])


def test_missing_access_log_line_is_rejected(big, tmp_path) -> None:
    base, result = big
    f = _copy(base, result, tmp_path)
    checks.check_tracker(result.sent, f["serve_log"], f["registry"])
    lines = f["serve_log"].read_text().splitlines(keepends=True)
    f["serve_log"].write_text("".join(lines[:-1]))
    with pytest.raises(checks.CheckFailed, match="no log line"):
        checks.check_tracker(result.sent, f["serve_log"], f["registry"])

    lines = f["access_log"].read_text().splitlines(keepends=True)
    f["access_log"].write_text("".join(lines[1:]))
    with pytest.raises(checks.CheckFailed, match="access log clicks"):
        checks.check_conservation(f["trace"], f["mailbox"], f["timeline"], f["access_log"], f["report"])


def test_bad_iban_check_digit_is_rejected(campaign, tmp_path) -> None:
    f = _copy(*campaign, tmp_path)
    assert checks.check_ibans(f["sheets"]) == SMALL_CAMPAIGN.sheets * SMALL_CAMPAIGN.rows
    sheets = json.loads(f["sheets"].read_text())
    cell = sheets[0]["grid"][3][2]
    digits = int(cell["value"][2:4])
    cell["value"] = cell["value"][:2] + f"{(digits + 1) % 100:02d}" + cell["value"][4:]
    f["sheets"].write_text(json.dumps(sheets))
    with pytest.raises(checks.CheckFailed, match="bad IBAN"):
        checks.check_ibans(f["sheets"])


def test_post_naming_the_wrong_sheet_is_rejected(campaign, tmp_path) -> None:
    f = _copy(*campaign, tmp_path)
    links = [s["share_link"] for s in json.loads(f["sheets"].read_text())]
    posts = sorted(f["posts-hacker"].glob("*.txt"))
    posts[0].write_text(posts[0].read_text().replace(links[0], links[1]))
    with pytest.raises(checks.CheckFailed, match="round-robin"):
        checks.check_leak_posts(f["posts-hacker"], f["sheets"], 46, 2)


def test_mod97_and_longest_prefix_references(tmp_path) -> None:
    assert checks.iban_ok("GB82WEST12345698765432")
    assert not checks.iban_ok("GB83WEST12345698765432")
    geo = tmp_path / "geo.csv"
    geo.write_text("cidr,country\n10.1.0.0/16,AA\n10.1.2.0/24,BB\n")
    table = checks.PrefixTable(geo)
    assert table.country("10.1.2.9") == "BB"
    assert table.country("10.1.3.9") == "AA"
    assert table.country("10.2.0.1") is None


def test_traced_round_reports_every_layer(big) -> None:
    _, result = big
    metrics = {name: m["value"] for name, m in run.per_layer([result]).items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    meta = json.loads(result.files["trace"].read_text())["meta"]
    assert metrics["sheetstore.diff_calls"] == meta["modifications"]
    assert metrics["sheetstore.snapshots"] == 2 * meta["modifications"]
    assert metrics["notify.messages_written"] == meta["opens"] + meta["modifications"]
    assert metrics["honeygen.rows_built"] == SMALL_BIG.sheets * SMALL_BIG.rows
    assert metrics["notify.events_per_body_hash"] > 0
    assert metrics["sheetstore.diff_s"] > 0
    for stage in run.STAGES:
        assert metrics[f"cli.{stage}.start_s"] > 0
    assert metrics["honeylink.probes_unanswered"] == SMALL_MIX.bad_length


def test_untraced_round_reports_every_end_to_end_metric(campaign) -> None:
    _, result = campaign
    metrics = run.end_to_end([result])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert not result.spans


def test_tracker_stops_when_sigint_was_ignored_at_start(campaign, tmp_path) -> None:
    _, result = campaign
    args = ["--registry", str(result.files["registry"]), "--log", str(tmp_path / "access.log")]
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)  # as in a shell's background job
    try:
        with Spawner() as spawner:
            server = Tracker(Launch(ROOT, spawner), args, "serve", tmp_path)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert server.stop() > 0


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copytree(ROOT / "hsbench", tmp_path / "hsbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hsbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
