"""Byte-level determinism oracle for the whole pipeline.

gen, simulate (free-running and constrained), replay, ingest, report and
diff run through the CLI at fixed seeds, and every artifact must hash to
the digest pinned below. The digests were taken before the serialization
code was rewritten, so they also hold every file format to its old bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from honeysheets.cli import run

from conftest import make_geo_table

# Profiles as plain JSON, so the input does not depend on the code under test.
# "lurker" gives no user_agent_pool and "vandal" an empty one: both fall back
# to the bundled user agents.
PROFILES = [
    {"name": "curious", "action_mix": {"open_only": 1.0}, "clicks_per_visit": [[1, 1.0]],
     "source_ip_pool": [], "visits_per_day": 2.0},
    {"name": "lurker", "action_mix": {"expand_columns": 1.0}, "clicks_per_visit": [[1, 1.0]],
     "source_ip_pool": [], "visits_per_day": 0.8},
    {"name": "deleter", "action_mix": {"delete_content": 1.0}, "clicks_per_visit": [[1, 1.0]],
     "source_ip_pool": [], "visits_per_day": 0.4},
    {"name": "vandal", "action_mix": {"deface": 1.0}, "clicks_per_visit": [[1, 1.0]],
     "source_ip_pool": [], "user_agent_pool": [], "visits_per_day": 0.3},
    {"name": "prober", "action_mix": {"click_links": 1.0},
     "clicks_per_visit": [[1, 0.5], [2, 0.3], [4, 0.2]],
     "source_ip_pool": [f"10.{i}.0.{j}" for i in range(12) for j in (1, 2)] + ["203.0.113.7"],
     "user_agent_pool": ["curl/7.64.1", "Mozilla/5.0 (X11; Linux x86_64; rv:84.0) Firefox/84.0"],
     "visits_per_day": 1.5},
]

TARGETS = {
    "experiments": [
        {"name": "hacker", "start": "2024-01-01T00:00:00Z", "days": 10, "opens": 30,
         "modifications": 9},
        {"name": "naive", "start": "2024-01-11T00:00:00Z", "days": 10, "opens": 20,
         "modifications": 6},
    ],
    "clicks_total": 40, "controlled_visits": 12, "unique_controlled_ips": 8, "countries": 10,
}

WINDOWS = [
    {"name": "hacker", "start": "2024-01-01T00:00:00Z", "end": "2024-01-11T00:00:00Z"},
    {"name": "naive", "start": "2024-01-11T00:00:00Z", "end": "2024-01-21T00:00:00Z"},
]

PINNED = {
    "sheets.json":
        "f47f6b2cdf7f5efa57eca01b00fb0bc28e82dd5a793440d8b030dd4a05bc873e",
    "registry.json":
        "e465fb6e64734f1b05b47d0c1bea41fdcd66972838b93abaeaf322b1869ab13e",
    "trace.json":
        "1523de38bd40d95fd14e25e15039982835b573f369e3b7b16a263d0f24a383ba",
    "access.log":
        "71b6537a08911f73fc9b663dfbe492de1b407aa732e88cccfe3c7ece34c2ed0e",
    "mailbox":
        "26c482985fc9fdcca8513bccd412bc818d31157cafd6222be7acd51a25b091c3",
    "timeline.json":
        "c073747c6aada524b7242e24294fec9e7cfa2e0ab62e5b261742f637cb4527b5",
    "report/report.json":
        "17d84e96d55a0a91054edfe9355075404e35b3d82276ecd606bb7281bb8bf1d4",
    "report/countries.csv":
        "f564e9fef7a52e7fa7c8fa250e24c0425fa5db572d8b24c1fcaca648b4a9248d",
    "constrained/trace.json":
        "286bf5ca706e4966dee6739ec8ded16caa6c368344cc14f5919482ce66ff5024",
    "constrained/access.log":
        "bd949f0a486496a1b544bbf3d459c67cc89238537b68c20ac00c486b9ec0b989",
    "constrained/mailbox":
        "c495e0069ef9b1285a8323fd0a433d026733a8bebc714ddd862328b0b0635122",
    "constrained/timeline.json":
        "ac1b5c41a2a9cddc7687b48403f36047d9ddbbd7a53dc2ac056dee8bf77d3388",
    "constrained/report/report.json":
        "15440722e5324877b060fa124d0250d379d03a0728a43e81a48a59baea95b069",
    "constrained/report/countries.csv":
        "b80b5c60bc0a11afa09bbf8069d69d02d1e8db9b409ec3df7429bf8c6e246f4e",
    "changes.json":
        "20008cfa8299915f191d0de6c2df43b646cf7c0c53b8e8c824ae2c918c09b044",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mailbox_digest(mailbox: Path) -> str:
    bodies = sorted(p.read_text(encoding="utf-8") for p in mailbox.glob("*.msg"))
    return _sha("\x00".join(bodies).encode("utf-8"))


def _pipeline(tmp: Path, out: Path, simulate_args: list[str]) -> None:
    """simulate, replay, ingest and report into `out`, on the sheets in `tmp`."""
    out.mkdir(exist_ok=True)
    assert run([
        "simulate", *simulate_args, "--sheets", str(tmp / "sheets.json"),
        "--registry", str(tmp / "registry.json"), "--profiles", str(tmp / "profiles.json"),
        "--geo", str(tmp / "geo.csv"), "--out", str(out / "trace.json"),
    ]) == 0
    assert run([
        "replay", "--trace", str(out / "trace.json"), "--sheets", str(tmp / "sheets.json"),
        "--registry", str(tmp / "registry.json"), "--mailbox", str(out / "mailbox"),
        "--log", str(out / "access.log"),
    ]) == 0
    assert run([
        "ingest", "--mailbox", str(out / "mailbox"), "--out", str(out / "timeline.json"),
    ]) == 0
    assert run([
        "report", "--timeline", str(out / "timeline.json"), "--log", str(out / "access.log"),
        "--geo", str(tmp / "geo.csv"), "--bounds", str(tmp / "bounds.json"),
        "--registry", str(tmp / "registry.json"), "--out", str(out / "report"),
    ]) == 0


def _digests(tmp: Path) -> dict[str, str]:
    assert run([
        "gen", "--rows", "30", "--count", "4", "--seed", "7",
        "--out", str(tmp / "sheets.json"), "--registry", str(tmp / "registry.json"),
    ]) == 0
    make_geo_table().save_csv(tmp / "geo.csv")
    (tmp / "profiles.json").write_text(json.dumps(PROFILES), encoding="utf-8")
    (tmp / "targets.json").write_text(json.dumps(TARGETS), encoding="utf-8")
    (tmp / "bounds.json").write_text(json.dumps(WINDOWS), encoding="utf-8")

    _pipeline(tmp, tmp, ["--seed", "3", "--days", "20"])
    _pipeline(tmp, tmp / "constrained", ["--seed", "5", "--targets", str(tmp / "targets.json")])

    # diff: a one-sheet file against a snapshot file with grid, width and row edits.
    one = json.loads((tmp / "sheets.json").read_text(encoding="utf-8"))[:1]
    (tmp / "before.json").write_text(json.dumps(one), encoding="utf-8")
    after = dict(one[0], taken_at="2024-02-01T10:00:00Z")
    after["grid"][2][1] = {"value": "renamed", "format": after["grid"][2][1]["format"]}
    after["grid"][3][0]["format"] = {"font_size": 18, "text_color": [255, 255, 0],
                                     "background_color": [1, 2, 3]}
    after["grid"].append([dict(cell) for cell in after["grid"][-1]])
    after["column_widths"][0] += 40
    (tmp / "after.json").write_text(json.dumps(after), encoding="utf-8")
    assert run([
        "diff", "--before", str(tmp / "before.json"), "--after", str(tmp / "after.json"),
        "--out", str(tmp / "changes.json"),
    ]) == 0

    digests = {}
    for name in PINNED:
        path = tmp / name
        digests[name] = _mailbox_digest(path) if path.is_dir() else _sha(path.read_bytes())
    return digests


def test_artifacts_are_byte_identical_to_pinned_digests(tmp_path) -> None:
    digests = _digests(tmp_path)
    # The inputs must exercise every path: clicks with known countries, every
    # event kind, and a constrained run that meets its targets.
    countries = (tmp_path / "report/countries.csv").read_text(encoding="utf-8").splitlines()
    assert len(countries) > 1
    timeline = json.loads((tmp_path / "timeline.json").read_text(encoding="utf-8"))
    assert {row["kind"] for row in timeline} == {"open", "modification"}
    report = json.loads((tmp_path / "constrained/report/report.json").read_text(encoding="utf-8"))
    assert report["total"]["click_count"] == TARGETS["clicks_total"]
    assert report["total"]["distinct_country_count"] == TARGETS["countries"]
    assert digests == PINNED
