"""Output checks computed apart from the program.

Every check reads the program's files as plain JSON, CSV and text and
recomputes the expected answer with code of its own (MOD-97, longest-prefix
matching, cell-by-cell edit application) or tests a property the method
must have. Nothing here imports honeysheets or compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from pathlib import Path


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _parse(text: str, where: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"{where}: not JSON ({exc})") from None


def _load(path: Path):
    return _parse(Path(path).read_text(encoding="utf-8"), str(path))


# --- sheets and posts -------------------------------------------------------


def iban_ok(iban: str) -> bool:
    """ISO 13616 MOD-97: move the first four characters to the end, map A..Z to 10..35."""
    if len(iban) < 5 or not iban.isalnum() or not iban.isascii() or iban != iban.upper():
        return False
    moved = iban[4:] + iban[:4]
    return int("".join(str(int(ch, 36)) for ch in moved)) % 97 == 1


def check_ibans(sheets_path: Path) -> int:
    """Every IBAN column cell in every sheet passes MOD-97; returns the count."""
    n = 0
    for sheet in _load(sheets_path):
        header = [cell["value"] for cell in sheet["grid"][0]]
        _require("IBAN" in header, f"sheet {sheet['sheet_id']} has no IBAN column")
        col = header.index("IBAN")
        for r, row in enumerate(sheet["grid"][1:], start=1):
            value = row[col]["value"]
            _require(iban_ok(value), f"sheet {sheet['sheet_id']} row {r}: bad IBAN {value!r}")
            n += 1
    _require(n > 0, "no IBANs found")
    return n


_POST_SEQ = re.compile(r"-(\d+)\.txt$")


def check_leak_posts(posts_dir: Path, sheets_path: Path, days: int, per_day: int) -> int:
    """days x per_day posts; post k names exactly one share link, sheet k mod n's."""
    links = [sheet["share_link"] for sheet in _load(sheets_path)]
    files = sorted(Path(posts_dir).glob("*.txt"), key=lambda p: int(_POST_SEQ.search(p.name).group(1)))
    _require(len(files) == days * per_day, f"{posts_dir}: {len(files)} posts, want {days * per_day}")
    for k, path in enumerate(files):
        _require(int(_POST_SEQ.search(path.name).group(1)) == k, f"{path.name}: sequence gap")
        text = path.read_text(encoding="utf-8")
        named = [link for link in links if link in text]
        _require(
            len(named) == 1 and text.count(named[0]) == 1,
            f"{path.name}: names {len(named)} share links",
        )
        _require(named[0] == links[k % len(links)], f"{path.name}: not round-robin")
    return len(files)


# --- geolocation ------------------------------------------------------------


def _ipv4(text: str) -> int:
    parts = [int(p) for p in text.split(".")]
    _require(len(parts) == 4 and all(0 <= p < 256 for p in parts), f"bad IPv4 {text!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


class PrefixTable:
    """Linear-scan longest-prefix match over geo.csv; the reference, not fast."""

    def __init__(self, geo_csv: Path):
        self.rows = []
        with open(geo_csv, newline="", encoding="utf-8") as handle:
            for row in csv.reader(handle):
                if not row or row[0] == "cidr":
                    continue
                net, length = row[0].split("/")
                self.rows.append((_ipv4(net), int(length), row[1]))
        self._cache: dict[str, str | None] = {}

    def country(self, ip: str) -> str | None:
        if ip not in self._cache:
            addr = _ipv4(ip)
            best, best_len = None, -1
            for net, length, code in self.rows:
                mask = ((1 << length) - 1) << (32 - length)
                if addr & mask == net and length > best_len:
                    best, best_len = code, length
            self._cache[ip] = best
        return self._cache[ip]


def read_log(path: Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [_parse(line, f"{path} line {i}") for i, line in enumerate(lines, 1) if line]


def check_countries(countries_csv: Path, access_log: Path, geo_csv: Path) -> int:
    """countries.csv equals our own geolocation of the logged clicks."""
    table = PrefixTable(geo_csv)
    counts = Counter(
        table.country(entry["ip"]) for entry in read_log(access_log) if entry["token"] is not None
    )
    counts.pop(None, None)
    want = [["country", "count"]] + [
        [code, str(n)] for code, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    with open(countries_csv, newline="", encoding="utf-8") as handle:
        got = [row for row in csv.reader(handle) if row]
    for i, (g, w) in enumerate(zip(got, want)):
        _require(g == w, f"countries.csv row {i}: {g} != {w}")
    _require(len(got) == len(want), f"countries.csv has {len(got)} rows, want {len(want)}")
    return len(want) - 1


# --- report totals ----------------------------------------------------------


def check_campaign_totals(report_json: Path, targets_json: Path) -> None:
    report, targets = _load(report_json), _load(targets_json)
    by_name = {item["name"]: item for item in report["experiments"]}
    for target in targets["experiments"]:
        got = by_name.get(target["name"])
        _require(got is not None, f"report has no experiment {target['name']!r}")
        for field, key in (("open_count", "opens"), ("modification_count", "modifications")):
            _require(
                got[field] == target[key],
                f"{target['name']} {field} {got[field]} != target {target[key]}",
            )
    total = report["total"]
    for field, key in (
        ("click_count", "clicks_total"),
        ("controlled_link_visit_count", "controlled_visits"),
        ("unique_ip_count", "unique_controlled_ips"),
        ("distinct_country_count", "countries"),
    ):
        _require(total[field] == targets[key], f"total {field} {total[field]} != target {targets[key]}")
    _require(
        total["open_count"] == sum(t["opens"] for t in targets["experiments"]),
        f"total open_count {total['open_count']} != sum of targets",
    )
    _require(
        total["modification_count"] == sum(t["modifications"] for t in targets["experiments"]),
        f"total modification_count {total['modification_count']} != sum of targets",
    )


# --- mailbox ------------------------------------------------------------------


def read_message(path: Path) -> tuple[dict[str, str], str]:
    head, _, body = path.read_text(encoding="utf-8").partition("\n\n")
    headers = dict(line.split(": ", 1) for line in head.splitlines())
    return headers, body


def read_mailbox(mailbox: Path) -> list[tuple[dict[str, str], str]]:
    return [read_message(p) for p in sorted(Path(mailbox).glob("*.msg"))]


def check_conservation(trace_json: Path, mailbox: Path, timeline_json: Path,
                       access_log: Path, report_json: Path) -> dict[str, int]:
    """Opens, modifications and clicks agree from trace to report."""
    trace = _load(trace_json)
    kinds = Counter(action["kind"] for action in trace["actions"])
    meta = trace["meta"]
    counts = {"opens": meta["opens"], "modifications": meta["modifications"], "clicks": meta["clicks"]}
    stages = {
        "trace actions": {"opens": kinds["open"], "modifications": kinds["edit"], "clicks": kinds["click"]},
    }
    by_type = Counter(headers.get("Event-Type") for headers, _ in read_mailbox(mailbox))
    stages["mailbox"] = {"opens": by_type["open"], "modifications": by_type["modification"]}
    timeline = Counter(row["kind"] for row in _load(timeline_json))
    stages["timeline"] = {"opens": timeline["open"], "modifications": timeline["modification"]}
    stages["access log"] = {
        "clicks": sum(1 for entry in read_log(access_log) if entry["token"] is not None)
    }
    total = _load(report_json)["total"]
    stages["report"] = {
        "opens": total["open_count"],
        "modifications": total["modification_count"],
        "clicks": total["click_count"],
    }
    for stage, seen in stages.items():
        for key, value in seen.items():
            _require(value == counts[key], f"{stage} {key} {value} != trace meta {counts[key]}")
    return counts


# --- edits --------------------------------------------------------------------


def _classify(cells: list[tuple], widths: dict) -> str:
    if widths and not cells:
        return "layout_only"
    if cells and not widths:
        if all(old["value"] != new["value"] and old["format"] == new["format"] for _, _, old, new in cells):
            return "content"
        if all(old["value"] == new["value"] and old["format"] != new["format"] for _, _, old, new in cells):
            return "formatting_only"
    return "mixed"


def _apply(sheet: dict, command: dict) -> None:
    kind = command["kind"]
    if kind == "set_value":
        cell = sheet["grid"][command["row"]][command["col"]]
        sheet["grid"][command["row"]][command["col"]] = {"value": command["value"], "format": cell["format"]}
    elif kind == "set_format":
        cell = sheet["grid"][command["row"]][command["col"]]
        sheet["grid"][command["row"]][command["col"]] = {"value": cell["value"], "format": command["format"]}
    elif kind == "set_column_width":
        sheet["column_widths"][command["col"]] = command["width"]
    else:
        raise CheckFailed(f"edit command {kind!r} not modelled by the check")


def check_edits(trace_json: Path, sheets_path: Path, mailbox: Path, timeline_json: Path) -> int:
    """Each modification message equals what its edit commands do to a plain copy."""
    sheets = {sheet["sheet_id"]: sheet for sheet in _load(sheets_path)}
    messages = {}
    for headers, body in read_mailbox(mailbox):
        if headers.get("Event-Type") == "modification":
            key = (headers["Sheet-ID"], headers["Occurred-At"])
            _require(key not in messages, f"two modification messages for {key}")
            messages[key] = json.loads(body)
    classes = {
        (row["sheet_id"], row["occurred_at"]): row.get("modification_class")
        for row in _load(timeline_json)
        if row["kind"] == "modification"
    }
    n = 0
    for action in _load(trace_json)["actions"]:
        if action["kind"] != "edit":
            continue
        sheet = sheets[action["sheet_id"]]
        commands = action["params"]["commands"]
        touched = {(c["row"], c["col"]) for c in commands if "row" in c}
        before_cells = {rc: sheet["grid"][rc[0]][rc[1]] for rc in touched}
        before_widths = list(sheet["column_widths"])
        for command in commands:
            _apply(sheet, command)
        cells = sorted(
            (r, c, before_cells[(r, c)], sheet["grid"][r][c])
            for r, c in touched
            if before_cells[(r, c)] != sheet["grid"][r][c]
        )
        widths = {
            col: (old, new)
            for col, (old, new) in enumerate(zip(before_widths, sheet["column_widths"]))
            if old != new
        }
        key = (action["sheet_id"], action["at"])
        _require(key in messages, f"no modification message for edit at {key}")
        got = messages.pop(key)
        got_cells = sorted((c["row"], c["col"], c["old"], c["new"]) for c in got["cell_changes"])
        got_widths = {c["col"]: (c["old_width"], c["new_width"]) for c in got["layout_changes"]}
        _require(got_cells == cells, f"{key}: cell changes {got_cells} != expected {cells}")
        _require(got_widths == widths, f"{key}: width changes {got_widths} != expected {widths}")
        _require(not got["structural_changes"], f"{key}: unexpected structural changes")
        want_class = _classify(cells, widths)
        _require(classes.get(key) == want_class, f"{key}: class {classes.get(key)} != {want_class}")
        n += 1
    _require(not messages, f"{len(messages)} modification message(s) match no edit")
    return n


# --- tracker ------------------------------------------------------------------


def check_tracker(sent: list, serve_log: Path, registry_json: Path) -> int:
    """Every answered request has exactly one log line and the right answer.

    Known tokens get a 302 to the registry's redirect target, unknown paths a
    404. A request that got no reply may have a log line or not; a line that
    matches no request at all fails the check.
    """
    redirect = _load(registry_json)["redirect_target"]
    lines = Counter((e["method"], e["path"], e["port"]) for e in read_log(serve_log))
    answered = 0
    for req in sent:
        key = (req.method, req.path, req.port)
        if req.status is None:
            if lines[key] > 0:
                lines[key] -= 1
            continue
        answered += 1
        _require(lines[key] > 0, f"answered request {key} has no log line")
        lines[key] -= 1
        if req.probe:
            _require(400 <= req.status < 500, f"{key}: probe answered {req.status}")
        elif req.known:
            _require(req.status == 302, f"{key}: known token answered {req.status}")
            _require(req.location == redirect, f"{key}: Location {req.location!r} != {redirect!r}")
        else:
            _require(req.status == 404, f"{key}: unknown path answered {req.status}")
    extra = +lines
    _require(not extra, f"{sum(extra.values())} log line(s) match no request, e.g. {next(iter(extra), None)}")
    return answered


def check_same_messages(mailboxes: list[Path]) -> None:
    """Replays of one trace delivered the same messages (file names are random)."""
    first = sorted(p.read_text(encoding="utf-8") for p in Path(mailboxes[0]).glob("*.msg"))
    for other in mailboxes[1:]:
        got = sorted(p.read_text(encoding="utf-8") for p in Path(other).glob("*.msg"))
        _require(got == first, f"{other} holds other messages than {mailboxes[0]}")


def check_identical(paths: list[Path]) -> None:
    """Repeated invocations on the same input wrote the same bytes."""
    first = Path(paths[0]).read_bytes()
    for other in paths[1:]:
        _require(Path(other).read_bytes() == first, f"{other} differs from {paths[0]}")
