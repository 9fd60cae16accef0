from __future__ import annotations

import ipaddress
from datetime import timedelta
from random import Random

import pytest

from honeysheets._util import encode
from honeysheets.analytics import (
    ExperimentWindow,
    GeoTable,
    Report,
    ReportSection,
    UNKNOWN_COUNTRY,
    aggregate,
    export_report,
)
from honeysheets.errors import BadBoundaries, ExportError
from honeysheets.honeylink import AccessLogEntry
from honeysheets.notify import EventTimeline
from honeysheets.sheetstore import Cell, CellChange, ChangeSet, modification_event, open_event

from conftest import make_geo_table, utc

T0 = utc(2016, 1, 23)
WINDOWS = [
    ExperimentWindow("hacker", utc(2016, 1, 23), utc(2016, 3, 9)),
    ExperimentWindow("naive", utc(2016, 3, 9), utc(2016, 4, 4)),
]

UA_CHROME_WIN = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/70.0.3538.77 Safari/537.36"
)


def lpm_oracle(ip: str, entries: list[tuple[str, str]]) -> str:
    """Reference longest-prefix match: scan every prefix, keep the longest hit."""
    address = ipaddress.ip_address(ip)
    best, best_len = UNKNOWN_COUNTRY, -1
    for cidr, country in entries:
        network = ipaddress.ip_network(cidr)
        if network.version == address.version and address in network:
            if network.prefixlen > best_len:
                best, best_len = country, network.prefixlen
    return best


def click(ip: str, token: str | None, at=None, ua: str = UA_CHROME_WIN) -> AccessLogEntry:
    return AccessLogEntry(
        ip=ip,
        port=40000,
        method="GET",
        path=f"/t/{token or 'nosuch'}",
        headers=(("Host", "snip.example.net"), ("User-Agent", ua)),
        received_at=at or (T0 + timedelta(hours=1)),
        token=token,
    )


def test_empty_table_is_unknown() -> None:
    table = GeoTable([])
    assert table.lookup("203.0.113.9") == UNKNOWN_COUNTRY


def test_longest_prefix_wins() -> None:
    table = GeoTable([("203.0.113.0/24", "XA"), ("203.0.0.0/16", "XB")])
    assert table.lookup("203.0.113.9") == "XA"
    assert table.lookup("203.0.42.9") == "XB"
    assert table.lookup("198.51.100.1") == UNKNOWN_COUNTRY


def test_invalid_ip_is_unknown() -> None:
    table = GeoTable([("0.0.0.0/0", "XX")])
    assert table.lookup("not-an-ip") == UNKNOWN_COUNTRY
    assert table.lookup("999.1.1.1") == UNKNOWN_COUNTRY


def test_ipv6_lookup() -> None:
    table = GeoTable([("2001:db8::/32", "XC"), ("::/0", "XD")])
    assert table.lookup("2001:db8::5") == "XC"
    assert table.lookup("2001:db9::5") == "XD"


def test_geolocate_matches_linear_scan_oracle() -> None:
    rng = Random(777)
    entries = []
    for i in range(50):
        prefixlen = rng.randint(8, 28)
        raw = ipaddress.ip_address(rng.getrandbits(32))
        network = ipaddress.ip_network(f"{raw}/{prefixlen}", strict=False)
        entries.append((str(network), f"C{i % 30:02d}"))
    table = GeoTable(entries)
    for _ in range(1000):
        ip = str(ipaddress.ip_address(rng.getrandbits(32)))
        assert table.lookup(ip) == lpm_oracle(ip, entries)


def test_geo_csv_roundtrip(tmp_path) -> None:
    table = make_geo_table()
    table.save_csv(tmp_path / "geo.csv")
    loaded = GeoTable.load_csv(tmp_path / "geo.csv")
    assert loaded.entries == table.entries


def test_controlled_visit_and_unique_ip_counts(geo_table) -> None:
    rng = Random(31)
    ips = [f"10.{i % 13}.0.{1 + i % 3}" for i in range(39)]
    entries = [click(ip, "ctl001") for ip in ips]
    entries += [click(rng.choice(ips), "ctl001") for _ in range(5)]
    report = aggregate(
        EventTimeline(events=()), entries, geo_table, WINDOWS, controlled_tokens={"ctl001"}
    )
    assert report.total.controlled_link_visit_count == 44
    assert report.total.unique_ip_count == len(set(ips))
    assert report.total.click_count == 44


def test_decoy_clicks_counted_but_not_visits(geo_table) -> None:
    entries = [click("10.1.0.1", "ctl001"), click("10.2.0.1", "dcy001"), click("10.3.0.1", None)]
    report = aggregate(EventTimeline(events=()), entries, geo_table, WINDOWS,
                       controlled_tokens={"ctl001"})
    assert report.total.click_count == 2  # unresolved token is not a click
    assert report.total.controlled_link_visit_count == 1
    assert report.total.unique_ip_count == 1


def test_without_registry_all_clicks_are_visits(geo_table) -> None:
    entries = [click("10.1.0.1", "a"), click("10.2.0.1", "b")]
    report = aggregate(EventTimeline(events=()), entries, geo_table, WINDOWS)
    assert report.total.controlled_link_visit_count == 2
    assert report.total.unique_ip_count == 2


def test_empty_inputs_give_zero_report(geo_table) -> None:
    report = aggregate(EventTimeline(events=()), [], geo_table, WINDOWS)
    total = report.total
    assert total.open_count == 0 and total.modification_count == 0
    assert total.click_count == 0 and total.unique_ip_count == 0
    assert total.country_histogram == {} and total.distinct_country_count == 0


def test_events_split_by_experiment_window(geo_table) -> None:
    changes = ChangeSet(cell_changes=(CellChange(1, 1, Cell("a"), Cell("b")),))
    events = (
        [open_event("s1", utc(2016, 2, 1) + timedelta(minutes=i)) for i in range(4)]
        + [open_event("s1", utc(2016, 3, 20) + timedelta(minutes=i)) for i in range(2)]
        + [modification_event("s1", utc(2016, 2, 2), changes)]
        + [open_event("s1", utc(2016, 5, 1))]  # outside both windows
    )
    report = aggregate(EventTimeline.from_events(events), [], geo_table, WINDOWS)
    assert report.total.open_count == 7
    assert report.experiment("hacker").open_count == 4
    assert report.experiment("hacker").modification_count == 1
    assert report.experiment("naive").open_count == 2
    assert report.experiment("naive").modification_count == 0


def test_overlapping_boundaries_rejected(geo_table) -> None:
    bad = [
        ExperimentWindow("a", utc(2016, 1, 1), utc(2016, 2, 1)),
        ExperimentWindow("b", utc(2016, 1, 20), utc(2016, 3, 1)),
    ]
    with pytest.raises(BadBoundaries):
        aggregate(EventTimeline(events=()), [], geo_table, bad)


def test_aggregate_is_permutation_invariant(geo_table) -> None:
    rng = Random(91)
    entries = [
        click(f"10.{rng.randrange(20)}.0.{rng.randint(1, 5)}", rng.choice(("t1", "t2", None)),
              at=T0 + timedelta(minutes=rng.randrange(10000)))
        for _ in range(120)
    ]
    shuffled = entries[:]
    rng.shuffle(shuffled)
    a = aggregate(EventTimeline(events=()), entries, geo_table, WINDOWS, controlled_tokens={"t1"})
    b = aggregate(EventTimeline(events=()), shuffled, geo_table, WINDOWS, controlled_tokens={"t1"})
    assert encode(a) == encode(b)


def test_histograms_sum_to_totals(geo_table) -> None:
    rng = Random(17)
    changes = ChangeSet(cell_changes=(CellChange(1, 1, Cell("a"), Cell("b")),))
    events = [open_event(f"s{i}", T0 + timedelta(minutes=i)) for i in range(9)]
    events += [modification_event("s1", T0 + timedelta(hours=i + 1), changes) for i in range(4)]
    entries = [
        click(f"10.{rng.randrange(45)}.0.1", "t1", at=T0 + timedelta(minutes=rng.randrange(5000)))
        for _ in range(60)
    ]
    report = aggregate(EventTimeline.from_events(events), entries, geo_table, WINDOWS)
    for section in [report.total] + [e.section for e in report.experiments]:
        assert sum(section.modification_class_histogram.values()) == section.modification_count
        assert sum(section.country_histogram.values()) == section.click_count
        assert sum(section.browser_histogram.values()) == section.click_count
        assert sum(section.os_histogram.values()) == section.click_count
        assert section.unique_ip_count <= section.click_count


def test_unknown_ips_bucket_separately(geo_table) -> None:
    entries = [click("192.0.2.1", "t1"), click("10.1.0.1", "t1")]
    report = aggregate(EventTimeline(events=()), entries, geo_table, WINDOWS)
    assert report.total.country_histogram[UNKNOWN_COUNTRY] == 1
    assert report.total.distinct_country_count == 1


def test_export_writes_report_and_countries(tmp_path, geo_table) -> None:
    entries = [click(f"10.{i}.0.1", "t1") for i in range(35)]
    report = aggregate(EventTimeline(events=()), entries, geo_table, WINDOWS)
    files = export_report(report, tmp_path / "out")
    names = {f.name for f in files}
    assert names == {"report.json", "countries.csv"}
    csv_lines = (tmp_path / "out" / "countries.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "country,count"
    assert len(csv_lines) == 1 + 35


def test_export_zero_report_header_only(tmp_path, geo_table) -> None:
    report = aggregate(EventTimeline(events=()), [], geo_table, WINDOWS)
    export_report(report, tmp_path / "out")
    csv_lines = (tmp_path / "out" / "countries.csv").read_text().strip().splitlines()
    assert csv_lines == ["country,count"]


def test_export_twice_is_byte_identical(tmp_path, geo_table) -> None:
    entries = [click(f"10.{i % 7}.0.1", "t1") for i in range(25)]
    report = aggregate(EventTimeline(events=()), entries, geo_table, WINDOWS)
    export_report(report, tmp_path / "one")
    export_report(report, tmp_path / "two")
    for name in ("report.json", "countries.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_export_failure_raises(tmp_path) -> None:
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way", encoding="utf-8")
    with pytest.raises(ExportError):
        export_report(Report(total=ReportSection()), blocker / "sub")
