from __future__ import annotations

from datetime import timedelta
from random import Random

import pytest

from honeysheets._util import encode
from honeysheets.notify import (
    EventTimeline,
    emit_message,
    emit_notification,
    ingest_mailbox,
    parse_message,
)
from honeysheets.sheetstore import (
    Cell,
    CellChange,
    CellFormat,
    ChangeSet,
    LayoutChange,
    StructuralChange,
    modification_event,
    open_event,
)

from conftest import utc

T0 = utc(2016, 1, 23, 9, 0, 0)


def random_changeset(rng: Random) -> ChangeSet:
    cells = tuple(
        CellChange(
            row=rng.randrange(20),
            col=rng.randrange(6),
            old=Cell(rng.choice(("", "old", "iban"))),
            new=Cell(rng.choice(("x", "y", "")), CellFormat(font_size=rng.choice((10, 14)))),
        )
        for _ in range(rng.randint(0, 3))
    )
    structural = tuple(
        StructuralChange(rng.choice(("row_inserted", "row_deleted", "col_inserted", "col_deleted")),
                         rng.randrange(10))
        for _ in range(rng.randint(0, 2))
    )
    layout = tuple(
        LayoutChange(col=rng.randrange(6), old_width=100, new_width=rng.choice((140, 260)))
        for _ in range(rng.randint(0, 2))
    )
    return ChangeSet(cells, structural, layout)


def random_event(rng: Random):
    at = T0 + timedelta(seconds=rng.randrange(86400 * 72), microseconds=rng.randrange(10**6))
    sheet_id = f"sheet-{rng.randrange(5)}"
    if rng.random() < 0.5:
        return open_event(sheet_id, at)
    while True:
        changes = random_changeset(rng)
        if not changes.is_empty():
            return modification_event(sheet_id, at, changes)


def test_open_event_message_shape() -> None:
    message = emit_message(open_event("sheet-1", T0))
    head, _, body = message.partition("\n\n")
    assert "Event-Type: open" in head
    assert "Sheet-ID: sheet-1" in head
    assert body == ""


def test_modification_event_roundtrips_deleted_account_changeset() -> None:
    changes = ChangeSet(cell_changes=(CellChange(2, 1, Cell("GB82WEST12345698765432"), Cell("")),))
    event = modification_event("sheet-1", T0, changes)
    parsed = parse_message(emit_message(event))
    assert parsed == event
    assert parsed.changeset == changes
    assert parsed.modification_class == "content"


def test_roundtrip_identity_over_randomized_events() -> None:
    rng = Random(1312)
    for _ in range(300):
        event = random_event(rng)
        assert parse_message(emit_message(event)) == event


def test_emission_creates_unique_files(tmp_path) -> None:
    event = open_event("sheet-1", T0)
    names = {emit_notification(event, tmp_path) for _ in range(20)}
    assert len(names) == 20
    assert all(name.endswith(".msg") for name in names)


def test_ingest_empty_directory(tmp_path) -> None:
    timeline, quarantined = ingest_mailbox(tmp_path)
    assert len(timeline) == 0 and quarantined == 0


def test_undeliverable_mailbox_raises(tmp_path) -> None:
    from honeysheets.errors import MailboxError

    blocker = tmp_path / "file-in-the-way"
    blocker.write_text("x", encoding="utf-8")
    with pytest.raises(MailboxError):
        emit_notification(open_event("s1", T0), blocker / "mailbox")


def test_ingest_counts_event_kinds(tmp_path) -> None:
    rng = Random(7)
    for i in range(112):
        emit_notification(open_event(f"s{i % 5}", T0 + timedelta(minutes=i)), tmp_path)
    for i in range(17):
        changes = ChangeSet(cell_changes=(CellChange(1, 1, Cell("a"), Cell(f"b{i}")),))
        emit_notification(
            modification_event(f"s{i % 5}", T0 + timedelta(hours=1, minutes=i), changes), tmp_path
        )
    timeline, quarantined = ingest_mailbox(tmp_path)
    assert quarantined == 0
    assert timeline.counts() == {"open": 112, "modification": 17}
    assert len(timeline) == 129


def test_truncated_file_is_quarantined_not_fatal(tmp_path) -> None:
    for i in range(9):
        emit_notification(open_event("s1", T0 + timedelta(minutes=i)), tmp_path)
    (tmp_path / "19990101T000000.000000Z-deadbeef.msg").write_text("Sheet-ID only", encoding="utf-8")
    timeline, quarantined = ingest_mailbox(tmp_path)
    assert len(timeline) == 9
    assert quarantined == 1
    assert (tmp_path / "bad" / "19990101T000000.000000Z-deadbeef.msg").exists()


def test_ingest_is_idempotent(tmp_path) -> None:
    rng = Random(41)
    for _ in range(25):
        emit_notification(random_event(rng), tmp_path)
    first, _ = ingest_mailbox(tmp_path)
    second, _ = ingest_mailbox(tmp_path)
    assert first == second


def test_ingest_is_order_independent(tmp_path) -> None:
    rng = Random(42)
    events = [random_event(rng) for _ in range(40)]
    box_a = tmp_path / "a"
    box_b = tmp_path / "b"
    for event in events:
        emit_notification(event, box_a)
    for event in reversed(events):
        emit_notification(event, box_b)
    # scramble filenames so directory enumeration order differs too
    for i, path in enumerate(sorted(box_b.glob("*.msg"))):
        path.rename(box_b / f"zz-{i ^ 21:03d}.msg")
    timeline_a, _ = ingest_mailbox(box_a)
    timeline_b, _ = ingest_mailbox(box_b)
    assert timeline_a == timeline_b


def test_duplicate_messages_deduplicate(tmp_path) -> None:
    event = open_event("s1", T0)
    emit_notification(event, tmp_path)
    emit_notification(event, tmp_path)
    timeline, _ = ingest_mailbox(tmp_path)
    assert len(timeline) == 1


def test_identical_timestamp_distinct_edits_survive_dedup(tmp_path) -> None:
    changes_a = ChangeSet(cell_changes=(CellChange(1, 1, Cell("a"), Cell("b")),))
    changes_b = ChangeSet(cell_changes=(CellChange(2, 2, Cell("c"), Cell("d")),))
    emit_notification(modification_event("s1", T0, changes_a), tmp_path)
    emit_notification(modification_event("s1", T0, changes_b), tmp_path)
    timeline, _ = ingest_mailbox(tmp_path)
    assert len(timeline) == 2


def test_timeline_sorted_with_open_before_modification() -> None:
    changes = ChangeSet(cell_changes=(CellChange(1, 1, Cell("a"), Cell("b")),))
    timeline = EventTimeline.from_events(
        [
            modification_event("s1", T0, changes),
            open_event("s1", T0),
            open_event("s0", T0 - timedelta(minutes=1)),
        ]
    )
    kinds = [(e.sheet_id, e.kind) for e in timeline]
    assert kinds == [("s0", "open"), ("s1", "open"), ("s1", "modification")]


def test_timeline_json_roundtrip() -> None:
    rng = Random(60)
    timeline = EventTimeline.from_events(random_event(rng) for _ in range(30))
    assert EventTimeline.from_dict([encode(event) for event in timeline]) == timeline


def test_unknown_event_type_rejected() -> None:
    bad = "Sheet-ID: s\nEvent-Type: weird\nOccurred-At: 2016-01-23T09:00:00Z\n\n"
    with pytest.raises(Exception):
        parse_message(bad)
