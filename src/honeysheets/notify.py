"""Event notifications: email-style messages in a directory mailbox.

Delivery emulates a maildir: one message per uniquely named file, written
to a temp name and renamed so readers never see a partial message. The
wire format is header lines, a blank line, then the change set body,
because the original monitoring channel for these events was literally
email.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ._util import decode, format_ts, parse_ts
from .errors import MailboxError, NotificationFormatError
from .sheetstore import ChangeSet, SheetEvent, modification_event, open_event

_KIND_ORDER = {"open": 0, "modification": 1}


def emit_message(event: SheetEvent) -> str:
    """Serialize one event as a notification message."""
    lines = [
        f"Sheet-ID: {event.sheet_id}",
        f"Event-Type: {event.kind}",
        f"Occurred-At: {format_ts(event.occurred_at)}",
    ]
    body = event.changeset.to_json() if event.changeset is not None else ""
    return "\n".join(lines) + "\n\n" + body


def parse_message(text: str) -> SheetEvent:
    """Parse a notification message back into the event it described."""
    head, _, body = text.partition("\n\n")
    headers: dict[str, str] = {}
    for line in head.splitlines():
        name, sep, value = line.partition(": ")
        if not sep or not name:
            raise NotificationFormatError(f"bad header line {line!r}")
        headers[name] = value
    try:
        sheet_id = headers["Sheet-ID"]
        kind = headers["Event-Type"]
        occurred_at = parse_ts(headers["Occurred-At"])
    except KeyError as exc:
        raise NotificationFormatError(f"missing header {exc}") from exc
    except ValueError as exc:
        raise NotificationFormatError(f"bad timestamp: {exc}") from exc

    if kind == "open":
        if body.strip():
            raise NotificationFormatError("open notification with a non-empty body")
        return open_event(sheet_id, occurred_at)
    if kind == "modification":
        try:
            changeset = decode(ChangeSet, json.loads(body))
        except Exception as exc:
            raise NotificationFormatError(f"unreadable changeset body: {exc}") from exc
        if changeset.is_empty():
            raise NotificationFormatError("modification notification with no changes")
        return modification_event(sheet_id, occurred_at, changeset)
    raise NotificationFormatError(f"unknown event type {kind!r}")


def emit_notification(event: SheetEvent, mailbox_dir: str | Path) -> str:
    """Deliver one event into the mailbox; returns the message filename."""
    mailbox = Path(mailbox_dir)
    try:
        mailbox.mkdir(parents=True, exist_ok=True)
        stamp = event.occurred_at.strftime("%Y%m%dT%H%M%S.%fZ")
        while True:
            filename = f"{stamp}-{secrets.token_hex(4)}.msg"
            target = mailbox / filename
            if not target.exists():
                break
        tmp = mailbox / (filename + ".tmp")
        tmp.write_text(emit_message(event), encoding="utf-8")
        tmp.replace(target)
    except OSError as exc:
        raise MailboxError(f"cannot deliver to {mailbox}: {exc}") from exc
    return filename


@dataclass(frozen=True)
class EventTimeline:
    """Events sorted by time, deduplicated on their full identity."""

    events: tuple[SheetEvent, ...]

    @classmethod
    def from_events(cls, events: Iterable[SheetEvent]) -> EventTimeline:
        # One key serves as both the identity and the sort order, so each
        # changeset is hashed once.
        unique: dict[tuple, SheetEvent] = {}
        for event in events:
            key = (
                event.occurred_at,
                event.sheet_id,
                _KIND_ORDER[event.kind],
                event.changeset.body_hash() if event.changeset else "",
            )
            unique.setdefault(key, event)
        return cls(events=tuple(unique[key] for key in sorted(unique)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SheetEvent]:
        return iter(self.events)

    def counts(self) -> dict[str, int]:
        return {
            "open": sum(1 for e in self.events if e.kind == "open"),
            "modification": sum(1 for e in self.events if e.kind == "modification"),
        }

    @classmethod
    def from_dict(cls, rows: list[dict]) -> EventTimeline:
        return cls.from_events(decode(SheetEvent, row) for row in rows)


def ingest_mailbox(mailbox_dir: str | Path) -> tuple[EventTimeline, int]:
    """Read every message in the mailbox into a timeline.

    Malformed messages are moved to a bad/ subdirectory and counted;
    they never abort ingestion. Re-running over an unchanged mailbox
    returns an identical timeline, and enumeration order does not matter.
    """
    mailbox = Path(mailbox_dir)
    if not mailbox.is_dir():
        return EventTimeline(events=()), 0
    quarantined = 0
    events: list[SheetEvent] = []
    for path in sorted(mailbox.glob("*.msg")):
        try:
            events.append(parse_message(path.read_text(encoding="utf-8")))
        except (NotificationFormatError, UnicodeDecodeError):
            bad_dir = mailbox / "bad"
            bad_dir.mkdir(exist_ok=True)
            path.replace(bad_dir / path.name)
            quarantined += 1
    return EventTimeline.from_events(events), quarantined
