"""Leak post rendering and scheduling for the two publication personas.

Posts are rendered from themed templates and scheduled at fixed intra-day
offsets, cycling across the available sheets round-robin. Publication is
delegated to a sink; the default sink writes files, a real paste-site
client being deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from random import Random
from typing import Sequence

from .sheetstore import HoneySheet


@dataclass(frozen=True)
class Theme:
    name: str
    templates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("a theme needs at least one template")
        for template in self.templates:
            if template.count("{link}") != 1:
                raise ValueError(
                    f"template must contain {{link}} exactly once: {template!r}"
                )


HACKER_THEME = Theme(
    "hacker",
    (
        "leaked corporate payments {link}",
        "st0len payrolls {link}",
        "corp salary dump, ibans included {link}",
        "fresh from the finance share, help yourselves {link}",
        "pwned their payroll. proof: {link}",
    ),
)

NAIVE_THEME = Theme(
    "naive",
    (
        "Bob, here is the spreadsheet with payrolls for September {link}",
        "Hi Sue, sharing the payroll sheet before the meeting {link}",
        "Team - updated payment spreadsheet attached {link}",
        "Anna, could you double-check the September payments? {link}",
        "Sending over the salary sheet as promised {link}",
    ),
)

THEMES = {theme.name: theme for theme in (HACKER_THEME, NAIVE_THEME)}

_ANCHOR_MINUTES = 9 * 60  # first post of the day at 09:00 UTC


@dataclass(frozen=True)
class LeakPlan:
    theme: Theme
    start_date: datetime
    days: int
    posts_per_day: int

    def __post_init__(self) -> None:
        if self.days < 0:
            raise ValueError(f"days must be >= 0, got {self.days}")
        if self.posts_per_day < 0:
            raise ValueError(f"posts_per_day must be >= 0, got {self.posts_per_day}")
        if self.start_date.tzinfo is None:
            raise ValueError("start_date must be timezone-aware")


@dataclass(frozen=True)
class LeakPost:
    theme: str
    rendered_text: str
    sheet_id: str
    scheduled_at: datetime


def render_post(theme: Theme, share_link: str, rng: Random) -> str:
    """Pick one template and substitute the share link into it."""
    return rng.choice(theme.templates).replace("{link}", share_link)


def intraday_offsets(posts_per_day: int) -> list[timedelta]:
    """Fixed posting times: evenly spread over the day, anchored at 09:00.

    Two posts per day land at 09:00 and 21:00 UTC.
    """
    minutes = sorted(
        (_ANCHOR_MINUTES + k * (24 * 60) // posts_per_day) % (24 * 60)
        for k in range(posts_per_day)
    )
    return [timedelta(minutes=m) for m in minutes]


def schedule(plan: LeakPlan, sheets: Sequence[HoneySheet], rng: Random) -> list[LeakPost]:
    """Produce days x posts_per_day posts, cycling across sheets round-robin."""
    total = plan.days * plan.posts_per_day
    if total == 0:
        return []
    if not sheets:
        raise ValueError("cannot schedule posts without sheets")
    offsets = intraday_offsets(plan.posts_per_day)
    posts: list[LeakPost] = []
    for slot in range(total):
        day, within = divmod(slot, plan.posts_per_day)
        sheet = sheets[slot % len(sheets)]
        posts.append(
            LeakPost(
                theme=plan.theme.name,
                rendered_text=render_post(plan.theme, sheet.share_link, rng),
                sheet_id=sheet.sheet_id,
                scheduled_at=plan.start_date + timedelta(days=day) + offsets[within],
            )
        )
    return posts


class FilePostSink:
    """Writes each post to its own file under a directory; returns the path."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._seq = 0

    def post(self, leak_post: LeakPost) -> str:
        stamp = leak_post.scheduled_at.strftime("%Y%m%dT%H%M%SZ")
        name = f"{stamp}-{leak_post.theme}-{self._seq:04d}.txt"
        self._seq += 1
        path = self.out_dir / name
        path.write_text(leak_post.rendered_text + "\n", encoding="utf-8")
        return str(path)
