from __future__ import annotations

from collections import Counter
from pathlib import Path
from random import Random

import pytest

from honeysheets.leak import (
    HACKER_THEME,
    NAIVE_THEME,
    THEMES,
    FilePostSink,
    LeakPlan,
    Theme,
    intraday_offsets,
    render_post,
    schedule,
)

from conftest import make_fleet, utc

START = utc(2016, 1, 23)


def test_bundled_themes_have_enough_templates() -> None:
    for theme in THEMES.values():
        assert len(theme.templates) >= 5
        for template in theme.templates:
            assert template.count("{link}") == 1


def test_stock_personas_are_present() -> None:
    assert "leaked corporate payments {link}" in HACKER_THEME.templates
    assert "st0len payrolls {link}" in HACKER_THEME.templates
    assert "Bob, here is the spreadsheet with payrolls for September {link}" in NAIVE_THEME.templates


def test_template_validation() -> None:
    with pytest.raises(ValueError):
        Theme("bad", ("no placeholder",))
    with pytest.raises(ValueError):
        Theme("bad", ("{link} twice {link}",))
    with pytest.raises(ValueError):
        Theme("bad", ())


def test_render_substitutes_link_once() -> None:
    rng = Random(5)
    for _ in range(50):
        text = render_post(HACKER_THEME, "https://sheets.example.org/d/abc/edit", rng)
        assert text.count("https://sheets.example.org/d/abc/edit") == 1
        assert "{link}" not in text


def test_single_template_theme_is_deterministic() -> None:
    theme = Theme("solo", ("only option {link}",))
    outs = {render_post(theme, "L", Random(seed)) for seed in range(10)}
    assert outs == {"only option L"}


def test_two_posts_per_day_land_at_nine_and_twenty_one() -> None:
    offsets = intraday_offsets(2)
    assert [o.total_seconds() / 3600 for o in offsets] == [9.0, 21.0]


def test_hacker_schedule_counts() -> None:
    _, sheets = make_fleet()
    plan = LeakPlan(HACKER_THEME, START, days=46, posts_per_day=2)
    posts = schedule(plan, sheets, Random(1))
    assert len(posts) == 92


def test_naive_schedule_counts() -> None:
    _, sheets = make_fleet()
    plan = LeakPlan(NAIVE_THEME, utc(2016, 3, 9), days=26, posts_per_day=2)
    posts = schedule(plan, sheets, Random(1))
    assert len(posts) == 52


def test_zero_days_schedules_nothing() -> None:
    _, sheets = make_fleet()
    assert schedule(LeakPlan(HACKER_THEME, START, 0, 2), sheets, Random(1)) == []


def test_posts_sorted_and_contain_their_sheet_link() -> None:
    _, sheets = make_fleet()
    by_id = {s.sheet_id: s for s in sheets}
    posts = schedule(LeakPlan(HACKER_THEME, START, days=10, posts_per_day=2), sheets, Random(2))
    assert all(a.scheduled_at <= b.scheduled_at for a, b in zip(posts, posts[1:]))
    for post in posts:
        link = by_id[post.sheet_id].share_link
        assert post.rendered_text.count(link) == 1


def test_round_robin_fairness_across_five_sheets() -> None:
    _, sheets = make_fleet()
    posts = schedule(LeakPlan(HACKER_THEME, START, days=46, posts_per_day=2), sheets, Random(3))
    counts = Counter(post.sheet_id for post in posts)
    assert len(counts) == 5
    assert max(counts.values()) - min(counts.values()) <= 1


def test_schedule_size_invariant_for_other_cadences() -> None:
    _, sheets = make_fleet(n_sheets=2)
    for days, per_day in ((1, 1), (3, 4), (7, 3), (5, 0)):
        posts = schedule(LeakPlan(HACKER_THEME, START, days, per_day), sheets, Random(4))
        assert len(posts) == days * per_day


def test_file_sink_writes_each_post(tmp_path) -> None:
    _, sheets = make_fleet(n_sheets=1)
    posts = schedule(LeakPlan(NAIVE_THEME, START, days=2, posts_per_day=2), sheets, Random(5))
    sink = FilePostSink(tmp_path / "posts")
    receipts = [sink.post(post) for post in posts]
    assert len(set(receipts)) == 4
    for receipt, post in zip(receipts, posts):
        assert post.rendered_text in Path(receipt).read_text(encoding="utf-8")
