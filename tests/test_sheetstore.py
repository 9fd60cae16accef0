from __future__ import annotations

import json
from datetime import timedelta
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysheets._util import decode
from honeysheets.errors import BadIndex, EmptyChangeSet, SheetMismatch
from honeysheets.sheetstore import (
    DEFAULT_COLUMN_WIDTH,
    EMPTY_CELL,
    Cell,
    CellFormat,
    ChangeSet,
    HoneySheet,
    Snapshot,
    apply_changeset,
    apply_edit,
    classify,
    delete_col,
    delete_row,
    diff,
    insert_col,
    insert_row,
    modification_event,
    open_event,
    set_column_width,
    set_format,
    set_value,
    sheets_from_json,
    sheets_to_json,
    take_snapshot,
)

from conftest import utc

T0 = utc(2016, 1, 23, 9, 0, 0)
T1 = T0 + timedelta(hours=2)

RED = CellFormat(text_color=(255, 0, 0))
BIG = CellFormat(font_size=18)


def make_sheet(rows: int = 3, cols: int = 4, fill: str = "v") -> HoneySheet:
    grid = [[Cell(f"{fill}{r},{c}") for c in range(cols)] for r in range(rows)]
    return HoneySheet("sheet-x", grid, [100] * cols, "https://sheets.example.org/d/sheet-x/edit")


def random_cell(rng: Random) -> Cell:
    fmt = CellFormat(
        font_size=rng.choice((8, 10, 12)),
        text_color=rng.choice(((0, 0, 0), (255, 0, 0))),
        background_color=rng.choice(((255, 255, 255), (200, 220, 240))),
    )
    return Cell(value=rng.choice(("", "a", "b", "iban", "https://x")), format=fmt)


def random_snapshot(rng: Random, rows: int, cols: int) -> Snapshot:
    return Snapshot(
        sheet_id="sheet-x",
        taken_at=T0,
        grid=tuple(tuple(random_cell(rng) for _ in range(cols)) for _ in range(rows)),
        column_widths=tuple(rng.choice((60, 100, 150, 240)) for _ in range(cols)),
    )


def brute_force_diff(before: Snapshot, after: Snapshot):
    """Reference diff: compare every cell and width of `after` independently.

    A cell or column past `before`'s shape compares against an empty cell
    or the default width.
    """
    cells = set()
    for r in range(after.n_rows):
        for c in range(after.n_cols):
            inside = r < before.n_rows and c < before.n_cols
            old = before.grid[r][c] if inside else EMPTY_CELL
            if old != after.grid[r][c]:
                cells.add((r, c, old, after.grid[r][c]))
    widths = set()
    for c in range(after.n_cols):
        old = before.column_widths[c] if c < before.n_cols else DEFAULT_COLUMN_WIDTH
        if old != after.column_widths[c]:
            widths.add((c, old, after.column_widths[c]))
    return cells, widths


def brute_force_structural(before: Snapshot, after: Snapshot):
    """The tail-alignment rule: indices past the shorter dimension appear or vanish."""
    out = set()
    for axis, old, new in (("row", before.n_rows, after.n_rows), ("col", before.n_cols, after.n_cols)):
        out |= {(f"{axis}_deleted", i) for i in range(new, old)}
        out |= {(f"{axis}_inserted", i) for i in range(old, new)}
    return out


def test_snapshot_is_isolated_from_later_edits() -> None:
    sheet = make_sheet()
    snap = take_snapshot(sheet, T0)
    apply_edit(sheet, set_value(0, 0, "changed"))
    assert snap.grid[0][0].value == "v0,0"
    assert snap.taken_at == T0


def test_snapshot_of_unedited_sheet_diffs_empty() -> None:
    sheet = make_sheet()
    assert diff(take_snapshot(sheet, T0), take_snapshot(sheet, T1)).is_empty()


def test_diff_identity_is_empty() -> None:
    snap = take_snapshot(make_sheet(), T0)
    assert diff(snap, snap).is_empty()


def test_diff_rejects_mismatched_sheets() -> None:
    a = take_snapshot(make_sheet(), T0)
    other = make_sheet()
    other.sheet_id = "sheet-y"
    with pytest.raises(SheetMismatch):
        diff(a, take_snapshot(other, T1))


def test_deleted_account_number_yields_single_content_change() -> None:
    sheet = make_sheet()
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, set_value(2, 1, ""))
    changes = diff(before, take_snapshot(sheet, T1))
    assert len(changes.cell_changes) == 1
    assert changes.cell_changes[0].new.value == ""
    assert not changes.structural_changes and not changes.layout_changes
    assert classify(changes) == "content"


def test_width_only_diff_is_layout_only() -> None:
    sheet = make_sheet(cols=5)
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, set_column_width(4, 240))
    changes = diff(before, take_snapshot(sheet, T1))
    assert len(changes.layout_changes) == 1
    assert changes.layout_changes[0].old_width == 100
    assert changes.layout_changes[0].new_width == 240
    assert not changes.cell_changes
    assert classify(changes) == "layout_only"


def test_link_swap_plus_background_change_is_mixed() -> None:
    sheet = make_sheet()
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, set_value(1, 2, "https://short.example/ufniSo"))
    apply_edit(sheet, set_format(2, 3, CellFormat(background_color=(0, 0, 0))))
    changes = diff(before, take_snapshot(sheet, T1))
    assert classify(changes) == "mixed"


def test_value_change_same_format_is_content() -> None:
    sheet = make_sheet()
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, set_value(0, 0, "y"))
    assert classify(diff(before, take_snapshot(sheet, T1))) == "content"


def test_format_change_same_value_is_formatting_only() -> None:
    sheet = make_sheet()
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, set_format(0, 0, RED))
    apply_edit(sheet, set_format(1, 1, BIG))
    assert classify(diff(before, take_snapshot(sheet, T1))) == "formatting_only"


def test_pure_row_deletion_is_structural() -> None:
    sheet = make_sheet()
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, delete_row(2))
    changes = diff(before, take_snapshot(sheet, T1))
    assert classify(changes) == "structural"
    assert [s.kind for s in changes.structural_changes] == ["row_deleted"]


def test_classify_rejects_empty() -> None:
    with pytest.raises(EmptyChangeSet):
        classify(ChangeSet())


def test_classify_partitions_into_exactly_one_class() -> None:
    rng = Random(4242)
    for _ in range(300):
        before = random_snapshot(rng, rng.randint(1, 5), rng.randint(1, 5))
        sheet = HoneySheet(
            "sheet-x",
            [list(row) for row in before.grid],
            list(before.column_widths),
            "https://sheets.example.org/d/sheet-x/edit",
        )
        for _ in range(rng.randint(1, 4)):
            _random_edit(rng, sheet)
        changes = diff(before, take_snapshot(sheet, T1))
        if changes.is_empty():
            continue
        label = classify(changes)
        assert label in ("content", "formatting_only", "layout_only", "structural", "mixed")


def _random_edit(rng: Random, sheet: HoneySheet) -> None:
    ops = ["set_value", "set_format", "set_column_width", "insert_row", "delete_row",
           "insert_col", "delete_col"]
    op = rng.choice(ops)
    if op == "set_value" and sheet.n_rows and sheet.n_cols:
        apply_edit(sheet, set_value(rng.randrange(sheet.n_rows), rng.randrange(sheet.n_cols),
                                    rng.choice(("", "q", "zz"))))
    elif op == "set_format" and sheet.n_rows and sheet.n_cols:
        apply_edit(sheet, set_format(rng.randrange(sheet.n_rows), rng.randrange(sheet.n_cols),
                                     rng.choice((RED, BIG))))
    elif op == "set_column_width" and sheet.n_cols:
        apply_edit(sheet, set_column_width(rng.randrange(sheet.n_cols), rng.choice((80, 180))))
    elif op == "insert_row":
        apply_edit(sheet, insert_row(rng.randint(0, sheet.n_rows)))
    elif op == "delete_row" and sheet.n_rows > 1:
        apply_edit(sheet, delete_row(rng.randrange(sheet.n_rows)))
    elif op == "insert_col":
        apply_edit(sheet, insert_col(rng.randint(0, sheet.n_cols)))
    elif op == "delete_col" and sheet.n_cols > 1:
        apply_edit(sheet, delete_col(rng.randrange(sheet.n_cols)))


def test_diff_matches_brute_force_on_equal_dimensions() -> None:
    rng = Random(2024)
    for n in range(400):
        rows, cols = rng.randint(1, 12), rng.randint(1, 8)
        before = random_snapshot(rng, rows, cols)
        if n >= 200:  # unequal shapes as well, in both directions
            rows, cols = rng.randint(0, 12), rng.randint(1, 8)
        after = random_snapshot(rng, rows, cols)
        changes = diff(before, after)
        cells, widths = brute_force_diff(before, after)
        assert {(c.row, c.col, c.old, c.new) for c in changes.cell_changes} == cells
        assert {(l.col, l.old_width, l.new_width) for l in changes.layout_changes} == widths
        structural = {(s.kind, s.index) for s in changes.structural_changes}
        assert structural == brute_force_structural(before, after)


def test_roundtrip_applies_diff_across_dimension_changes() -> None:
    rng = Random(515)
    for _ in range(500):
        before = random_snapshot(rng, rng.randint(1, 10), rng.randint(1, 6))
        after = random_snapshot(rng, rng.randint(1, 10), rng.randint(1, 6))
        rebuilt = apply_changeset(before, diff(before, after))
        assert rebuilt.grid == after.grid
        assert rebuilt.column_widths == after.column_widths


def test_structural_changes_reported_at_tail_indices() -> None:
    sheet = make_sheet(rows=2, cols=2)
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, insert_row(0))
    apply_edit(sheet, insert_col(1))
    changes = diff(before, take_snapshot(sheet, T1))
    kinds = sorted(s.kind for s in changes.structural_changes)
    assert kinds == ["col_inserted", "row_inserted"]
    assert {s.index for s in changes.structural_changes if s.kind == "row_inserted"} == {2}
    assert {s.index for s in changes.structural_changes if s.kind == "col_inserted"} == {2}
    rebuilt = apply_changeset(before, changes)
    assert rebuilt.grid == take_snapshot(sheet, T1).grid


def test_apply_edit_insert_row_expands_dimensions() -> None:
    sheet = make_sheet(rows=2, cols=3)
    apply_edit(sheet, insert_row(0))
    assert sheet.n_rows == 3
    assert all(cell.value == "" for cell in sheet.grid[0])
    assert all(len(row) == 3 for row in sheet.grid)


def test_apply_edit_vandal_text() -> None:
    sheet = make_sheet()
    apply_edit(sheet, set_value(0, 0, "\\MINIONSXDDDD"))
    assert sheet.grid[0][0].value == "\\MINIONSXDDDD"


def test_apply_edit_bounds_checks() -> None:
    sheet = make_sheet(rows=2, cols=2)
    with pytest.raises(BadIndex):
        apply_edit(sheet, delete_col(2))
    with pytest.raises(BadIndex):
        apply_edit(sheet, set_value(2, 0, "x"))
    with pytest.raises(BadIndex):
        apply_edit(sheet, set_column_width(5, 100))
    with pytest.raises(BadIndex):
        apply_edit(sheet, insert_row(4))


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30), st.integers())
def test_apply_edit_never_produces_ragged_grids(ops: list[int], seed: int) -> None:
    rng = Random(seed)
    sheet = make_sheet(rows=3, cols=3)
    for _ in ops:
        _random_edit(rng, sheet)
        assert all(len(row) == sheet.n_cols for row in sheet.grid)


def test_changeset_json_roundtrip() -> None:
    sheet = make_sheet()
    before = take_snapshot(sheet, T0)
    apply_edit(sheet, set_value(0, 1, "swap"))
    apply_edit(sheet, insert_row(3))
    apply_edit(sheet, set_column_width(0, 222))
    changes = diff(before, take_snapshot(sheet, T1))
    assert decode(ChangeSet, json.loads(changes.to_json())) == changes


def test_sheet_json_roundtrip_and_canonical_bytes() -> None:
    sheet = make_sheet()
    (again,) = sheets_from_json(sheets_to_json([sheet]))
    assert sheets_to_json([again]) == sheets_to_json([sheet])
    assert again.grid == sheet.grid


def test_event_invariants() -> None:
    with pytest.raises(EmptyChangeSet):
        modification_event("s", T0, ChangeSet())
    event = open_event("s", T0)
    assert event.kind == "open" and event.changeset is None

