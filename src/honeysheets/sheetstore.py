"""Spreadsheet document model: grids, snapshots, diffing, and event classification.

A sheet is a plain in-memory rectangular grid of cells plus per-column
widths. Monitoring works by capturing immutable snapshots of a sheet and
diffing consecutive captures; the resulting change set is classified into
one of five modification classes that the reporting layer aggregates.

Alignment rule for dimension changes: grids are compared by index prefix.
Rows or columns beyond the shorter dimension are reported as inserted or
deleted at the tail, and any content in an inserted region shows up as
cell changes against an empty cell. Applying a change set to the older
snapshot therefore reconstructs the newer one exactly, which is the
contract the round-trip tests enforce.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Iterable, Sequence

from ._util import canonical_dumps, decode, encode, optional_field
from .errors import BadIndex, EmptyChangeSet, SheetMismatch

RGB = tuple[int, int, int]

DEFAULT_FONT_SIZE = 10
BLACK: RGB = (0, 0, 0)
WHITE: RGB = (255, 255, 255)
DEFAULT_COLUMN_WIDTH = 100

STRUCTURAL_KINDS = ("row_inserted", "row_deleted", "col_inserted", "col_deleted")


@dataclass(frozen=True)
class CellFormat:
    font_size: int = DEFAULT_FONT_SIZE
    text_color: RGB = BLACK
    background_color: RGB = WHITE

    def __post_init__(self) -> None:
        if self.font_size < 1:
            raise ValueError(f"font_size must be >= 1, got {self.font_size}")


DEFAULT_FORMAT = CellFormat()


@dataclass(frozen=True)
class Cell:
    value: str = ""
    format: CellFormat = DEFAULT_FORMAT


EMPTY_CELL = Cell()


def _check_rectangular(grid: Sequence[Sequence[Cell]], column_widths: Sequence[int]) -> None:
    for width in column_widths:
        if width < 1:
            raise ValueError(f"column width must be positive, got {width}")
    for row in grid:
        if len(row) != len(column_widths):
            raise ValueError(
                f"ragged grid: row of length {len(row)} vs {len(column_widths)} columns"
            )


@dataclass
class HoneySheet:
    """A mutable decoy document; one writer at a time."""

    sheet_id: str
    grid: list[list[Cell]]
    column_widths: list[int]
    share_link: str

    def __post_init__(self) -> None:
        _check_rectangular(self.grid, self.column_widths)

    @property
    def n_rows(self) -> int:
        return len(self.grid)

    @property
    def n_cols(self) -> int:
        return len(self.column_widths)


def sheets_to_json(sheets: Iterable[HoneySheet]) -> str:
    return canonical_dumps([encode(sheet) for sheet in sheets])


def sheets_from_json(text: str) -> list[HoneySheet]:
    """Load a sheet collection; accepts a JSON array or a single sheet object."""
    data = json.loads(text)
    if isinstance(data, dict):
        data = [data]
    return [decode(HoneySheet, item) for item in data]


@dataclass(frozen=True)
class Snapshot:
    """Frozen copy of one sheet's state at a point in time."""

    sheet_id: str
    taken_at: datetime
    grid: tuple[tuple[Cell, ...], ...]
    column_widths: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rectangular(self.grid, self.column_widths)

    @property
    def n_rows(self) -> int:
        return len(self.grid)

    @property
    def n_cols(self) -> int:
        return len(self.column_widths)


def take_snapshot(sheet: HoneySheet, at: datetime) -> Snapshot:
    """Capture the sheet as of `at`; later edits to the sheet never leak in.

    Cells are immutable, so freezing the row structure is a full deep copy.
    """
    return Snapshot(
        sheet_id=sheet.sheet_id,
        taken_at=at,
        grid=tuple(tuple(row) for row in sheet.grid),
        column_widths=tuple(sheet.column_widths),
    )


@dataclass(frozen=True)
class CellChange:
    row: int
    col: int
    old: Cell
    new: Cell


@dataclass(frozen=True)
class StructuralChange:
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURAL_KINDS:
            raise ValueError(f"unknown structural change kind {self.kind!r}")


@dataclass(frozen=True)
class LayoutChange:
    col: int
    old_width: int
    new_width: int


@dataclass(frozen=True)
class ChangeSet:
    cell_changes: tuple[CellChange, ...] = ()
    structural_changes: tuple[StructuralChange, ...] = ()
    layout_changes: tuple[LayoutChange, ...] = ()

    def is_empty(self) -> bool:
        return not (self.cell_changes or self.structural_changes or self.layout_changes)

    def to_json(self) -> str:
        return canonical_dumps(encode(self))

    def body_hash(self) -> str:
        """Stable digest of the change content, used as a deduplication key."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def diff(before: Snapshot, after: Snapshot) -> ChangeSet:
    """Compute the classified difference between two snapshots of one sheet.

    Applying the result to `before` with apply_changeset reproduces `after`
    cell-for-cell and width-for-width.
    """
    if before.sheet_id != after.sheet_id:
        raise SheetMismatch(
            f"cannot diff snapshots of different sheets: {before.sheet_id} vs {after.sheet_id}"
        )

    structural: list[StructuralChange] = []
    if after.n_rows < before.n_rows:
        structural.extend(
            StructuralChange("row_deleted", i) for i in range(after.n_rows, before.n_rows)
        )
    elif after.n_rows > before.n_rows:
        structural.extend(
            StructuralChange("row_inserted", i) for i in range(before.n_rows, after.n_rows)
        )
    if after.n_cols < before.n_cols:
        structural.extend(
            StructuralChange("col_deleted", i) for i in range(after.n_cols, before.n_cols)
        )
    elif after.n_cols > before.n_cols:
        structural.extend(
            StructuralChange("col_inserted", i) for i in range(before.n_cols, after.n_cols)
        )

    # Each old row is cut or padded to the new width, so a row that did not
    # change compares equal as a whole and its cells are never visited.
    n_cols = after.n_cols
    padding = (EMPTY_CELL,) * max(0, n_cols - before.n_cols)
    cells: list[CellChange] = []
    for r, new_row in enumerate(after.grid):
        old_row = before.grid[r][:n_cols] + padding if r < before.n_rows else (EMPTY_CELL,) * n_cols
        if old_row != new_row:
            for c, (old, new) in enumerate(zip(old_row, new_row)):
                if old != new:
                    cells.append(CellChange(r, c, old, new))

    layout: list[LayoutChange] = []
    for c in range(after.n_cols):
        old_width = before.column_widths[c] if c < before.n_cols else DEFAULT_COLUMN_WIDTH
        new_width = after.column_widths[c]
        if old_width != new_width:
            layout.append(LayoutChange(c, old_width, new_width))

    return ChangeSet(
        cell_changes=tuple(cells),
        structural_changes=tuple(structural),
        layout_changes=tuple(layout),
    )


def classify(changes: ChangeSet) -> str:
    """Assign a non-empty change set to exactly one modification class.

    layout_only: only column widths changed. structural: only rows or
    columns appeared or vanished. formatting_only: every cell change kept
    its value and altered its format. content: every cell change kept its
    format and altered its value. Anything else is mixed.
    """
    if changes.is_empty():
        raise EmptyChangeSet("cannot classify an empty change set")

    has_cells = bool(changes.cell_changes)
    has_structural = bool(changes.structural_changes)
    has_layout = bool(changes.layout_changes)

    if has_layout and not has_cells and not has_structural:
        return "layout_only"
    if has_structural and not has_cells and not has_layout:
        return "structural"
    if has_cells and not has_structural and not has_layout:
        value_only = all(
            c.old.value != c.new.value and c.old.format == c.new.format
            for c in changes.cell_changes
        )
        if value_only:
            return "content"
        format_only = all(
            c.old.value == c.new.value and c.old.format != c.new.format
            for c in changes.cell_changes
        )
        if format_only:
            return "formatting_only"
    return "mixed"


@dataclass(frozen=True)
class SheetEvent:
    """An observed open or modification of one sheet."""

    sheet_id: str
    kind: str
    occurred_at: datetime
    modification_class: str | None = optional_field()
    changeset: ChangeSet | None = optional_field()

    def __post_init__(self) -> None:
        if self.kind not in ("open", "modification"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "modification":
            if self.changeset is None or self.changeset.is_empty():
                raise ValueError("modification events need a non-empty changeset")
            if self.modification_class != classify(self.changeset):
                raise ValueError(
                    f"modification class {self.modification_class!r} does not match "
                    f"the changeset ({classify(self.changeset)!r})"
                )
        else:
            if self.changeset is not None or self.modification_class is not None:
                raise ValueError("open events carry no changeset or class")


def open_event(sheet_id: str, at: datetime) -> SheetEvent:
    return SheetEvent(sheet_id=sheet_id, kind="open", occurred_at=at)


def modification_event(sheet_id: str, at: datetime, changeset: ChangeSet) -> SheetEvent:
    """Build a modification event; the class is always derived from the changes."""
    return SheetEvent(
        sheet_id=sheet_id,
        kind="modification",
        occurred_at=at,
        modification_class=classify(changeset),
        changeset=changeset,
    )


@dataclass(frozen=True)
class EditCommand:
    """One grid edit; see the set_*/insert_*/delete_* constructors."""

    kind: str
    row: int | None = optional_field()
    col: int | None = optional_field()
    value: str | None = optional_field()
    format: CellFormat | None = optional_field()
    width: int | None = optional_field()
    index: int | None = optional_field()


def set_value(row: int, col: int, value: str) -> EditCommand:
    return EditCommand(kind="set_value", row=row, col=col, value=value)


def set_format(row: int, col: int, fmt: CellFormat) -> EditCommand:
    return EditCommand(kind="set_format", row=row, col=col, format=fmt)


def set_column_width(col: int, width: int) -> EditCommand:
    return EditCommand(kind="set_column_width", col=col, width=width)


def insert_row(index: int) -> EditCommand:
    return EditCommand(kind="insert_row", index=index)


def delete_row(index: int) -> EditCommand:
    return EditCommand(kind="delete_row", index=index)


def insert_col(index: int) -> EditCommand:
    return EditCommand(kind="insert_col", index=index)


def delete_col(index: int) -> EditCommand:
    return EditCommand(kind="delete_col", index=index)


def _check_cell_index(sheet: HoneySheet, row: int | None, col: int | None) -> None:
    if row is None or not 0 <= row < sheet.n_rows:
        raise BadIndex(f"row {row} out of range for {sheet.n_rows} rows")
    if col is None or not 0 <= col < sheet.n_cols:
        raise BadIndex(f"col {col} out of range for {sheet.n_cols} columns")


def apply_edit(sheet: HoneySheet, command: EditCommand) -> HoneySheet:
    """Apply one edit command in place and return the sheet.

    Grid rectangularity is preserved by every command; indices outside the
    grid raise BadIndex before anything is touched.
    """
    kind = command.kind
    if kind == "set_value":
        _check_cell_index(sheet, command.row, command.col)
        if command.value is None:
            raise ValueError("set_value needs a value")
        old = sheet.grid[command.row][command.col]
        sheet.grid[command.row][command.col] = replace(old, value=command.value)
    elif kind == "set_format":
        _check_cell_index(sheet, command.row, command.col)
        if command.format is None:
            raise ValueError("set_format needs a format")
        old = sheet.grid[command.row][command.col]
        sheet.grid[command.row][command.col] = replace(old, format=command.format)
    elif kind == "set_column_width":
        if command.col is None or not 0 <= command.col < sheet.n_cols:
            raise BadIndex(f"col {command.col} out of range for {sheet.n_cols} columns")
        if command.width is None or command.width < 1:
            raise ValueError(f"column width must be positive, got {command.width}")
        sheet.column_widths[command.col] = command.width
    elif kind == "insert_row":
        if command.index is None or not 0 <= command.index <= sheet.n_rows:
            raise BadIndex(f"insert_row index {command.index} out of range")
        sheet.grid.insert(command.index, [EMPTY_CELL] * sheet.n_cols)
    elif kind == "delete_row":
        if command.index is None or not 0 <= command.index < sheet.n_rows:
            raise BadIndex(f"delete_row index {command.index} out of range")
        del sheet.grid[command.index]
    elif kind == "insert_col":
        if command.index is None or not 0 <= command.index <= sheet.n_cols:
            raise BadIndex(f"insert_col index {command.index} out of range")
        sheet.column_widths.insert(command.index, DEFAULT_COLUMN_WIDTH)
        for row in sheet.grid:
            row.insert(command.index, EMPTY_CELL)
    elif kind == "delete_col":
        if command.index is None or not 0 <= command.index < sheet.n_cols:
            raise BadIndex(f"delete_col index {command.index} out of range")
        del sheet.column_widths[command.index]
        for row in sheet.grid:
            del row[command.index]
    else:
        raise ValueError(f"unknown edit command {kind!r}")
    return sheet


def apply_changeset(before: Snapshot, changes: ChangeSet, at: datetime | None = None) -> Snapshot:
    """Replay a change set on top of a snapshot through apply_edit, yielding the newer state."""
    sheet = HoneySheet(
        before.sheet_id, [list(row) for row in before.grid], list(before.column_widths), ""
    )
    edit_for = {
        "row_deleted": delete_row,
        "col_deleted": delete_col,
        "row_inserted": insert_row,
        "col_inserted": insert_col,
    }
    deletions = [s for s in changes.structural_changes if s.kind.endswith("_deleted")]
    insertions = [s for s in changes.structural_changes if s.kind.endswith("_inserted")]
    # Deletions first (highest index first), then insertions, so the
    # tail-aligned indices reported by diff stay valid throughout.
    for s in sorted(deletions, key=lambda s: -s.index) + sorted(insertions, key=lambda s: s.index):
        apply_edit(sheet, edit_for[s.kind](s.index))
    for change in changes.cell_changes:
        apply_edit(sheet, set_value(change.row, change.col, change.new.value))
        apply_edit(sheet, set_format(change.row, change.col, change.new.format))
    for change in changes.layout_changes:
        apply_edit(sheet, set_column_width(change.col, change.new_width))
    return take_snapshot(sheet, at or before.taken_at)
