"""The canonical renderer and the array decoder against the json module."""

from __future__ import annotations

import json
import tracemalloc
from datetime import timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysheets import _util
from honeysheets._util import canonical_dumps, decode_array, dump, encode
from honeysheets.sheetstore import (
    STRUCTURAL_KINDS,
    Cell,
    CellChange,
    CellFormat,
    ChangeSet,
    EditCommand,
    HoneySheet,
    LayoutChange,
    StructuralChange,
    modification_event,
    open_event,
    sheets_from_json,
)

from conftest import make_fleet


def reference(obj) -> str:
    """What canonical_dumps must write: json.dumps of the encode() tree."""
    return json.dumps(obj, default=encode, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# Characters json escapes or that readers mistake for line breaks.
_AWKWARD = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
     "\u0085", "\u2028", "\u2029", "é", "£", "漢", "\U0001f600"]
)
texts = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), _AWKWARD), max_size=12)
ints = st.integers(min_value=-(2**70), max_value=2**70)

# A few shared formats, so one instance is rendered at several indents.
_SHARED = [CellFormat(), CellFormat(font_size=11, background_color=(239, 239, 239))]
channels = st.integers(min_value=0, max_value=255)
colors = st.tuples(channels, channels, channels)
formats = st.one_of(
    st.sampled_from(_SHARED),
    st.builds(CellFormat, font_size=st.integers(1, 72), text_color=colors, background_color=colors),
)
cells = st.builds(Cell, value=texts, format=formats)


@st.composite
def honey_sheets(draw) -> HoneySheet:
    n_cols = draw(st.integers(0, 3))
    grid = draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols), max_size=3))
    widths = draw(st.lists(st.integers(1, 500), min_size=n_cols, max_size=n_cols))
    return HoneySheet(draw(texts), grid, widths, draw(texts))


indices = st.integers(0, 10_000)
changesets = st.builds(
    ChangeSet,
    cell_changes=st.lists(st.builds(CellChange, indices, indices, cells, cells), max_size=3)
    .map(tuple),
    structural_changes=st.lists(
        st.builds(StructuralChange, st.sampled_from(STRUCTURAL_KINDS), indices), max_size=2
    ).map(tuple),
    layout_changes=st.lists(st.builds(LayoutChange, indices, indices, indices), max_size=2)
    .map(tuple),
)
edit_commands = st.builds(
    EditCommand,
    kind=texts,
    row=st.none() | indices,
    col=st.none() | indices,
    value=st.none() | texts,
    format=st.none() | formats,
    width=st.none() | indices,
    index=st.none() | indices,
)
moments = st.datetimes(timezones=st.just(timezone.utc))
events = st.one_of(
    st.builds(open_event, texts, moments),
    st.builds(
        modification_event,
        texts,
        moments,
        changesets.filter(lambda c: not c.is_empty()),
    ),
)
plain_json = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)
renderable = st.one_of(
    honey_sheets(),
    st.lists(honey_sheets(), max_size=3),
    changesets,
    edit_commands,
    events,
    st.lists(events, max_size=3),
    plain_json,
)


@settings(max_examples=300, deadline=None)
@given(renderable)
def test_canonical_text_is_the_json_modules_text(obj) -> None:
    assert canonical_dumps(obj) == reference(obj)


def test_value_types_are_rendered_per_indent_and_decoded_once() -> None:
    fmt = CellFormat(font_size=9, text_color=(1, 2, 3))
    sheet = HoneySheet("s", [[Cell("a", fmt), Cell("b", fmt)]], [10, 10], "l")
    nested = {"sheet": sheet, "format": fmt, "formats": [fmt, fmt]}
    assert canonical_dumps(nested) == reference(nested)
    # Equal raw formats decode to one instance; 9 and 9.0 print apart, so stay apart.
    text = canonical_dumps([sheet, sheet]).replace('"font_size": 9', '"font_size": 9.0', 1)
    decoded = sheets_from_json(text)
    first, *rest = [cell.format for s in decoded for row in s.grid for cell in row]
    assert len({id(f) for f in rest}) == 1 and rest[0] is not first
    assert canonical_dumps(decoded) == text


def test_dump_streams_big_sheets_in_little_memory(tmp_path) -> None:
    _, sheets = make_fleet(n_sheets=2, rows=1500)  # built with build_honey_sheet
    path = tmp_path / "sheets.json"
    tracemalloc.start()
    try:
        dump(sheets, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 2_000_000
    assert peak < 2 * written, f"peak {peak} bytes for {written} written"
    assert path.read_text(encoding="utf-8") == reference(sheets)


def test_a_write_failing_halfway_leaves_the_old_file_whole(tmp_path, monkeypatch) -> None:
    path = tmp_path / "data.json"
    path.write_text("old\n", encoding="utf-8")
    real_open = open

    class FailingSecondWrite:
        def __init__(self, handle) -> None:
            self.handle, self.writes = handle, 0

        def write(self, text: str) -> int:
            self.writes += 1
            if self.writes == 2:
                raise OSError(28, "No space left on device")
            return self.handle.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            self.handle.close()

    monkeypatch.setattr(
        _util, "open", lambda *a, **k: FailingSecondWrite(real_open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        dump(list(range(20_000)), path)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    monkeypatch.undo()
    dump(list(range(20_000)), path)
    assert path.read_text(encoding="utf-8") == reference(list(range(20_000)))
    assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


def test_array_decoding_fails_where_and_as_json_loads_does() -> None:
    _, sheets = make_fleet(n_sheets=2, rows=1)
    text = canonical_dumps(sheets)
    torn = [text[:cut] for cut in range(len(text) + 1)]
    # Items ahead of a syntax error are valid, so the error is the first one either way.
    torn += [" [ ] ", "[]x", "{}", "5", "\ufeff[]", text.replace("\n  },\n  {", "\n  }\n  {")]
    for sample in torn:
        try:
            expected = json.loads(sample)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as caught:
                decode_array(HoneySheet, sample)
            assert (caught.value.msg, caught.value.pos) == (exc.msg, exc.pos), repr(sample)
            continue
        if isinstance(expected, list) and not expected:
            assert decode_array(HoneySheet, sample) == []
        elif expected == json.loads(text):
            assert canonical_dumps(decode_array(HoneySheet, sample)) == text
        else:
            with pytest.raises((KeyError, ValueError)):
                decode_array(HoneySheet, sample)
