"""Spans around the public functions of each honeysheets layer, from outside.

install() replaces every listed function or method with a wrapper that
records (name, start, end, parent) in memory and adds cheap counts taken
from the arguments and the result. A module-level function is replaced in
its defining module and in every honeysheets module that imported it by
name, so `from .sheetstore import diff` in simharness is traced too.
Spans are written once, when the process ends.

Only traced runs import this module; untraced runs start the CLI plainly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (span name, module, attribute path, counts from (args, result))
WRAPS = (
    ("honeygen.build_honey_sheet", "honeysheets.honeygen", "build_honey_sheet",
     lambda a, r: {"honeygen.rows_built": len(r.grid) - 1}),
    ("honeylink.mint_token", "honeysheets.honeylink", "mint_token",
     lambda a, r: {"honeylink.tokens_minted": 1}),
    ("honeylink.handle", "honeysheets.honeylink", "LinkServerCore.handle", None),
    ("honeylink.log_append", "honeysheets.honeylink", "AccessLogWriter.append", None),
    ("honeylink.load_access_log", "honeysheets.honeylink", "load_access_log",
     lambda a, r: {"honeylink.log_lines_read": len(r)}),
    ("sheetstore.take_snapshot", "honeysheets.sheetstore", "take_snapshot", None),
    ("sheetstore.diff", "honeysheets.sheetstore", "diff",
     lambda a, r: {"sheetstore.cells_compared": len(a[1].grid) * len(a[1].column_widths),
                   "sheetstore.cells_changed": len(r.cell_changes)}),
    ("sheetstore.apply_edit", "honeysheets.sheetstore", "apply_edit", None),
    ("sheetstore.sheets_from_json", "honeysheets.sheetstore", "sheets_from_json",
     lambda a, r: {"sheetstore.sheet_bytes_parsed": len(a[0])}),
    ("sheetstore.sheets_to_json", "honeysheets.sheetstore", "sheets_to_json", None),
    ("sheetstore.changeset_to_json", "honeysheets.sheetstore", "ChangeSet.to_json", None),
    ("sheetstore.body_hash", "honeysheets.sheetstore", "ChangeSet.body_hash", None),
    ("notify.emit_notification", "honeysheets.notify", "emit_notification", None),
    ("notify.ingest_mailbox", "honeysheets.notify", "ingest_mailbox", None),
    ("notify.parse_message", "honeysheets.notify", "parse_message", None),
    ("notify.timeline_from_events", "honeysheets.notify", "EventTimeline.from_events", None),
    ("notify.timeline_from_dict", "honeysheets.notify", "EventTimeline.from_dict", None),
    ("leak.schedule", "honeysheets.leak", "schedule", None),
    ("leak.post", "honeysheets.leak", "FilePostSink.post", None),
    ("analytics.aggregate", "honeysheets.analytics", "aggregate", None),
    ("analytics.geo_lookup", "honeysheets.analytics", "GeoTable.lookup", None),
    ("analytics.load_csv", "honeysheets.analytics", "GeoTable.load_csv", None),
    ("analytics.export_report", "honeysheets.analytics", "export_report", None),
    ("simharness.simulate", "honeysheets.simharness", "simulate",
     lambda a, r: {"simharness.actions": len(r)}),
    ("simharness.replay", "honeysheets.simharness", "replay", None),
    ("simharness.trace_to_json", "honeysheets.simharness", "ActionTrace.to_json",
     lambda a, r: {"simharness.trace_bytes": len(r)}),
    ("simharness.trace_from_json", "honeysheets.simharness", "ActionTrace.from_json", None),
    ("cli.run", "honeysheets.cli", "run", None),
)


class Recorder:
    """In-memory spans of one process; parents tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                with recorder._lock:
                    recorder.counts.update(counter(args, result))
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, handle)


def install(recorder: Recorder) -> None:
    importlib.import_module("honeysheets.cli")  # binds every imported name first
    for name, module_name, attr, counter in WRAPS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(recorder.wrap(name, raw.__func__, counter)))
            else:
                setattr(cls, meth, recorder.wrap(name, raw, counter))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("honeysheets") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def summarize(dump: dict) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        item = out[name]
        item["calls"] += 1
        item["total_s"] += end - start
        item["self_s"] += end - start - child[i]
    return dict(out)
