"""Short-token honey links: minting, the redirect-and-log tracker, UA parsing.

Every honey URL is hidden behind a 6-character token served from our own
short-link host, so any click lands on infrastructure we control. The
tracker logs the full request before answering, then either 302-redirects
known tokens to an innocuous page or 404s everything else. Unknown paths
are logged too: a scanner probing the host is itself a signal.
"""

from __future__ import annotations

import email.message
import email.parser
import http.client
import json
import re
import string
import threading
from dataclasses import dataclass, field
from datetime import datetime
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from random import Random
from urllib.parse import urlsplit

from ._util import canonical_dumps, compact_dumps, decode, encode, utcnow
from .errors import BadDestination, KeyspaceExhausted

TOKEN_ALPHABET = string.ascii_letters + string.digits
TOKEN_LENGTH = 6
TARGET_CLASSES = ("controlled", "decoy_bank")

# Largest request body the tracker drains; a longer declared body gets a 400.
MAX_BODY_BYTES = 64 * 1024
# Seconds a connection may sit idle, or stall mid-request, before the tracker closes it.
IDLE_TIMEOUT_S = 30.0

_TOKEN_PATH = re.compile(r"^/t/([A-Za-z0-9]+)$")

# The stdlib's limits on a request head (http.client): longest line, most lines.
_MAX_HEAD_LINE = 65536
_MAX_HEAD_LINES = 100
# A header line stored without the email parser: a field name, a colon and a
# value with no CR or LF in it. The parser keeps such a line as the name and
# the value with its leading blanks dropped, which is what the groups hold.
_PLAIN_HEADER = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n\Z")

# Browser and OS markers in precedence order; the first substring hit wins.
# SamsungBrowser and Chrome UAs also contain "Safari", and Android UAs
# contain "Linux", which is what the ordering resolves.
_BROWSER_MARKERS = (
    ("SamsungBrowser", "Samsung"),
    ("Chrome", "Chrome"),
    ("Safari", "Safari"),
    ("Firefox", "Firefox"),
)
_OS_MARKERS = (
    ("Android", "Android"),
    ("Windows", "Windows"),
    ("Macintosh", "Macintosh"),
    ("Linux", "Linux"),
)


def parse_user_agent(header_value: str) -> tuple[str, str]:
    """Classify a User-Agent header into (browser, os); unknowns become Other."""
    browser = next((name for marker, name in _BROWSER_MARKERS if marker in header_value), "Other")
    os_name = next((name for marker, name in _OS_MARKERS if marker in header_value), "Other")
    return browser, os_name


@dataclass(frozen=True)
class HoneyLink:
    token: str
    target_class: str
    destination: str
    sheet_id: str
    short_url: str

    def __post_init__(self) -> None:
        if self.target_class not in TARGET_CLASSES:
            raise ValueError(f"unknown target class {self.target_class!r}")


@dataclass
class LinkRegistry:
    """Injective token-to-link mapping plus the tracker's redirect target."""

    redirect_target: str = "https://www.google.com"
    short_base: str = "https://snip.example.net"
    controlled_domain: str | None = None
    token_length: int = TOKEN_LENGTH
    alphabet: str = TOKEN_ALPHABET
    links: dict[str, HoneyLink] = field(default_factory=dict)

    def keyspace(self) -> int:
        return len(self.alphabet) ** self.token_length

    def resolve(self, token: str) -> HoneyLink | None:
        return self.links.get(token)

    def by_class(self, target_class: str) -> list[HoneyLink]:
        return [link for link in self.links.values() if link.target_class == target_class]

    def for_sheet(self, sheet_id: str) -> list[HoneyLink]:
        return [link for link in self.links.values() if link.sheet_id == sheet_id]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(canonical_dumps(encode(self)), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> LinkRegistry:
        return decode(cls, json.loads(Path(path).read_text(encoding="utf-8")))


def mint_token(
    registry: LinkRegistry,
    target_class: str,
    destination: str,
    sheet_id: str,
    rng: Random,
) -> HoneyLink:
    """Mint a fresh obfuscated token for a destination and store it."""
    parts = urlsplit(destination)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise BadDestination(f"not an absolute http(s) URL: {destination!r}")
    if (
        target_class == "controlled"
        and registry.controlled_domain is not None
        and parts.hostname != registry.controlled_domain
    ):
        raise BadDestination(
            f"controlled link host {parts.hostname!r} is not the configured "
            f"controlled domain {registry.controlled_domain!r}"
        )
    if len(registry.links) >= registry.keyspace():
        raise KeyspaceExhausted(
            f"all {registry.keyspace()} tokens of length {registry.token_length} assigned"
        )
    while True:
        token = "".join(rng.choice(registry.alphabet) for _ in range(registry.token_length))
        if token not in registry.links:
            break
    link = HoneyLink(
        token=token,
        target_class=target_class,
        destination=destination,
        sheet_id=sheet_id,
        short_url=f"{registry.short_base}/t/{token}",
    )
    registry.links[token] = link
    return link


@dataclass(frozen=True)
class AccessLogEntry:
    """One logged HTTP hit on the tracker."""

    ip: str
    port: int
    method: str
    path: str
    headers: tuple[tuple[str, str], ...]
    received_at: datetime = field(metadata={"key": "ts"})
    token: str | None = None

    def header(self, name: str) -> str | None:
        lowered = name.lower()
        for key, value in self.headers:
            if key.lower() == lowered:
                return value
        return None


class AccessLogWriter:
    """Append-only JSONL sink, one line per entry, flushed after each.

    It takes no lock of its own: LinkServerCore serializes every append,
    and its close, under the one lock that also orders the timestamps.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, entry: AccessLogEntry) -> None:
        self._handle.write(compact_dumps(encode(entry)) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> AccessLogWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_access_log(path: str | Path, torn: list[int] | None = None) -> list[AccessLogEntry]:
    """The log's distinct entries in file order; a repeated entry counts once.

    A last line without its newline is a torn write: it is left out, and its
    line number is added to `torn` when a list is given. Any other line that
    does not parse raises ValueError naming its line number.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines.pop() and torn is not None:  # "" when the file ends with a newline
        torn.append(len(lines) + 1)
    entries = []
    for number, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            entries.append(decode(AccessLogEntry, json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} line {number}: {exc}") from exc
    return list(dict.fromkeys(entries))


class LinkServerCore:
    """Request handling shared by the HTTP front end and in-process replay.

    The clock read, the log entry and its append all happen under one lock,
    before the response is computed, so timestamps are non-decreasing within
    the file and a crash after logging never loses a hit. Sink failures are
    counted and surfaced at shutdown instead of breaking the response.
    """

    def __init__(self, registry: LinkRegistry, sink: AccessLogWriter, clock=utcnow):
        self.registry = registry
        self.sink = sink
        self.clock = clock
        self.sink_failures = 0
        self._lock = threading.Lock()

    def handle(
        self,
        method: str,
        path: str,
        headers: list[tuple[str, str]],
        ip: str,
        port: int,
        at: datetime | None = None,
    ) -> tuple[int, str | None]:
        match = _TOKEN_PATH.match(path)
        link = self.registry.resolve(match.group(1)) if match else None
        with self._lock:
            entry = AccessLogEntry(
                ip=ip,
                port=port,
                method=method,
                path=path,
                headers=tuple(headers),
                received_at=at if at is not None else self.clock(),
                token=link.token if link else None,
            )
            try:
                self.sink.append(entry)
            except Exception:
                self.sink_failures += 1
        if link is not None:
            return 302, self.registry.redirect_target
        return 404, None

    def close(self) -> int:
        """Close the sink once no append is in progress; returns the failed-write count."""
        with self._lock:
            self.sink.close()
            return self.sink_failures


def _body_length(value: str | None) -> int | None:
    """The declared body length: None when it is not a decimal count or exceeds the cap."""
    value = (value or "").strip()
    if not value:
        return 0
    # ASCII digits only (int() would take "+5" or "5_0"), and few enough that
    # int() never sees a huge string.
    if not (value.isascii() and value.isdigit()) or len(value) > len(str(MAX_BODY_BYTES)):
        return None
    length = int(value)
    return length if length <= MAX_BODY_BYTES else None


def _read_head(rfile) -> list[bytes]:
    """A request's header lines and the line that ends them, within the stdlib's limits."""
    lines = []
    while True:
        line = rfile.readline(_MAX_HEAD_LINE + 1)
        if len(line) > _MAX_HEAD_LINE:
            raise http.client.LineTooLong("header line")
        lines.append(line)
        if len(lines) > _MAX_HEAD_LINES:
            raise http.client.HTTPException(f"got more than {_MAX_HEAD_LINES} headers")
        if line in (b"\r\n", b"\n", b""):
            return lines


def _parse_head(lines: list[bytes], message_class: type) -> email.message.Message:
    """The headers as http.client.parse_headers builds them from `lines`.

    Plain `Name: value` lines are stored as they are; a head with any other
    line goes through the email parser, as in the stdlib.
    """
    headers = message_class()
    for line in lines[:-1]:
        match = _PLAIN_HEADER.match(line)
        if match is None:
            text = b"".join(lines).decode("iso-8859-1")
            return email.parser.Parser(_class=message_class).parsestr(text)
        headers.set_raw(match.group(1).decode("iso-8859-1"), match.group(2).decode("iso-8859-1"))
    return headers


class _TrackerHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "hlserve"
    # Buffer each answer so that it leaves in one send: headers and body sent
    # apart stall a keep-alive 404 on Nagle's algorithm and the delayed ACK.
    wbufsize = -1
    timeout = IDLE_TIMEOUT_S

    def parse_request(self) -> bool:
        parsed = self._parse_http1_request()
        if parsed is None:
            parsed = super().parse_request()
        if not parsed:
            return False
        core: LinkServerCore = self.server.core  # type: ignore[attr-defined]
        ip, port = self.client_address[0], self.client_address[1]
        # Log before anything else: a malformed request or an unsupported
        # method is a hit too. The stdlib answers the latter with 501.
        self._answer = core.handle(self.command, self.path, list(self.headers.items()), ip, port)
        # Send a buffered "100 Continue" now: the client holds its body until it arrives.
        self.wfile.flush()
        return True

    def _parse_http1_request(self) -> bool | None:
        """The stdlib's parse_request for a request line ending in HTTP/1.0 or HTTP/1.1.

        The stdlib parses every head with the email parser, which costs more
        than the rest of a request; `_parse_head` spares it for plain lines.
        Returns None, having read nothing past the request line, when the line
        has any other form: the stdlib then parses it, and answers it if bad.
        """
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return None
        self.requestline = requestline
        self.command, path, self.request_version = words
        # As in the stdlib (gh-87389): a client would take "//x" for a host.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.close_connection = self.request_version == "HTTP/1.0"
        try:
            self.headers = _parse_head(_read_head(self.rfile), self.MessageClass)
        except http.client.LineTooLong as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long", str(err))
            return False
        except http.client.HTTPException as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers", str(err))
            return False
        conntype = self.headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        expect = self.headers.get("Expect", "").lower()
        if expect == "100-continue" and self.request_version == "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _serve(self, send_body: bool) -> None:
        status, location = self._answer
        pending = _body_length(self.headers.get("Content-Length"))
        if pending is None:
            # The body cannot be framed, so the connection cannot be reused.
            self.send_response(400)
            self.send_header("Content-Length", "0")
            self.send_header("Connection", "close")
            self.end_headers()
            return
        if pending:  # drain the body so keep-alive framing stays intact
            self.rfile.read(pending)
        if status == 302:
            self.send_response(302)
            self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            body = b"not found\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if send_body:
                self.wfile.write(body)

    def do_GET(self) -> None:
        self._serve(send_body=True)

    def do_POST(self) -> None:
        self._serve(send_body=True)

    def do_HEAD(self) -> None:
        self._serve(send_body=False)

    def log_message(self, fmt, *args) -> None:  # requests are logged by the core
        pass


class HoneyLinkServer:
    """Threaded HTTP tracker; each connection is served by its own handler thread."""

    def __init__(self, core: LinkServerCore, bind: tuple[str, int] = ("127.0.0.1", 0)):
        self.core = core
        self._httpd = ThreadingHTTPServer(bind, _TrackerHandler)
        self._httpd.core = core  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), port

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def wait(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        """Stop accepting requests; LinkServerCore.close() then closes the log."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> HoneyLinkServer:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
