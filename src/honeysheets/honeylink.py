"""Short-token honey links: minting, the redirect-and-log tracker, UA parsing.

Every honey URL is hidden behind a 6-character token served from our own
short-link host, so any click lands on infrastructure we control. The
tracker logs the full request before answering, then either 302-redirects
known tokens to an innocuous page or 404s everything else. Unknown paths
are logged too: a scanner probing the host is itself a signal.
"""

from __future__ import annotations

import email.message
import io
import itertools
import json
import re
import selectors
import socket
import string
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from email.utils import formatdate
from pathlib import Path
from random import Random
from urllib.parse import urlsplit

from ._util import compact_dumps, decode, dump, encode, utcnow
from .errors import BadDestination, KeyspaceExhausted

TOKEN_ALPHABET = string.ascii_letters + string.digits
TOKEN_LENGTH = 6
TARGET_CLASSES = ("controlled", "decoy_bank")

# Largest request body the tracker drains; a longer declared body gets a 400.
MAX_BODY_BYTES = 64 * 1024
# Seconds a connection may go unanswered, idle or stalled mid-request, before the tracker closes it.
IDLE_TIMEOUT_S = 30.0
# Most connections open at once; further clients wait in the listen backlog.
MAX_CONNECTIONS = 256

_TOKEN_PATH = re.compile(r"^/t/([A-Za-z0-9]+)$")

# The stdlib's limits on a request head (http.client): longest line, most lines.
_MAX_HEAD_LINE = 65536
_MAX_HEAD_LINES = 100
# A header line stored without the email parser: a field name, a colon and a
# value with no CR or LF in it. The parser keeps such a line as the name and
# the value with its leading blanks dropped, which is what the groups hold.
_PLAIN_HEADER = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n\Z")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})\Z")
_RECV_BYTES = 65536
# Seconds the tracker stops accepting after accept() fails, e.g. with no descriptor left.
_ACCEPT_RETRY_S = 0.5

_SERVER = "hlserve Python/" + sys.version.split()[0]
_REASONS = {302: "Found", 400: "Bad Request", 404: "Not Found", 414: "Request-URI Too Long",
            501: "Not Implemented", 505: "HTTP Version Not Supported"}
# The statuses of requests the tracker cannot serve.
_MALFORMED = (400, 414, 431, 501, 505)
_NOT_FOUND = b"not found\n"
_NOT_FOUND_HEADERS = (("Content-Type", "text/plain"), ("Content-Length", str(len(_NOT_FOUND))))

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
        dump(self, path)

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


def _http_client():
    """http.client, imported only when a request head breaks the stdlib's limits."""
    import http.client

    return http.client


def _read_head(rfile) -> list[bytes]:
    """A request's header lines and the line that ends them, within the stdlib's limits."""
    lines = []
    while True:
        line = rfile.readline(_MAX_HEAD_LINE + 1)
        if len(line) > _MAX_HEAD_LINE:
            raise _http_client().LineTooLong("header line")
        lines.append(line)
        if len(lines) > _MAX_HEAD_LINES:
            raise _http_client().HTTPException(f"got more than {_MAX_HEAD_LINES} headers")
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
            import email.parser

            text = b"".join(lines).decode("iso-8859-1")
            return email.parser.Parser(_class=message_class).parsestr(text)
        headers.set_raw(match.group(1).decode("iso-8859-1"), match.group(2).decode("iso-8859-1"))
    return headers


def _check_request_line(words: list[str]) -> tuple[int | None, bool]:
    """The error status a request line earns, or None; and whether it keeps the connection.

    As in the stdlib, the version must read HTTP/<digits>.<digits>, 2.0 and
    above are not supported, and HTTP/1.1 and above keep the connection open.
    A line of other than three words is bad syntax, HTTP/0.9's two included.
    """
    if len(words) < 3:
        return 400, False
    version = _VERSION.match(words[-1])
    if version is None:
        return 400, False
    number = int(version.group(1)), int(version.group(2))
    if number >= (2, 0):
        return 505, False
    if len(words) > 3:
        return 400, False
    return None, number >= (1, 1)


def _head_end(buf: bytearray, start: int) -> int:
    """The offset just past the first blank line found from `start`, or -1.

    A head ends at a line that holds only CRLF or LF; searching from the
    LF that ends the line before it finds the first such line.
    """
    ends = [buf.find(blank, start) for blank in (b"\n\r\n", b"\n\n")]
    return min((at + size for at, size in zip(ends, (3, 2)) if at >= 0), default=-1)


def _answer(status: int, reason: str, headers, body: bytes) -> bytes:
    """An answer's bytes: status line, Server and Date as the stdlib sends them, `headers`, body."""
    lines = [f"HTTP/1.1 {status} {reason}", f"Server: {_SERVER}",
             f"Date: {formatdate(usegmt=True)}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1") + body


class _Connection:
    """One client's socket, its unread and unsent bytes, and how far its request has got."""

    __slots__ = ("sock", "ip", "port", "deadline", "inbuf", "outbuf", "scanned", "eof",
                 "request", "head_start", "body_left", "answer", "closing")

    def __init__(self, sock: socket.socket, address: tuple, deadline: float):
        self.sock = sock
        self.ip, self.port = address[0], address[1]
        self.deadline = deadline
        self.inbuf = bytearray()
        self.outbuf = b""  # the part of an answer the socket has not taken yet
        self.scanned = 0  # inbuf holds no end of line or head before this offset
        self.eof = False  # the client has shut its side
        self.request: tuple[str, str, bool] | None = None  # method, path, HTTP/1.1
        self.head_start = 0  # where the head begins in inbuf, after the request line
        self.body_left = 0  # body bytes to drain before `answer` goes out
        self.answer: tuple | None = None  # status, headers, body, keep-alive
        self.closing = False  # close once outbuf is sent


class HoneyLinkServer:
    """The tracker's HTTP/1.x front end: one thread serves every connection.

    The thread runs a selector loop over non-blocking sockets. It cuts each
    request line and head out of the bytes a connection has sent, logs the
    request through LinkServerCore.handle before anything is answered,
    drains any declared body and writes the answer in one send. A request
    line that does not parse is logged with the words that were read and
    answered 400, 414 or 505; a method other than GET, HEAD and POST is
    answered 501; a head over the stdlib's limits is answered 431.

    No client can hold the loop. An answer the socket does not take at
    once is finished when the socket is writable, and that connection's
    reads pause meanwhile. A connection that has not been answered for
    IDLE_TIMEOUT_S, since it opened or since its last answer, is closed.
    An error closes only its own connection, with one line on stderr. At
    most MAX_CONNECTIONS are open; further clients wait in the listen
    backlog until one closes.
    """

    def __init__(self, core: LinkServerCore, bind: tuple[str, int] = ("127.0.0.1", 0)):
        self.core = core
        # Operator counters: answers by status, connections closed for idling, most open at once.
        self.answers: Counter[int] = Counter()
        self.idle_closes = 0
        self.peak_connections = 0
        self._listener = socket.create_server(bind)
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()[:2]
        self._wake_in, self._wake_out = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_in, selectors.EVENT_READ)
        # Open connections, the least recently answered (the next to idle out) first.
        self._connections: dict[_Connection, None] = {}
        self._listening = False
        self._accept_after = 0.0
        self._stopping = False
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._address
        return str(host), port

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="tracker", daemon=True)
        self._thread.start()

    def wait(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        """Close every connection and stop listening; LinkServerCore.close() then closes the log."""
        self._stopping = True
        self._wake_out.send(b"\0")
        self.wait()
        self._selector.close()
        for sock in (self._listener, self._wake_in, self._wake_out):
            sock.close()

    def __enter__(self) -> HoneyLinkServer:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def counters(self) -> dict:
        """The operator's counters, for stderr; the tracker never answers with them."""
        answers = dict(self.answers)
        return {
            "answers": {str(status): answers[status] for status in sorted(answers)},
            "malformed": sum(answers.get(status, 0) for status in _MALFORMED),
            "idle_closes": self.idle_closes,
            "open_connections": len(self._connections),
            "peak_connections": self.peak_connections,
            "sink_failures": self.core.sink_failures,
        }

    # --- the loop -----------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stopping:
                now = time.monotonic()
                self._close_idle(now)
                for key, events in self._selector.select(self._next_wait(now)):
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj is self._wake_in:
                        self._wake_in.recv(64)
                    else:
                        self._serve(key.data, events)
        finally:
            for conn in list(self._connections):
                self._close(conn)

    def _close_idle(self, now: float) -> None:
        for conn in list(itertools.takewhile(lambda c: c.deadline <= now, self._connections)):
            self.idle_closes += 1
            self._close(conn)

    def _next_wait(self, now: float) -> float | None:
        """Select on the listener only while a connection may be taken; the seconds to wait."""
        listen = len(self._connections) < MAX_CONNECTIONS and now >= self._accept_after
        if listen != self._listening:
            if listen:
                self._selector.register(self._listener, selectors.EVENT_READ)
            else:
                self._selector.unregister(self._listener)
            self._listening = listen
        wake_at = [conn.deadline for conn in itertools.islice(self._connections, 1)]
        if now < self._accept_after:
            wake_at.append(self._accept_after)
        return max(min(wake_at) - now, 0.0) if wake_at else None

    def _accept(self) -> None:
        now = time.monotonic()
        while len(self._connections) < MAX_CONNECTIONS:
            try:
                sock, address = self._listener.accept()
            except (BlockingIOError, ConnectionAbortedError):
                return
            except OSError as exc:  # e.g. out of descriptors: the listener stays readable
                print(f"tracker: accept failed, retrying in {_ACCEPT_RETRY_S} s: {exc}",
                      file=sys.stderr)
                self._accept_after = now + _ACCEPT_RETRY_S
                return
            sock.setblocking(False)
            conn = _Connection(sock, address, now + IDLE_TIMEOUT_S)
            self._connections[conn] = None
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self.peak_connections = max(self.peak_connections, len(self._connections))

    def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            del self._connections[conn]
            self._selector.unregister(conn.sock)
            conn.sock.close()

    def _serve(self, conn: _Connection, events: int) -> None:
        """Act on one readiness event; an error closes this connection only."""
        try:
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            else:
                self._receive(conn)
        except ConnectionError:  # the client reset or went away
            self._close(conn)
        except Exception as exc:
            frame = exc.__traceback__
            while frame.tb_next is not None:
                frame = frame.tb_next
            where = f"{frame.tb_frame.f_code.co_filename}:{frame.tb_lineno}"
            print(f"tracker: closed {conn.ip}:{conn.port} after {exc!r} at {where}",
                  file=sys.stderr)
            self._close(conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        if data:
            conn.inbuf += data
        else:
            conn.eof = True
        self._advance(conn)

    def _flush(self, conn: _Connection) -> None:
        conn.outbuf = conn.outbuf[conn.sock.send(conn.outbuf):]
        if not conn.outbuf:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            self._sent(conn)
            self._advance(conn)

    def _send(self, conn: _Connection, data: bytes) -> None:
        """Write data in one send; what the socket does not take waits for EVENT_WRITE."""
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            conn.outbuf = data[sent:]
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
        else:
            self._sent(conn)

    def _sent(self, conn: _Connection) -> None:
        """Restart conn's idle deadline, which moves it to the back of the idle order."""
        conn.deadline = time.monotonic() + IDLE_TIMEOUT_S
        del self._connections[conn]
        self._connections[conn] = None

    # --- one connection's requests ------------------------------------------

    def _advance(self, conn: _Connection) -> None:
        """Serve the requests conn's bytes complete, in order, one answer on the wire at a time."""
        while not conn.outbuf and not conn.closing:
            if conn.answer is not None:
                step = self._drain_body
            elif conn.request is None:
                step = self._take_request_line
            else:
                step = self._take_head
            if not step(conn):
                break
        if conn.closing and not conn.outbuf:
            self._close(conn)

    def _take_request_line(self, conn: _Connection) -> bool:
        buf = conn.inbuf
        end = buf.find(b"\n", conn.scanned) + 1
        if not end:
            if len(buf) <= _MAX_HEAD_LINE and not conn.eof:
                conn.scanned = len(buf)
                return False
            if not buf:  # the client closed between requests
                conn.closing = True
                return False
            end = len(buf)  # the line ends at EOF, or is already over the limit
        line = buf[:end]
        words = line[:_MAX_HEAD_LINE].decode("iso-8859-1").split()
        if len(line) > _MAX_HEAD_LINE:
            status, http11 = 414, False
        elif not words:  # an empty line before a request line is ignored
            del buf[:end]
            conn.scanned = 0
            return True
        else:
            status, http11 = _check_request_line(words)
        method = words[0] if words else ""
        path = words[1] if len(words) > 1 else ""
        # As in the stdlib (gh-87389): a client would take "//x" for a host.
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        if status is not None:
            # Logged with whatever was read: a malformed request is a hit too.
            self.core.handle(method, path, [], conn.ip, conn.port)
            return self._refuse(conn, status)
        conn.request = (method, path, http11)
        conn.head_start = end
        conn.scanned = end - 1  # the request line's LF, which a blank first line follows
        return True

    def _take_head(self, conn: _Connection) -> bool:
        buf = conn.inbuf
        end = _head_end(buf, conn.scanned)
        if end < 0:
            # A head longer than this breaks a limit of _read_head whatever follows.
            if not conn.eof and len(buf) - conn.head_start <= _MAX_HEAD_LINE * _MAX_HEAD_LINES:
                conn.scanned = max(len(buf) - 2, conn.head_start - 1)
                return False
            end = len(buf)
        head = io.BytesIO(buf[conn.head_start:end])
        del buf[:end]
        conn.scanned = 0
        method, path, http11 = conn.request
        conn.request = None
        try:
            lines = _read_head(head)
        # An except clause is evaluated only once something was raised.
        except _http_client().LineTooLong:
            return self._refuse(conn, 431, "Line too long")
        except _http_client().HTTPException:
            return self._refuse(conn, 431, "Too many headers")
        headers = _parse_head(lines, email.message.Message)
        keep_alive = {"close": False, "keep-alive": True}.get(
            headers.get("Connection", "").lower(), http11)
        # Log before anything else: a malformed request or an unsupported method is a hit too.
        status, location = self.core.handle(method, path, headers.items(), conn.ip, conn.port)
        if method not in ("GET", "HEAD", "POST"):
            return self._refuse(conn, 501)
        length = _body_length(headers.get("Content-Length"))
        if length is None:  # the body cannot be framed, so the connection cannot be reused
            return self._refuse(conn, 400)
        if status == 302:
            conn.answer = (302, (("Location", location), ("Content-Length", "0")), b"", keep_alive)
        else:
            body = b"" if method == "HEAD" else _NOT_FOUND
            conn.answer = (404, _NOT_FOUND_HEADERS, body, keep_alive)
        conn.body_left = length
        if length and http11 and headers.get("Expect", "").lower() == "100-continue":
            # The client holds its body until this arrives.
            self._send(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _drain_body(self, conn: _Connection) -> bool:
        """Skip the body so that keep-alive framing holds, then send the answer it held back."""
        taken = min(conn.body_left, len(conn.inbuf))
        del conn.inbuf[:taken]
        conn.body_left -= taken
        if conn.body_left and not conn.eof:
            return False
        status, headers, body, keep_alive = conn.answer
        conn.answer = None
        return self._reply(conn, status, headers, body, keep_alive)

    def _refuse(self, conn: _Connection, status: int, reason: str | None = None) -> bool:
        headers = (("Content-Length", "0"), ("Connection", "close"))
        return self._reply(conn, status, headers, b"", False, reason)

    def _reply(self, conn: _Connection, status: int, headers, body: bytes, keep_alive: bool,
               reason: str | None = None) -> bool:
        self.answers[status] += 1
        conn.closing = not keep_alive
        self._send(conn, _answer(status, reason or _REASONS[status], headers, body))
        return True
