"""Loopback client for `honeysheets serve`: the click and scan phases.

Both phases are closed loops from this one process: a client sends its
next request only after the reply to the last one. Requests are written
on raw sockets so a malformed header goes out exactly as written and a
missing reply is seen as such, not retried.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from workloads import ScanRequest, TrackerMix

TIMEOUT_S = 5.0
UA = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/70.0 Safari/537.36"


class NoReply(Exception):
    """The server closed or reset the connection without answering."""


@dataclass
class Sent:
    """One request as the client saw it, for matching against the log."""

    method: str
    path: str
    port: int
    status: int | None
    location: str | None
    seconds: float
    known: bool
    probe: bool = False


@dataclass
class PhaseResult:
    sent: list[Sent] = field(default_factory=list)
    wall_s: float = 0.0
    connections: int = 0

    @property
    def answered(self) -> list[Sent]:
        return [s for s in self.sent if s.status is not None]


class _Conn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.local_port = self.sock.getsockname()[1]
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        try:
            chunk = self.sock.recv(65536)
        except ConnectionResetError as exc:
            raise NoReply(str(exc)) from exc
        if not chunk:
            raise NoReply("connection closed")
        self._buf += chunk

    def request(self, method: str, path: str, body: bytes = b"", length: str | None = None,
                close: bool = False) -> tuple[int, dict[str, str], bytes]:
        head = [f"{method} {path} HTTP/1.1", "Host: snip.example.net", f"User-Agent: {UA}"]
        if length is None and (body or method == "POST"):
            length = str(len(body))
        if length is not None:
            head.append(f"Content-Length: {length}")
        if close:
            head.append("Connection: close")
        try:
            self.sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise NoReply(str(exc)) from exc
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        raw, self._buf = self._buf.split(b"\r\n\r\n", 1)
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        size = 0 if method == "HEAD" else int(headers.get("content-length", "0"))
        while len(self._buf) < size:
            self._fill()
        payload, self._buf = self._buf[:size], self._buf[size:]
        return status, headers, payload


def get_once(port: int, token: str) -> Sent:
    """One GET on a fresh connection, as a browser following a leaked link."""
    t0 = time.perf_counter()
    conn = _Conn(port)
    try:
        status, headers, _ = conn.request("GET", f"/t/{token}", close=True)
    finally:
        conn.close()
    return Sent("GET", f"/t/{token}", conn.local_port, status, headers.get("location"),
                time.perf_counter() - t0, True)


def click_phase(port: int, tokens: list[str], mix: TrackerMix) -> PhaseResult:
    result = PhaseResult()
    t0 = time.perf_counter()
    for i in range(mix.clicks):
        result.sent.append(get_once(port, tokens[i % len(tokens)]))
        result.connections += 1
    result.wall_s = time.perf_counter() - t0
    return result


def _scan_worker(port: int, requests: list[ScanRequest], out: list[Sent], counts: list[int]) -> None:
    conn = _Conn(port)
    counts.append(1)
    try:
        for req in requests:
            t0 = time.perf_counter()
            try:
                if req.bad_length:
                    status, headers, _ = conn.request(req.method, req.path, length="zz")
                else:
                    status, headers, _ = conn.request(req.method, req.path, body=req.body)
            except NoReply:
                out.append(Sent(req.method, req.path, conn.local_port, None, None,
                                time.perf_counter() - t0, req.known, req.bad_length))
                conn.close()
                conn = _Conn(port)
                counts.append(1)
                continue
            out.append(Sent(req.method, req.path, conn.local_port, status,
                            headers.get("location"), time.perf_counter() - t0, req.known,
                            req.bad_length))
    finally:
        conn.close()


def scan_phase(port: int, sequence: list[ScanRequest], mix: TrackerMix) -> PhaseResult:
    """Split the sequence round-robin over keep-alive connections, one thread each."""
    n = mix.scan_connections
    outs: list[list[Sent]] = [[] for _ in range(n)]
    counts: list[int] = []
    threads = [
        threading.Thread(target=_scan_worker, args=(port, sequence[i::n], outs[i], counts))
        for i in range(n)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    wall = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError("scan client did not finish")
    sent = [s for out in outs for s in out]
    if len(sent) != len(sequence):
        raise RuntimeError(f"scan client sent {len(sent)} of {len(sequence)} requests")
    return PhaseResult(sent=sent, wall_s=wall, connections=len(counts))
