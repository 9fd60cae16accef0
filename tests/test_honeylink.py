from __future__ import annotations

import errno
import http.client
import io
import itertools
import json
import socket
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import timedelta
from random import Random

import pytest

from honeysheets import honeylink
from honeysheets._util import compact_dumps, decode, encode
from honeysheets.errors import BadDestination, KeyspaceExhausted
from honeysheets.honeylink import (
    MAX_BODY_BYTES,
    AccessLogEntry,
    AccessLogWriter,
    HoneyLinkServer,
    LinkRegistry,
    LinkServerCore,
    load_access_log,
    mint_token,
    parse_user_agent,
)

from conftest import exchange, utc

# Labelled corpus used to pin down the substring precedence rules.
UA_CORPUS = [
    ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/70.0.3538.77 Safari/537.36", "Chrome", "Windows"),
    ("Mozilla/5.0 (Windows NT 6.1; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36", "Chrome", "Windows"),
    ("Mozilla/5.0 (Windows NT 6.3; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/55.0.2883.87 Safari/537.36", "Chrome", "Windows"),
    ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/91.0.4472.124 Safari/537.36 Edg/91.0.864.67", "Chrome", "Windows"),
    ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/62.0.3202.94 Safari/537.36 OPR/49.0.2725.47", "Chrome", "Windows"),
    ("Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/70.0.3538.77 Safari/537.36", "Chrome", "Linux"),
    ("Mozilla/5.0 (X11; Ubuntu; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chromium/65.0.3325.181 Chrome/65.0.3325.181 Safari/537.36", "Chrome", "Linux"),
    ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_6) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/68.0.3440.106 Safari/537.36", "Chrome", "Macintosh"),
    ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/90.0.4430.85 Safari/537.36", "Chrome", "Macintosh"),
    ("Mozilla/5.0 (Linux; Android 10; Pixel 3) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/78.0.3904.108 Mobile Safari/537.36", "Chrome", "Android"),
    ("Mozilla/5.0 (Linux; Android 8.0.0; SM-G950F) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/65.0.3325.109 Mobile Safari/537.36", "Chrome", "Android"),
    ("Mozilla/5.0 (Linux; Android 7.0; Nexus 9) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/59.0.3071.92 Safari/537.36", "Chrome", "Android"),
    ("Mozilla/5.0 (Linux; Android 5.1; HTC One) AppleWebKit/537.36 (KHTML, like Gecko) Version/4.0 Chrome/43.0.2357.93 Mobile Safari/537.36", "Chrome", "Android"),
    ("Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:84.0) Gecko/20100101 Firefox/84.0", "Firefox", "Windows"),
    ("Mozilla/5.0 (Windows NT 6.1; WOW64; rv:54.0) Gecko/20100101 Firefox/54.0", "Firefox", "Windows"),
    ("Mozilla/5.0 (X11; Linux x86_64; rv:84.0) Gecko/20100101 Firefox/84.0", "Firefox", "Linux"),
    ("Mozilla/5.0 (X11; Fedora; Linux x86_64; rv:60.0) Gecko/20100101 Firefox/60.0", "Firefox", "Linux"),
    ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:62.0) Gecko/20100101 Firefox/62.0", "Firefox", "Macintosh"),
    ("Mozilla/5.0 (Android 9; Mobile; rv:68.0) Gecko/68.0 Firefox/68.0", "Firefox", "Android"),
    ("Mozilla/5.0 (Android 7.1.2; Tablet; rv:57.0) Gecko/57.0 Firefox/57.0", "Firefox", "Android"),
    ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/14.0 Safari/605.1.15", "Safari", "Macintosh"),
    ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_11_6) AppleWebKit/601.7.7 (KHTML, like Gecko) Version/9.1.2 Safari/601.7.7", "Safari", "Macintosh"),
    ("Mozilla/5.0 (iPhone; CPU iPhone OS 12_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1 Mobile/15E148 Safari/604.1", "Safari", "Other"),
    ("Mozilla/5.0 (iPad; CPU OS 11_0 like Mac OS X) AppleWebKit/604.1.34 (KHTML, like Gecko) Version/11.0 Mobile/15A5341f Safari/604.1", "Safari", "Other"),
    ("Mozilla/5.0 (Linux; Android 9; SM-G960F) AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/9.2 Chrome/67.0.3396.87 Mobile Safari/537.36", "Samsung", "Android"),
    ("Mozilla/5.0 (Linux; Android 7.0; SM-T810) AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/5.4 Chrome/51.0.2704.106 Safari/537.36", "Samsung", "Android"),
    ("Mozilla/5.0 (Linux; Android 6.0.1; SM-J700M) AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/4.0 Chrome/44.0.2403.133 Mobile Safari/537.36", "Samsung", "Android"),
    ("Mozilla/5.0 (Linux; Android 11; SM-A515F) AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/14.0 Chrome/87.0.4280.141 Mobile Safari/537.36", "Samsung", "Android"),
    ("curl/7.64.1", "Other", "Other"),
    ("curl/7.29.0", "Other", "Other"),
    ("Wget/1.19.4 (linux-gnu)", "Other", "Other"),
    ("python-requests/2.25.1", "Other", "Other"),
    ("Python-urllib/3.8", "Other", "Other"),
    ("Go-http-client/1.1", "Other", "Other"),
    ("Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)", "Other", "Other"),
    ("Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)", "Other", "Other"),
    ("Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)", "Other", "Other"),
    ("", "Other", "Other"),
    ("Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)", "Other", "Windows"),
    ("Mozilla/5.0 (Windows NT 6.3; Trident/7.0; rv:11.0) like Gecko", "Other", "Windows"),
    ("Mozilla/5.0 (compatible; MSIE 9.0; Windows NT 6.1; WOW64; Trident/5.0)", "Other", "Windows"),
    ("Dalvik/2.1.0 (Linux; U; Android 9; SM-G960F Build/PPR1.180610.011)", "Other", "Android"),
    ("Mozilla/5.0 (Linux; U; Android 4.4.2; en-us; GT-I9505 Build/KOT49H)", "Other", "Android"),
    ("Mozilla/5.0 (X11; Linux i686; rv:45.0) Gecko/20100101 konqueror/5.0", "Other", "Linux"),
    ("Mozilla/5.0 (X11; CrOS x86_64 13505.73.0) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/87.0.4280.109 Safari/537.36", "Chrome", "Other"),
    ("Mozilla/5.0 (PlayStation 4 3.11) AppleWebKit/537.73 (KHTML, like Gecko)", "Other", "Other"),
    ("Mozilla/5.0 (SMART-TV; Linux; Tizen 2.4.0) AppleWebKit/538.1 (KHTML, like Gecko) Version/2.4.0 TV Safari/538.1", "Safari", "Linux"),
    ("Opera/9.80 (Windows NT 6.0) Presto/2.12.388 Version/12.14", "Other", "Windows"),
    ("Mozilla/5.0 (Macintosh; PPC Mac OS X 10_5_8) AppleWebKit/534.50.2 (KHTML, like Gecko) Version/5.0.6 Safari/533.22.3", "Safari", "Macintosh"),
    ("okhttp/3.12.1", "Other", "Other"),
]


def test_ua_corpus_is_fifty_strings() -> None:
    assert len(UA_CORPUS) == 50


@pytest.mark.parametrize("header,browser,os_name", UA_CORPUS)
def test_parse_user_agent_against_corpus(header: str, browser: str, os_name: str) -> None:
    assert parse_user_agent(header) == (browser, os_name)


def test_samsung_takes_precedence_over_chrome_and_safari() -> None:
    ua = "SamsungBrowser/9.2 Chrome/67 Safari/537"
    assert parse_user_agent(ua)[0] == "Samsung"


def test_mint_stores_and_resolves() -> None:
    registry = LinkRegistry()
    rng = Random(1)
    minted = [
        mint_token(registry, "controlled" if i < 3 else "decoy_bank",
                   f"https://trap.example.net/{i}" if i < 3 else f"https://bank.example/{i}",
                   "sheet-1", rng)
        for i in range(9)
    ]
    assert len(registry.links) == 9
    for link in minted:
        assert registry.resolve(link.token) is link
        assert link.short_url == f"{registry.short_base}/t/{link.token}"
        assert len(link.token) == 6
        assert all(ch.isalnum() for ch in link.token)


def test_minted_tokens_are_distinct_across_rng_states() -> None:
    registry = LinkRegistry()
    a = mint_token(registry, "controlled", "https://t.example/1", "s", Random(11))
    b = mint_token(registry, "controlled", "https://t.example/2", "s", Random(12))
    assert a.token != b.token


def test_collision_redraw_with_tiny_keyspace() -> None:
    registry = LinkRegistry(token_length=1, alphabet="ab")
    rng = Random(0)
    first = mint_token(registry, "controlled", "https://t.example/1", "s", rng)
    second = mint_token(registry, "controlled", "https://t.example/2", "s", rng)
    assert {first.token, second.token} == {"a", "b"}


def test_keyspace_exhaustion_raises() -> None:
    registry = LinkRegistry(token_length=1, alphabet="ab")
    rng = Random(0)
    mint_token(registry, "controlled", "https://t.example/1", "s", rng)
    mint_token(registry, "controlled", "https://t.example/2", "s", rng)
    with pytest.raises(KeyspaceExhausted):
        mint_token(registry, "controlled", "https://t.example/3", "s", rng)


def test_bad_destination_rejected() -> None:
    registry = LinkRegistry()
    with pytest.raises(BadDestination):
        mint_token(registry, "controlled", "not a url", "s", Random(1))
    with pytest.raises(BadDestination):
        mint_token(registry, "controlled", "ftp://host/file", "s", Random(1))


def test_controlled_domain_invariant_enforced() -> None:
    registry = LinkRegistry(controlled_domain="trap.example.net")
    with pytest.raises(BadDestination):
        mint_token(registry, "controlled", "https://elsewhere.example/x", "s", Random(1))
    link = mint_token(registry, "controlled", "https://trap.example.net/x", "s", Random(1))
    assert link.target_class == "controlled"
    # decoys may point anywhere
    mint_token(registry, "decoy_bank", "https://elsewhere.example/x", "s", Random(2))


def test_registry_save_load_roundtrip(tmp_path) -> None:
    registry = LinkRegistry(controlled_domain="trap.example.net")
    mint_token(registry, "controlled", "https://trap.example.net/x", "s", Random(5))
    registry.save(tmp_path / "reg.json")
    loaded = LinkRegistry.load(tmp_path / "reg.json")
    assert encode(loaded) == encode(registry)


def test_log_entry_line_roundtrip_is_byte_identical() -> None:
    entry = AccessLogEntry(
        ip="203.0.113.5",
        port=51000,
        method="GET",
        path="/t/abc123",
        headers=(("Host", "snip.example.net"), ("User-Agent", "curl/7.64.1")),
        received_at=utc(2016, 2, 1, 12, 30, 15, 123456),
        token="abc123",
    )
    line = compact_dumps(encode(entry))
    assert compact_dumps(encode(decode(AccessLogEntry, json.loads(line)))) == line


def _make_core(tmp_path):
    registry = LinkRegistry()
    link = mint_token(registry, "controlled", "https://trap.example.net/a", "s1", Random(3))
    sink = AccessLogWriter(tmp_path / "access.log")
    return registry, link, sink, LinkServerCore(registry, sink)


def test_core_logs_known_token_and_redirects(tmp_path) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    status, location = core.handle(
        "GET", f"/t/{link.token}",
        [("Host", "snip.example.net"), ("User-Agent", "curl/7.64.1")],
        "203.0.113.5", 51000,
    )
    sink.close()
    assert (status, location) == (302, registry.redirect_target)
    entries = load_access_log(tmp_path / "access.log")
    assert len(entries) == 1
    assert entries[0].ip == "203.0.113.5"
    assert entries[0].port == 51000
    assert entries[0].path == f"/t/{link.token}"
    assert entries[0].token == link.token
    assert entries[0].header("User-Agent") == "curl/7.64.1"


def test_core_logs_unknown_token_with_404(tmp_path) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    status, location = core.handle("GET", "/t/zzzzzz", [], "198.51.100.9", 1234)
    other = core.handle("GET", "/robots.txt", [], "198.51.100.9", 1235)
    sink.close()
    assert (status, location) == (404, None)
    assert other == (404, None)
    entries = load_access_log(tmp_path / "access.log")
    assert [e.token for e in entries] == [None, None]
    assert [e.path for e in entries] == ["/t/zzzzzz", "/robots.txt"]


def test_log_reader_splits_only_on_newlines(tmp_path) -> None:
    # http.server decodes header bytes as Latin-1, so a raw 0x85 byte arrives
    # as U+0085, which str.splitlines() treats as a line break.
    registry, link, sink, core = _make_core(tmp_path)
    core.handle("GET", "/robots.txt", [("User-Agent", "a\x85b\u2028c")], "198.51.100.9", 1234)
    sink.close()
    entries = load_access_log(tmp_path / "access.log")
    assert [e.header("User-Agent") for e in entries] == ["a\x85b\u2028c"]


class _BrokenSink:
    def append(self, entry) -> None:
        raise OSError("disk full")


def test_sink_failure_still_answers_and_counts(tmp_path) -> None:
    registry = LinkRegistry()
    link = mint_token(registry, "controlled", "https://trap.example.net/a", "s1", Random(3))
    core = LinkServerCore(registry, _BrokenSink())
    status, location = core.handle("GET", f"/t/{link.token}", [], "203.0.113.5", 51000)
    assert status == 302 and location == registry.redirect_target
    assert core.sink_failures == 1


def test_http_server_serves_and_logs_concurrently(tmp_path) -> None:
    registry = LinkRegistry()
    rng = Random(4)
    tokens = [
        mint_token(registry, "controlled", f"https://trap.example.net/{i}", "s1", rng).token
        for i in range(3)
    ]
    sink = AccessLogWriter(tmp_path / "access.log")
    core = LinkServerCore(registry, sink)
    with HoneyLinkServer(core) as server:
        host, port = server.address

        def hit(i: int) -> tuple[int, str | None]:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            token = tokens[i % 3] if i % 2 == 0 else "nosuch"
            conn.request("GET", f"/t/{token}", headers={"User-Agent": f"probe/{i}"})
            response = conn.getresponse()
            response.read()
            location = response.getheader("Location")
            conn.close()
            return response.status, location

        with ThreadPoolExecutor(16) as pool:
            results = list(pool.map(hit, range(200)))
    sink.close()
    assert sum(1 for status, loc in results if status == 302 and loc == registry.redirect_target) == 100
    assert sum(1 for status, _ in results if status == 404) == 100
    entries = load_access_log(tmp_path / "access.log")
    assert len(entries) == 200
    assert all(a.received_at <= b.received_at for a, b in zip(entries, entries[1:]))


def test_concurrent_requests_log_in_clock_order(tmp_path) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    ticks = itertools.count()

    def clock():
        tick = next(ticks)
        time.sleep(0)  # invite a thread switch between the clock read and the append
        return utc(2016, 2, 1) + timedelta(microseconds=tick)

    def hammer() -> None:
        for _ in range(100):
            core.handle("GET", f"/t/{link.token}", [], "203.0.113.5", 51000)

    core.clock = clock
    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    sink.close()
    assert not any(thread.is_alive() for thread in threads)
    stamps = [entry.received_at for entry in load_access_log(tmp_path / "access.log")]
    assert len(stamps) == 800
    assert stamps == sorted(stamps)


@pytest.mark.parametrize("length", ["zz", "-1", str(MAX_BODY_BYTES + 1)])
def test_malformed_content_length_is_logged_then_refused(tmp_path, length) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    request = f"POST /t/{link.token} HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    with HoneyLinkServer(core) as server:
        reply = exchange(server.address, request)
    sink.close()
    assert reply.startswith(b"HTTP/1.1 400 ")
    entries = load_access_log(tmp_path / "access.log")
    assert [(e.method, e.token, e.header("Content-Length")) for e in entries] == [
        ("POST", link.token, length)
    ]


def test_keep_alive_404s_are_not_stalled(tmp_path) -> None:
    # Headers and body sent as two writes stalled each keep-alive 404 for
    # about 40 ms: Nagle's algorithm held the body until the delayed ACK.
    registry, link, sink, core = _make_core(tmp_path)
    with HoneyLinkServer(core) as server:
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        elapsed = []
        for i in range(20):
            started = time.perf_counter()
            conn.request("GET", f"/probe/{i}")
            response = conn.getresponse()
            body = response.read()
            elapsed.append(time.perf_counter() - started)
            assert (response.status, body) == (404, b"not found\n")
        conn.close()
    sink.close()
    assert statistics.median(elapsed) < 0.010


@pytest.mark.parametrize("request_head,status_line,headers,body", [
    ("GET {token} HTTP/1.1", b"HTTP/1.1 302 Found",
     [("Location", "https://www.google.com"), ("Content-Length", "0")], b""),
    ("GET /robots.txt HTTP/1.1", b"HTTP/1.1 404 Not Found",
     [("Content-Type", "text/plain"), ("Content-Length", "10")], b"not found\n"),
    ("HEAD /robots.txt HTTP/1.1", b"HTTP/1.1 404 Not Found",
     [("Content-Type", "text/plain"), ("Content-Length", "10")], b""),
    ("POST {token} HTTP/1.1\r\nContent-Length: zz", b"HTTP/1.1 400 Bad Request",
     [("Content-Length", "0"), ("Connection", "close")], b""),
], ids=["302", "GET-404", "HEAD-404", "400"])
def test_wire_form_of_each_answer(tmp_path, request_head, status_line, headers, body) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    request = request_head.format(token=f"/t/{link.token}") + "\r\nConnection: close\r\n\r\n"
    with HoneyLinkServer(core) as server:
        reply = exchange(server.address, request)
    sink.close()
    head, _, rest = reply.partition(b"\r\n\r\n")
    first, *lines = head.split(b"\r\n")
    fields = [tuple(line.decode("latin-1").split(": ", 1)) for line in lines]
    assert first == status_line
    assert [name for name, _ in fields[:2]] == ["Server", "Date"]
    assert fields[0][1].startswith("hlserve ")
    assert fields[2:] == headers
    assert rest == body


@pytest.mark.parametrize("raw", [
    "OPTIONS {token} HTTP/1.1\r\n\r\n",
    "PUT /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
], ids=["OPTIONS", "PUT"])
def test_unsupported_methods_are_logged_then_refused(tmp_path, raw) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    request = raw.format(token=f"/t/{link.token}")
    with HoneyLinkServer(core) as server:
        reply = exchange(server.address, request)
    sink.close()
    assert reply.startswith(b"HTTP/1.1 501 ")
    method, path = request.split()[:2]
    entries = load_access_log(tmp_path / "access.log")
    assert [(e.method, e.path) for e in entries] == [(method, path)]


def test_expect_100_continue_is_sent_before_the_body_arrives(tmp_path) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    head = f"POST /t/{link.token} HTTP/1.1\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\n"
    with HoneyLinkServer(core) as server:
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(head.encode("ascii"))
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, interim
                interim += chunk
            sock.sendall(b"body")
            reply = sock.recv(4096)
    sink.close()
    assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert reply.startswith(b"HTTP/1.1 302 ")


@pytest.mark.parametrize("head", [
    b"Host: a\r\nUser-Agent: b c\r\n\r\n",
    b"Host:a\r\nX-Empty:\r\nX-Blank: \t \r\n\r\n",
    b"X-Pad: \t v  \r\nx-pad: second\r\n\n",
    b"Host: a\n\n",
    b"X-Latin: caf\xe9\r\n\r\n",
    b"\r\n",
    b"X-Fold: one\r\n two\r\n\r\n",
    b"No colon\r\nHost: a\r\n\r\n",
    b": no name\r\nHost: a\r\n\r\n",
    b"X-Cr: a\rb\r\n\r\n",
    b"Host: a\r\nX-Cut: end",
], ids=["plain", "empty-values", "blanks-and-repeats", "bare-lf", "latin-1", "no-headers",
        "folded", "no-colon", "no-name", "bare-cr", "cut-short"])
def test_request_heads_parse_as_in_the_stdlib(head) -> None:
    # Plain lines skip the email parser; every other head goes through it.
    expected = http.client.parse_headers(io.BytesIO(head))
    lines = honeylink._read_head(io.BytesIO(head))
    parsed = honeylink._parse_head(lines, http.client.HTTPMessage)
    assert type(parsed) is http.client.HTTPMessage
    assert parsed.items() == expected.items()


def test_random_request_heads_parse_as_in_the_stdlib() -> None:
    # Mostly plain lines, so that both paths run often.
    names = [b"Host", b"x-a", b"X-A", b"Host", b"x-a", b"From ", b"a b", b""]
    colons = [b":", b": ", b": ", b":\t ", b": ", b" :"]
    values = [b"", b"v", b"v w ", b"\xe9", b"a:b", b"v", b"a\rb", b"v\r\n more"]
    endings = [b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r"]
    rng = Random(11)
    for _ in range(500):
        head = b"".join(
            rng.choice(names) + rng.choice(colons) + rng.choice(values) + rng.choice(endings)
            for _ in range(rng.randrange(4))
        ) + b"\r\n"
        expected = http.client.parse_headers(io.BytesIO(head))
        parsed = honeylink._parse_head(honeylink._read_head(io.BytesIO(head)), http.client.HTTPMessage)
        assert parsed.items() == expected.items(), head


def test_request_heads_keep_the_stdlib_limits() -> None:
    with pytest.raises(http.client.LineTooLong):
        honeylink._read_head(io.BytesIO(b"X-Long: " + b"y" * 65536 + b"\r\n\r\n"))
    with pytest.raises(http.client.HTTPException, match="more than 100 headers"):
        honeylink._read_head(io.BytesIO(b"X-Many: y\r\n" * 101 + b"\r\n"))
    assert len(honeylink._read_head(io.BytesIO(b"X-Many: y\r\n" * 99 + b"\r\n"))) == 100


@pytest.mark.parametrize("raw,status_line,logged_path", [
    ("GET //t/{token} HTTP/1.1\r\nConnection: close\r\n\r\n", b"HTTP/1.1 302 Found", "/t/{token}"),
    ("GET /robots.txt HTTP/1.0\r\n\r\n", b"HTTP/1.1 404 Not Found", "/robots.txt"),
    ("GET /robots.txt  HTTP/1.1 \r\nConnection: close\r\n\r\n", b"HTTP/1.1 404 Not Found",
     "/robots.txt"),
    ("GET /x HTTP/1.1\r\n" + "X-Many: y\r\n" * 101 + "\r\n",
     b"HTTP/1.1 431 Too many headers", None),
    # Request lines the stdlib answered without a log line: logged with the words read.
    ("GARBAGE\r\n", b"HTTP/1.1 400 Bad Request", ""),
    ("GET /x HTTP/1.x\r\n\r\n", b"HTTP/1.1 400 Bad Request", "/x"),
    ("GET /x\r\n\r\n", b"HTTP/1.1 400 Bad Request", "/x"),
    ("GET /x HTTP/9.9\r\n\r\n", b"HTTP/1.1 505 HTTP Version Not Supported", "/x"),
    # 65,537 bytes with the line end; the first 65,536 are logged.
    ("GET /" + "x" * 65521 + " HTTP/1.1\r\n", b"HTTP/1.1 414 Request-URI Too Long",
     "/" + "x" * 65521),
], ids=["double-slash", "http-1.0-closes", "extra-blanks", "too-many-headers", "garbage",
        "bad-version", "http-0.9", "version-2-and-up", "line-too-long"])
def test_request_lines_are_handled_as_in_the_stdlib(tmp_path, raw, status_line, logged_path) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    with HoneyLinkServer(core) as server:
        reply = exchange(server.address, raw.format(token=link.token))
    sink.close()
    assert reply.split(b"\r\n", 1)[0] == status_line
    entries = load_access_log(tmp_path / "access.log")
    expected = [] if logged_path is None else [logged_path.format(token=link.token)]
    assert [e.path for e in entries] == expected


@pytest.mark.parametrize("raw", [
    "",
    "POST /t/abc HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
], ids=["silent", "POST-without-body"])
def test_idle_connections_are_closed_after_the_timeout(tmp_path, monkeypatch, raw) -> None:
    monkeypatch.setattr(honeylink, "IDLE_TIMEOUT_S", 0.5)
    registry, link, sink, core = _make_core(tmp_path)
    with HoneyLinkServer(core) as server:
        started = time.perf_counter()
        reply = exchange(server.address, raw)
        waited = time.perf_counter() - started
        idle_closes = server.counters()["idle_closes"]
    sink.close()
    assert reply == b""
    assert 0.4 < waited < 2
    assert idle_closes == 1
    entries = load_access_log(tmp_path / "access.log")
    assert [(e.method, e.path) for e in entries] == ([("POST", "/t/abc")] if raw else [])


def test_clients_over_the_connection_cap_wait_in_the_backlog(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(honeylink, "MAX_CONNECTIONS", 2)
    registry, link, sink, core = _make_core(tmp_path)
    with HoneyLinkServer(core) as server:
        first, second, third = (socket.create_connection(server.address, timeout=2) for _ in range(3))
        with first, second, third:
            third.sendall(b"GET /third HTTP/1.1\r\nConnection: close\r\n\r\n")
            third.settimeout(0.5)
            cpu = time.process_time()
            with pytest.raises(TimeoutError):
                third.recv(1)
            assert time.process_time() - cpu < 0.2  # the loop waits at the cap, it does not spin
            assert load_access_log(tmp_path / "access.log") == []
            first.close()
            third.settimeout(2)
            reply = b""
            while chunk := third.recv(4096):
                reply += chunk
        counters = server.counters()
    sink.close()
    assert reply.startswith(b"HTTP/1.1 404 ")
    assert [e.path for e in load_access_log(tmp_path / "access.log")] == ["/third"]
    assert counters["peak_connections"] == 2


def test_a_client_that_never_reads_does_not_hold_the_others(tmp_path) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    # 2,000 answers of 16 KiB each: far more than the socket buffers hold, so a send stalls.
    registry.redirect_target = "https://www.google.com/" + "x" * 16384
    server = HoneyLinkServer(core)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=2) as greedy:
            greedy.sendall(f"GET /t/{link.token} HTTP/1.1\r\n\r\n".encode("ascii") * 2000)
            started = time.perf_counter()
            conn = http.client.HTTPConnection(*server.address, timeout=2)
            conn.request("GET", "/robots.txt")
            assert conn.getresponse().status == 404
            conn.close()
            assert time.perf_counter() - started < 1
            assert server.counters()["answers"]["302"] < 2000
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 1
    finally:
        sink.close()


def test_an_error_closes_only_its_own_connection(tmp_path, monkeypatch, capsys) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    handle = core.handle
    calls = itertools.count()

    def fail_once(*args):
        if next(calls) == 0:
            raise RuntimeError("boom")
        return handle(*args)

    monkeypatch.setattr(core, "handle", fail_once)
    with HoneyLinkServer(core) as server:
        failed = exchange(server.address, "GET /first HTTP/1.1\r\n\r\n")
        served = exchange(server.address, "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n")
    sink.close()
    assert failed == b""
    assert served.startswith(b"HTTP/1.1 404 ")
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and "RuntimeError('boom')" in errors[0]


def test_a_failing_accept_does_not_spin_the_loop(tmp_path, monkeypatch) -> None:
    registry, link, sink, core = _make_core(tmp_path)
    accept = socket.socket.accept
    attempts = []

    def out_of_descriptors(self):
        attempts.append(time.perf_counter())
        raise OSError(errno.EMFILE, "Too many open files")

    with HoneyLinkServer(core) as server:
        monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
        with socket.create_connection(server.address, timeout=3) as sock:
            sock.sendall(b"GET /late HTTP/1.1\r\nConnection: close\r\n\r\n")
            time.sleep(1)
            monkeypatch.setattr(socket.socket, "accept", accept)
            reply = sock.recv(4096)
    sink.close()
    assert 1 <= len(attempts) <= 4
    assert reply.startswith(b"HTTP/1.1 404 ")


def test_every_minted_link_resolves_back() -> None:
    registry = LinkRegistry()
    rng = Random(8)
    for i in range(300):
        link = mint_token(registry, "decoy_bank", f"https://bank.example/{i}", f"s{i % 5}", rng)
        assert registry.resolve(link.token) == link
