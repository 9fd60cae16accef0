"""Workload definitions and the seeded input files each run hands the program.

Everything the program reads is generated here from the run seed: the geo
table, the visitor profiles, the count targets, the experiment windows and
the tracker traffic. Sizes are fixed per workload, so two seeds give the
same amount of work with different content (names, IBANs, tokens, IPs,
countries, user agents).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

HACKER_START = datetime(2016, 1, 23, tzinfo=timezone.utc)
WINDOW_DAYS = 46

USER_AGENTS = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/70.0.3538.77 Safari/537.36",
    "Mozilla/5.0 (X11; Linux x86_64; rv:84.0) Gecko/20100101 Firefox/84.0",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 "
    "(KHTML, like Gecko) Version/14.0 Safari/605.1.15",
    "Mozilla/5.0 (Linux; Android 9; SM-G960F) AppleWebKit/537.36 (KHTML, like Gecko) "
    "SamsungBrowser/9.2 Chrome/67.0.3396.87 Mobile Safari/537.36",
    "Mozilla/5.0 (Linux; Android 10; Pixel 3) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/78.0.3904.108 Mobile Safari/537.36",
    "Mozilla/5.0 (Windows NT 6.1; WOW64; rv:54.0) Gecko/20100101 Firefox/54.0",
    "curl/7.64.1",
    "python-requests/2.25.1",
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Wget/1.19.4 (linux-gnu)",
)


@dataclass(frozen=True)
class TrackerMix:
    """Tracker traffic of one round; the same for both workloads.

    The counts are exact, not sampled, so every round sends the same number
    of each kind of request and the same number of non-numeric
    Content-Length probes.
    """

    clicks: int = 100
    scan_requests: int = 600
    scan_connections: int = 2
    get_unknown: int = 20  # 404 with a body: the keep-alive stall
    head: int = 60
    post: int = 60
    bad_length: int = 3  # non-numeric Content-Length: no reply, no log line


@dataclass(frozen=True)
class Workload:
    name: str
    sheets: int
    rows: int
    links: int = 9
    controlled: int = 3
    countries: int = 110
    ips_per_country: int = 4
    # Constrained mode (campaign): exact per-window opens and modifications.
    experiments: tuple[tuple[str, int, int], ...] = ()
    clicks_total: int = 0
    controlled_visits: int = 0
    unique_controlled_ips: int = 0
    target_countries: int = 0
    # Free-running mode (big-sheets): days of activity at these rates.
    days: float = 0.0
    profile_rates: tuple[tuple[str, dict, float], ...] = ()
    # The free-running trace shape depends on this seed only, so every run
    # replays the same number of opens, edits and clicks.
    simulate_seed: int | None = None
    # Extra invocations per round of stages too short to time once.
    repeats: dict = field(default_factory=dict)
    mix: TrackerMix = TrackerMix()

    @property
    def constrained(self) -> bool:
        return bool(self.experiments)


CAMPAIGN = Workload(
    name="campaign",
    sheets=50,
    rows=20,
    experiments=(("hacker", 1300, 210), ("naive", 700, 110)),
    clicks_total=1000,
    controlled_visits=300,
    unique_controlled_ips=200,
    target_countries=80,
    repeats={"simulate": 2, "replay": 2, "ingest": 2, "report": 2},
)

BIG_SHEETS = Workload(
    name="big-sheets",
    sheets=2,
    rows=1500,
    countries=40,
    ips_per_country=3,
    days=24.0,
    profile_rates=(
        ("reader", {"open_only": 1.0}, 1.0),
        ("widener", {"expand_columns": 1.0}, 1.0),
        ("eraser", {"delete_content": 1.0}, 1.6),
        ("defacer", {"deface": 1.0}, 0.8),
        ("clicker", {"click_links": 1.0}, 0.4),
    ),
    simulate_seed=20160123,
    repeats={"simulate": 2, "replay": 2, "ingest": 3, "report": 3},
)

WORKLOADS = {w.name: w for w in (CAMPAIGN, BIG_SHEETS)}


def _ts(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def windows(workload: Workload) -> list[dict]:
    """The experiment windows as bounds.json rows."""
    if workload.constrained:
        out = []
        start = HACKER_START
        for name, _, _ in workload.experiments:
            end = start + timedelta(days=WINDOW_DAYS)
            out.append({"name": name, "start": _ts(start), "end": _ts(end)})
            start = end
        return out
    end = HACKER_START + timedelta(days=workload.days + 1)
    return [{"name": "hacker", "start": _ts(HACKER_START), "end": _ts(end)}]


def geo_table(rng: random.Random, n_countries: int) -> list[tuple[str, str]]:
    """Seeded CIDR table: one /16 per country, some with a nested /24 of another.

    The nested prefixes make longest-prefix matching matter: an address in
    one of them belongs to the inner country, not the enclosing /16's.
    """
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    codes = rng.sample([a + b for a in letters for b in letters], n_countries)
    seconds = rng.sample(range(256), n_countries)
    rows = [(f"{rng.randrange(11, 100)}.{b}.0.0/16", code) for b, code in zip(seconds, codes)]
    # Distinct first octets per /16 are not needed: the second octet is unique.
    for i in rng.sample(range(n_countries), n_countries // 4):
        outer = rows[i][0].split(".")
        inner_code = codes[(i + 1) % n_countries]
        rows.append((f"{outer[0]}.{outer[1]}.{rng.randrange(1, 255)}.0/24", inner_code))
    return rows


def ip_pool(rng: random.Random, table: list[tuple[str, str]], per_country: int) -> list[str]:
    """Addresses spread over every /16 and nested /24, plus a few unroutable ones."""
    pool: list[str] = []
    for cidr, _ in table:
        a, b, c, _ = cidr.split("/")[0].split(".")
        fixed_c = cidr.endswith("/24")
        for _ in range(1 if fixed_c else per_country):
            third = int(c) if fixed_c else rng.randrange(256)
            pool.append(f"{a}.{b}.{third}.{rng.randrange(1, 255)}")
    pool += [f"198.51.100.{rng.randrange(1, 255)}" for _ in range(3)]
    return sorted(set(pool))


def _profiles(workload: Workload, rng: random.Random, pool: list[str]) -> list[dict]:
    agents = list(USER_AGENTS)
    if workload.constrained:
        third = len(pool) // 3
        parts = [pool[:third], pool[third : 2 * third], pool[2 * third :]]
        specs = [
            ("opener", {"open_only": 1.0}, 1.0, []),
            ("editor", {"delete_content": 0.5, "deface": 0.5}, 1.0, []),
        ] + [
            (f"prober{i}", {"click_links": 1.0}, 1.0, part) for i, part in enumerate(parts)
        ]
    else:
        specs = [(name, mix, rate, pool if "click_links" in mix else []) for name, mix, rate in workload.profile_rates]
    out = []
    for name, mix, rate, ips in specs:
        out.append(
            {
                "name": f"{name}-{rng.randrange(10_000):04d}",
                "action_mix": mix,
                "clicks_per_visit": [[1, 0.5], [2, 0.3], [4, 0.2]],
                "source_ip_pool": list(ips),
                "user_agent_pool": rng.sample(agents, 4),
                "visits_per_day": rate,
            }
        )
    return out


def _targets(workload: Workload) -> dict:
    experiments = []
    start = HACKER_START
    for name, opens, modifications in workload.experiments:
        experiments.append(
            {
                "name": name,
                "start": _ts(start),
                "days": WINDOW_DAYS,
                "opens": opens,
                "modifications": modifications,
            }
        )
        start += timedelta(days=WINDOW_DAYS)
    return {
        "experiments": experiments,
        "clicks_total": workload.clicks_total,
        "controlled_visits": workload.controlled_visits,
        "unique_controlled_ips": workload.unique_controlled_ips,
        "countries": workload.target_countries,
    }


@dataclass(frozen=True)
class RunInputs:
    """Paths of the generated inputs and the seeds the stages take."""

    dir: Path
    gen_seed: int
    leak_seed: int
    simulate_seed: int
    scan_seed: int


def write_inputs(workload: Workload, seed: int, out: Path) -> RunInputs:
    """Write geo.csv, profiles.json, bounds.json (and targets.json) under out."""
    rng = random.Random(f"{workload.name}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    table = geo_table(rng, workload.countries)
    lines = ["cidr,country"] + [f"{cidr},{code}" for cidr, code in table]
    (out / "geo.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    pool = ip_pool(rng, table, workload.ips_per_country)
    (out / "profiles.json").write_text(json.dumps(_profiles(workload, rng, pool), indent=1))
    (out / "bounds.json").write_text(json.dumps(windows(workload), indent=1))
    if workload.constrained:
        (out / "targets.json").write_text(json.dumps(_targets(workload), indent=1))
    simulate_seed = workload.simulate_seed
    if simulate_seed is None:
        simulate_seed = rng.randrange(1, 2**31)
    return RunInputs(
        dir=out,
        gen_seed=rng.randrange(1, 2**31),
        leak_seed=rng.randrange(1, 2**31),
        simulate_seed=simulate_seed,
        scan_seed=rng.randrange(1, 2**31),
    )


@dataclass(frozen=True)
class ScanRequest:
    method: str
    path: str
    known: bool
    body: bytes = b""
    bad_length: bool = False


def scan_sequence(mix: TrackerMix, tokens: list[str], seed: int) -> list[ScanRequest]:
    """The crawler's requests, in order; identical for identical arguments."""
    rng = random.Random(seed)

    def unknown_path() -> str:
        return rng.choice(("/admin", "/wp-login.php", "/.env", "/t/", "/robots.txt")) + (
            f"?q={rng.randrange(10**6)}"
        )

    def known_path() -> str:
        return f"/t/{rng.choice(tokens)}"

    reqs: list[ScanRequest] = []
    for _ in range(mix.get_unknown):
        reqs.append(ScanRequest("GET", unknown_path(), False))
    for i in range(mix.head):
        known = i % 2 == 0
        reqs.append(ScanRequest("HEAD", known_path() if known else unknown_path(), known))
    for i in range(mix.post):
        # POSTs on known tokens only: a POST 404 would stall like a GET 404.
        reqs.append(ScanRequest("POST", known_path(), True, body=b"user=admin&pass=%d" % i))
    for _ in range(mix.bad_length):
        reqs.append(ScanRequest("POST", known_path(), True, bad_length=True))
    rest = mix.scan_requests - len(reqs)
    if rest < 0:
        raise ValueError("scan mix shares exceed the request count")
    reqs += [ScanRequest("GET", known_path(), True) for _ in range(rest)]
    rng.shuffle(reqs)
    return reqs
