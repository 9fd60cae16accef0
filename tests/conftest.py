from __future__ import annotations

import socket
from datetime import datetime, timezone
from random import Random

import pytest

from honeysheets.analytics import GeoTable
from honeysheets.honeygen import SheetConfig, build_honey_sheet, derive_sheet_id
from honeysheets.honeylink import LinkRegistry, mint_token

COUNTRY_CODES = (
    "AD", "AE", "AF", "AG", "AL", "AM", "AO", "AR", "AT", "AU",
    "AZ", "BA", "BB", "BD", "BE", "BF", "BG", "BH", "BI", "BJ",
    "BN", "BO", "BR", "BS", "BT", "BW", "BY", "BZ", "CA", "CD",
    "CF", "CG", "CH", "CI", "CL", "CM", "CN", "CO", "CR", "CU",
)


def utc(*args) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


def exchange(address: tuple[str, int], request: str) -> bytes:
    """Send raw request bytes and read until the server closes the connection.

    A server that keeps the connection open trips the 2 s socket timeout.
    """
    with socket.create_connection(address, timeout=2) as sock:
        sock.sendall(request.encode("ascii"))
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def make_fleet(n_sheets: int = 5, rows: int = 20, seed0: int = 100):
    """A registry plus n sheets, each with 3 controlled and 6 decoy links."""
    registry = LinkRegistry(controlled_domain="trap.example.net")
    rng = Random(999)
    sheets = []
    for i in range(n_sheets):
        seed = seed0 + i
        sheet_id = derive_sheet_id(seed)
        links = []
        for n in range(9):
            if n < 3:
                destination = f"https://trap.example.net/transfer/{sheet_id}/{n}"
                links.append(mint_token(registry, "controlled", destination, sheet_id, rng))
            else:
                destination = f"https://online.cresthill.example/pay/{sheet_id}/{n}"
                links.append(mint_token(registry, "decoy_bank", destination, sheet_id, rng))
        sheets.append(build_honey_sheet(SheetConfig(rows=rows, rng_seed=seed), links))
    return registry, sheets


def make_geo_table() -> GeoTable:
    """One /16 per country code, so 10.i.x.y geolocates to COUNTRY_CODES[i]."""
    return GeoTable([(f"10.{i}.0.0/16", code) for i, code in enumerate(COUNTRY_CODES)])


def geo_ip_pool(per_country: int = 3) -> list[str]:
    return [
        f"10.{i}.0.{j}"
        for i in range(len(COUNTRY_CODES))
        for j in range(1, per_country + 1)
    ]


@pytest.fixture
def fleet():
    return make_fleet()


@pytest.fixture
def geo_table():
    return make_geo_table()
