from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysheets.errors import ConfigMismatch, DenyPrefixCollision, UnsupportedCountry
from honeysheets.honeygen import (
    DEFAULT_DENY_PREFIXES,
    FICTITIOUS_BANK_IDS,
    IBAN_BBAN_LENGTHS,
    SheetConfig,
    SortCode,
    build_honey_sheet,
    derive_sheet_id,
    generate_iban,
    generate_person,
    generate_sort_code,
    validate_iban,
)
from honeysheets.sheetstore import sheets_to_json

from conftest import make_fleet


def mod97_oracle(iban: str) -> int:
    """Independent MOD-97 check: rearrange, expand letters, big-int modulo."""
    rearranged = iban[4:] + iban[:4]
    return int("".join(str(int(ch, 36)) for ch in rearranged)) % 97


def oracle_check_digits(country: str, bban: str) -> str:
    """The unique check pair making country+pair+bban pass the oracle."""
    for candidate in range(100):
        if mod97_oracle(f"{country}{candidate:02d}{bban}") == 1:
            return f"{candidate:02d}"
    raise AssertionError("no valid check pair exists")


def test_known_valid_iban_passes_oracle_and_validator() -> None:
    assert mod97_oracle("GB82WEST12345698765432") == 1
    assert validate_iban("GB82WEST12345698765432")


def test_oracle_finds_82_as_the_only_check_pair_for_known_body() -> None:
    assert oracle_check_digits("GB", "WEST12345698765432") == "82"
    assert not validate_iban("GB00WEST12345698765432")


def test_generation_is_deterministic_for_fixed_seed() -> None:
    first = generate_iban("GB", Random(7))
    second = generate_iban("GB", Random(7))
    assert first == second


def test_generated_ibans_pass_independent_oracle() -> None:
    for seed in range(200):
        for country in ("GB", "DE", "FR"):
            iban = generate_iban(country, Random(seed))
            assert mod97_oracle(iban.text) == 1
            assert validate_iban(iban.text)
            assert len(iban.text) == 4 + IBAN_BBAN_LENGTHS[country]


def test_perturbed_check_digits_fail_validation() -> None:
    for seed in range(50):
        iban = generate_iban("GB", Random(seed))
        bumped = (int(iban.check_digits) + 1) % 100
        perturbed = f"{iban.country_code}{bumped:02d}{iban.bban}"
        assert mod97_oracle(perturbed) != 1
        assert not validate_iban(perturbed)


def test_validate_rejects_malformed_input() -> None:
    assert not validate_iban("")
    assert not validate_iban("GB82")
    assert not validate_iban("XX82WEST12345698765432")  # unsupported country
    assert not validate_iban("GBxxWEST12345698765432")  # non-digit check
    assert not validate_iban("GB82WEST1234569876543")  # short
    assert not validate_iban("GB82west12345698765432")  # lowercase body


@settings(max_examples=150, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    country=st.sampled_from(("GB", "DE", "FR")),
)
def test_iban_property_valid_and_deny_free(seed: int, country: str) -> None:
    iban = generate_iban(country, Random(seed))
    assert mod97_oracle(iban.text) == 1
    assert not any(iban.bban.startswith(p) for p in DEFAULT_DENY_PREFIXES)
    assert iban.bban.startswith(FICTITIOUS_BANK_IDS[country])


def test_unsupported_country_raises() -> None:
    with pytest.raises(UnsupportedCountry):
        generate_iban("US", Random(1))


def test_deny_prefix_collision_raises() -> None:
    with pytest.raises(DenyPrefixCollision):
        generate_iban("GB", Random(1), deny_prefixes=("NNBK",))


def test_sort_code_rendering() -> None:
    assert SortCode("123456").text == "12-34-56"
    assert generate_sort_code(Random(3)).text.count("-") == 2
    with pytest.raises(ValueError):
        SortCode("12345")


def test_person_record_fields() -> None:
    person = generate_person(Random(5))
    assert person.full_name and " " in person.full_name
    assert person.monthly_pay > 0
    assert 1500 * 100 <= person.monthly_pay <= 9500 * 100


def test_sheet_has_header_personnel_rows_and_link_cells(fleet) -> None:
    registry, sheets = fleet
    sheet = sheets[0]
    assert sheet.n_rows == 21  # header + 20
    short_urls = {link.short_url for link in registry.for_sheet(sheet.sheet_id)}
    placed = [c.value for row in sheet.grid for c in row if c.value in short_urls]
    assert len(placed) == 9
    for row in sheet.grid[1:]:
        assert validate_iban(row[2].value)


def test_sheet_with_ten_rows_and_nine_links() -> None:
    registry, sheets = make_fleet(n_sheets=1, rows=10)
    sheet = sheets[0]
    assert sheet.n_rows == 11
    link_cells = [c for row in sheet.grid for c in row if c.value.startswith("https://snip")]
    assert len(link_cells) == 9


def test_degenerate_sheet_no_links() -> None:
    sheet = build_honey_sheet(SheetConfig(rows=1, link_slots=0, controlled_slots=0, rng_seed=9), [])
    assert sheet.n_rows == 2
    assert sheet.n_cols == 5


def test_build_is_pure_function_of_config_and_links(fleet) -> None:
    registry, _ = fleet
    sheet_id = derive_sheet_id(100)
    links = sorted(registry.for_sheet(sheet_id), key=lambda l: l.token)
    config = SheetConfig(rows=20, rng_seed=100)
    assert sheets_to_json([build_honey_sheet(config, links)]) == sheets_to_json(
        [build_honey_sheet(config, links)]
    )


def test_derive_sheet_id_matches_built_sheet() -> None:
    config = SheetConfig(rows=3, link_slots=0, controlled_slots=0, rng_seed=77)
    assert build_honey_sheet(config, []).sheet_id == derive_sheet_id(77)


def test_link_count_mismatch_raises(fleet) -> None:
    registry, _ = fleet
    links = registry.for_sheet(derive_sheet_id(100))
    with pytest.raises(ConfigMismatch):
        build_honey_sheet(SheetConfig(rows=5, link_slots=4, controlled_slots=0, rng_seed=1), links)


def test_config_invariants() -> None:
    with pytest.raises(ValueError):
        SheetConfig(rows=0)
    with pytest.raises(ValueError):
        SheetConfig(link_slots=2, controlled_slots=3)
