from __future__ import annotations

from pathlib import Path

import pytest

from honeysheets._util import decode, encode
from honeysheets.analytics import aggregate
from honeysheets.errors import InfeasibleTargets, ReplayError
from honeysheets.honeylink import AccessLogWriter, LinkServerCore, load_access_log
from honeysheets.notify import ingest_mailbox
from honeysheets.simharness import (
    Action,
    ActionTrace,
    ExperimentTarget,
    TargetCounts,
    VisitorProfile,
    default_profiles,
    replay,
    simulate,
)

from conftest import geo_ip_pool, make_fleet, make_geo_table, utc

START = utc(2016, 1, 23)

FIELD_TARGETS = TargetCounts(
    experiments=(
        ExperimentTarget("hacker", utc(2016, 1, 23), 46, 112, 17),
        ExperimentTarget("naive", utc(2016, 3, 9), 26, 53, 11),
    ),
    clicks_total=174,
    controlled_visits=44,
    unique_controlled_ips=39,
    countries=35,
)

SMALL_TARGETS = TargetCounts(
    experiments=(ExperimentTarget("one", START, 5, 12, 4),),
    clicks_total=10,
    controlled_visits=4,
    unique_controlled_ips=3,
    countries=3,
)


def make_world(**kwargs):
    registry, sheets = make_fleet(**kwargs)
    return registry, sheets, make_geo_table(), default_profiles(source_ips=geo_ip_pool())


def run_pipeline(tmp_path: Path, registry, sheets, trace):
    sink = AccessLogWriter(tmp_path / "access.log")
    core = LinkServerCore(registry, sink)
    replay(trace, {s.sheet_id: s for s in sheets}, core, tmp_path / "mailbox")
    sink.close()
    timeline, quarantined = ingest_mailbox(tmp_path / "mailbox")
    assert quarantined == 0
    return timeline, load_access_log(tmp_path / "access.log")


def test_simulate_is_deterministic_for_fixed_seed() -> None:
    registry, sheets, geo, profiles = make_world()
    one = simulate(profiles, sheets, registry, seed=5, targets=SMALL_TARGETS, geo=geo)
    two = simulate(profiles, sheets, registry, seed=5, targets=SMALL_TARGETS, geo=geo)
    assert one.to_json() == two.to_json()
    three = simulate(profiles, sheets, registry, seed=6, targets=SMALL_TARGETS, geo=geo)
    assert one.to_json() != three.to_json()


def test_constrained_trace_hits_exact_counts() -> None:
    registry, sheets, geo, profiles = make_world()
    trace = simulate(profiles, sheets, registry, seed=5, targets=SMALL_TARGETS, geo=geo)
    assert trace.meta["opens"] == 12
    assert trace.meta["modifications"] == 4
    assert trace.meta["clicks"] == 10
    assert trace.meta["controlled_visits"] == 4
    assert trace.meta["unique_controlled_ips"] == 3


def test_trace_timestamps_strictly_ordered() -> None:
    registry, sheets, geo, profiles = make_world()
    trace = simulate(profiles, sheets, registry, seed=8, targets=FIELD_TARGETS, geo=geo)
    stamps = [a.at for a in trace]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_trace_json_roundtrip() -> None:
    registry, sheets, geo, profiles = make_world()
    trace = simulate(profiles, sheets, registry, seed=5, targets=SMALL_TARGETS, geo=geo)
    again = ActionTrace.from_json(trace.to_json())
    assert again.to_json() == trace.to_json()


def test_infeasible_when_modifications_exceed_opens() -> None:
    registry, sheets, geo, profiles = make_world()
    bad = TargetCounts(experiments=(ExperimentTarget("x", START, 5, 3, 9),))
    with pytest.raises(InfeasibleTargets):
        simulate(profiles, sheets, registry, seed=1, targets=bad, geo=geo)


def test_infeasible_when_unique_ips_exceed_visits() -> None:
    registry, sheets, geo, profiles = make_world()
    bad = TargetCounts(
        experiments=(ExperimentTarget("x", START, 5, 3, 0),),
        clicks_total=5, controlled_visits=2, unique_controlled_ips=3,
    )
    with pytest.raises(InfeasibleTargets):
        simulate(profiles, sheets, registry, seed=1, targets=bad, geo=geo)


def test_infeasible_when_countries_exceed_pool() -> None:
    registry, sheets, geo, profiles = make_world()
    bad = TargetCounts(
        experiments=(ExperimentTarget("x", START, 5, 3, 0),),
        clicks_total=200, controlled_visits=10, unique_controlled_ips=5, countries=80,
    )
    with pytest.raises(InfeasibleTargets):
        simulate(profiles, sheets, registry, seed=1, targets=bad, geo=geo)


def test_infeasible_without_geo_table_when_countries_set() -> None:
    registry, sheets, _, profiles = make_world()
    with pytest.raises(InfeasibleTargets):
        simulate(profiles, sheets, registry, seed=1, targets=SMALL_TARGETS, geo=None)


def test_infeasible_when_countries_exceed_clicks() -> None:
    registry, sheets, geo, profiles = make_world()
    bad = TargetCounts(
        experiments=(ExperimentTarget("x", START, 5, 3, 0),),
        clicks_total=2, controlled_visits=1, unique_controlled_ips=1, countries=5,
    )
    with pytest.raises(InfeasibleTargets):
        simulate(profiles, sheets, registry, seed=1, targets=bad, geo=geo)


def test_expand_only_profile_yields_layout_only_modifications(tmp_path) -> None:
    registry, sheets, geo, _ = make_world()
    lurkers = [VisitorProfile("lurker", {"expand_columns": 1.0}, visits_per_day=6.0)]
    trace = simulate(lurkers, sheets, registry, seed=9, duration_days=5.0, start=START)
    assert trace.meta["modifications"] > 0
    timeline, _ = run_pipeline(tmp_path, registry, sheets, trace)
    classes = {e.modification_class for e in timeline if e.kind == "modification"}
    assert classes == {"layout_only"}


def test_deface_action_replays_to_one_mixed_event(tmp_path) -> None:
    registry, sheets, geo, _ = make_world()
    vandals = [VisitorProfile("vandal", {"deface": 1.0}, visits_per_day=1.0)]
    trace = simulate(vandals, sheets, registry, seed=3, duration_days=2.0, start=START)
    edits = [a for a in trace if a.kind == "edit"]
    assert edits
    timeline, _ = run_pipeline(tmp_path, registry, sheets, trace)
    modifications = [e for e in timeline if e.kind == "modification"]
    assert len(modifications) == len(edits)
    assert {e.modification_class for e in modifications} == {"mixed"}


def test_no_modification_loss_or_duplication(tmp_path) -> None:
    registry, sheets, geo, profiles = make_world()
    trace = simulate(profiles, sheets, registry, seed=21, targets=FIELD_TARGETS, geo=geo)
    timeline, logs = run_pipeline(tmp_path, registry, sheets, trace)
    assert timeline.counts()["modification"] == trace.meta["modifications"]
    assert timeline.counts()["open"] == trace.meta["opens"]
    assert len(logs) == trace.meta["clicks"]


def test_field_scale_replay_matches_targets_exactly(tmp_path) -> None:
    registry, sheets, geo, profiles = make_world()
    trace = simulate(profiles, sheets, registry, seed=7, targets=FIELD_TARGETS, geo=geo)
    timeline, logs = run_pipeline(tmp_path, registry, sheets, trace)
    controlled = {link.token for link in registry.by_class("controlled")}
    report = aggregate(timeline, logs, geo, FIELD_TARGETS.windows(), controlled_tokens=controlled)
    assert report.total.open_count == 165
    assert report.total.modification_count == 28
    assert report.total.click_count == 174
    assert report.total.controlled_link_visit_count == 44
    assert report.total.unique_ip_count == 39
    assert report.total.distinct_country_count == 35
    assert report.experiment("hacker").open_count == 112
    assert report.experiment("hacker").modification_count == 17
    assert report.experiment("naive").open_count == 53
    assert report.experiment("naive").modification_count == 11


def test_empty_trace_replays_to_nothing(tmp_path) -> None:
    registry, sheets, geo, profiles = make_world()
    timeline, logs = run_pipeline(tmp_path, registry, sheets, ActionTrace(actions=()))
    assert len(timeline) == 0 and logs == []


def test_replay_rejects_unknown_sheet(tmp_path) -> None:
    registry, sheets, _, _ = make_world()
    trace = ActionTrace(
        actions=(
            Action(START, "ghost", "no-such-sheet", "edit", {"commands": []}),
        )
    )
    sink = AccessLogWriter(tmp_path / "a.log")
    core = LinkServerCore(registry, sink)
    with pytest.raises(ReplayError) as info:
        replay(trace, {s.sheet_id: s for s in sheets}, core, tmp_path / "mb")
    sink.close()
    assert info.value.index == 0


def test_free_running_mode_produces_plausible_mix(tmp_path) -> None:
    registry, sheets, geo, profiles = make_world()
    trace = simulate(profiles, sheets, registry, seed=33, duration_days=30.0, start=START)
    kinds = {a.kind for a in trace}
    assert "open" in kinds
    assert trace.meta["opens"] >= trace.meta["modifications"]
    timeline, logs = run_pipeline(tmp_path, registry, sheets, trace)
    assert timeline.counts()["open"] == trace.meta["opens"]
    assert len(logs) == trace.meta["clicks"]


def test_profile_validation() -> None:
    with pytest.raises(ValueError):
        VisitorProfile("bad", {"open_only": 0.5})  # does not sum to 1
    with pytest.raises(ValueError):
        VisitorProfile("bad", {"dance": 1.0})
    with pytest.raises(ValueError):
        VisitorProfile("bad", {"click_links": 1.0})  # no IP pool


def test_profile_dict_roundtrip() -> None:
    profile = default_profiles(source_ips=("10.0.0.1",))[4]
    assert decode(VisitorProfile, encode(profile)) == profile
