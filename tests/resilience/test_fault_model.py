"""The structured fault model: specs, plans, logs."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.resilience import (
    FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultEvent,
    FaultLog,
    FaultPlan,
    FaultSpec,
)


# ------------------------------ FaultSpec ------------------------------ #


def test_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec(node=1, kind="meteor")
    with pytest.raises(ConfigError):
        FaultSpec(node=1, point="during")
    with pytest.raises(ConfigError):
        FaultSpec(node=1, attempt=-1)
    with pytest.raises(ConfigError):
        FaultSpec(node=1, kind="slowdown")  # needs delay_seconds > 0
    with pytest.raises(ConfigError):
        FaultSpec(node=1, delay_seconds=-0.1)
    with pytest.raises(ConfigError):
        FaultSpec(node=1, kind="netdelay")  # needs delay_seconds > 0


def test_net_fault_kinds_are_registered():
    assert set(NET_FAULT_KINDS) == {"disconnect", "drop", "netdelay"}
    assert set(NET_FAULT_KINDS) <= set(FAULT_KINDS)
    # Zero-delay disconnect/drop are valid; only netdelay needs a delay.
    assert FaultSpec(node=1, kind="disconnect").kind == "disconnect"
    assert FaultSpec(node=1, kind="drop").kind == "drop"
    assert FaultSpec(node=1, kind="netdelay", delay_seconds=0.05).kind == "netdelay"


def test_spec_matches_phase_name_or_wildcard():
    spec = FaultSpec(node=3, phase="cluster")
    assert spec.matches(3, "map", "cluster", 0)  # matches the op name
    assert not spec.matches(3, "reduce", "merge", 0)
    assert FaultSpec(node=3, phase="map").matches(3, "map", "cluster", 0)
    assert FaultSpec(node=3).matches(3, "reduce", "merge", 0)  # wildcard
    assert not FaultSpec(node=3).matches(4, "map", "cluster", 0)


def test_spec_attempt_matching():
    once = FaultSpec(node=1, attempt=1)
    assert not once.matches(1, "map", "m", 0)
    assert once.matches(1, "map", "m", 1)
    assert not once.matches(1, "map", "m", 2)
    forever = FaultSpec(node=1, attempt=1, permanent=True)
    assert not forever.matches(1, "map", "m", 0)
    assert forever.matches(1, "map", "m", 1)
    assert forever.matches(1, "map", "m", 7)


# ------------------------------ FaultPlan ------------------------------ #


def test_plan_json_roundtrip(tmp_path):
    plan = FaultPlan(
        faults=(
            FaultSpec(node=2, phase="cluster", kind="crash", point="after"),
            FaultSpec(node=5, kind="slowdown", delay_seconds=0.25, attempt=1),
            FaultSpec(node=0, kind="oom", permanent=True),
        ),
        seed=42,
    )
    restored = FaultPlan.from_json(plan.to_json())
    assert restored == plan
    path = plan.save(tmp_path / "plan.json")
    assert FaultPlan.load(path) == plan


def test_seeded_plan_is_reproducible():
    nodes = list(range(1, 9))
    a = FaultPlan.seeded(99, nodes, n_faults=6)
    b = FaultPlan.seeded(99, nodes, n_faults=6)
    assert a == b
    assert len(a) == 6
    assert all(spec.node in nodes for spec in a)
    c = FaultPlan.seeded(100, nodes, n_faults=6)
    assert c != a  # different seed, different plan


def test_seeded_plan_respects_kind_menu():
    plan = FaultPlan.seeded(3, [1, 2], n_faults=10, kinds=("oom",))
    assert all(spec.kind == "oom" for spec in plan)


def test_plan_json_roundtrip_with_net_kinds(tmp_path):
    plan = FaultPlan(
        faults=(
            FaultSpec(node=7, phase="cluster", kind="disconnect"),
            FaultSpec(node=8, kind="drop", attempt=1),
            FaultSpec(node=9, kind="netdelay", delay_seconds=0.05),
        ),
        seed=7,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    path = plan.save(tmp_path / "net-plan.json")
    assert FaultPlan.load(path) == plan


def test_seeded_plan_with_net_kinds_is_valid_and_reproducible():
    a = FaultPlan.seeded(101, [1, 2, 3], n_faults=8, kinds=NET_FAULT_KINDS)
    b = FaultPlan.seeded(101, [1, 2, 3], n_faults=8, kinds=NET_FAULT_KINDS)
    assert a == b
    assert all(spec.kind in NET_FAULT_KINDS for spec in a)
    # Seeded generation must satisfy the spec's own validation: any
    # netdelay it emits carries a positive delay.
    for spec in a:
        if spec.kind == "netdelay":
            assert spec.delay_seconds > 0


def test_lookup_first_match_wins():
    plan = FaultPlan(
        faults=(
            FaultSpec(node=1, kind="crash"),
            FaultSpec(node=1, kind="oom"),
        )
    )
    assert plan.lookup(1, "map", "m", 0).kind == "crash"
    assert plan.lookup(1, "map", "m", 1) is None


# ------------------------------ FaultLog ------------------------------- #


def _event(i: int, kind: str = "crash", action: str = "retry") -> FaultEvent:
    return FaultEvent(
        node=i, phase="map", name="cluster", attempt=0, kind=kind, action=action
    )


def test_fault_log_caps_events_but_keeps_exact_totals():
    log = FaultLog(cap=5)
    for i in range(12):
        log.append(_event(i, kind="crash" if i % 2 else "oom"))
    assert len(log) == 5  # capped
    assert log.total == 12  # exact
    assert log.dropped == 7
    assert log.by_kind == {"crash": 6, "oom": 6}
    assert [e.node for e in log] == [7, 8, 9, 10, 11]  # oldest dropped
    summary = log.summary()
    assert summary["total"] == 12 and summary["dropped"] == 7


def test_fault_log_rejects_bad_cap():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        FaultLog(cap=0)
