"""Declarative, seeded fault injection for the serving cluster.

A :class:`FaultPlan` is a time-sorted list of :class:`FaultEvent`\\ s in
the modeled-millisecond domain of the event loop.  The plan is *data*,
not behaviour: :class:`repro.serving.cluster.Router` replays it through
the same due-event cursor pattern it uses for epoch swaps, so fault
events interleave deterministically with arrivals, launches, and
mutations — two runs with the same stream, seed, and plan produce
bitwise-identical reports.

Three event kinds:

``crash``
    The server goes down at ``time_ms``.  An in-flight batch is aborted
    and re-queued through admission (bounded retries); committed-but-
    unstarted batches are re-placed onto survivors.  With a real data
    plane attached, the pinned worker process is SIGKILLed at the same
    modeled instant so the modeled and real failure sets agree.
``recover``
    A crashed server comes back, idle, at ``time_ms`` (the worker
    process is respawned in real mode).
``slow``
    The server's speed factor becomes ``speed`` for launches started
    after ``time_ms`` (a transient slowdown is a ``slow`` event followed
    by a second ``slow`` event restoring 1.0).

CLI specs (``repro cluster --fail 1@3.5 --speed 2=0.5``) parse through
:func:`parse_fail_spec` / :func:`parse_speed_spec`; seeded random chaos
comes from :func:`chaos_plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Recognised :class:`FaultEvent` kinds.
FAULT_KINDS = ("crash", "recover", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` hits server ``sid`` at ``time_ms``.

    ``speed`` is only meaningful for ``slow`` events (the new speed
    factor; must be finite and > 0).  ``time_ms`` must be finite: a NaN
    time would sort anywhere and stall the replay cursor.
    """

    time_ms: float
    kind: str
    sid: int
    speed: float = 1.0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
        if not (math.isfinite(self.time_ms) and self.time_ms >= 0.0):
            raise ValueError(
                f"fault time must be finite and >= 0, got {self.time_ms}"
            )
        if self.sid < 0:
            raise ValueError(f"fault sid must be >= 0, got {self.sid}")
        if self.kind == "slow" and not (
            math.isfinite(self.speed) and self.speed > 0.0
        ):
            raise ValueError(
                f"slow-event speed must be finite and > 0, got {self.speed}"
            )


@dataclass
class FaultPlan:
    """A replayable schedule of fault events.

    Build declaratively (`FaultPlan().crash(1, at=3.0).recover(1,
    at=9.0)`), from CLI specs via :meth:`from_specs`, or randomly-but-
    seeded via :func:`chaos_plan`.
    """

    events: list[FaultEvent] = field(default_factory=list)

    def crash(self, sid: int, *, at: float) -> FaultPlan:
        """Schedule a crash of ``sid`` at modeled time ``at``."""
        self.events.append(FaultEvent(time_ms=at, kind="crash", sid=sid))
        return self

    def recover(self, sid: int, *, at: float) -> FaultPlan:
        """Schedule recovery of ``sid`` at modeled time ``at``."""
        self.events.append(FaultEvent(time_ms=at, kind="recover", sid=sid))
        return self

    def slow(self, sid: int, *, at: float, speed: float) -> FaultPlan:
        """Set ``sid``'s speed factor to ``speed`` from time ``at``."""
        self.events.append(
            FaultEvent(time_ms=at, kind="slow", sid=sid, speed=speed)
        )
        return self

    def validate(self, n_servers: int | None = None) -> None:
        """Check every event; with ``n_servers``, also that each sid is
        addressable by the fleet."""
        for ev in self.events:
            ev.validate()
            if n_servers is not None and ev.sid >= n_servers:
                raise ValueError(
                    f"fault event targets server {ev.sid} but the fleet "
                    f"only addresses sids < {n_servers}"
                )

    def sorted_events(self) -> list[FaultEvent]:
        """Events in replay order (time, then insertion order — the
        sort is stable)."""
        return sorted(self.events, key=lambda ev: ev.time_ms)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def from_specs(
        cls,
        fail: list[str] | tuple[str, ...] = (),
        recover: list[str] | tuple[str, ...] = (),
    ) -> FaultPlan:
        """Build a plan from CLI ``SID@T_MS`` spec strings."""
        plan = cls()
        for spec in fail:
            sid, t = parse_fail_spec(spec)
            plan.crash(sid, at=t)
        for spec in recover:
            sid, t = parse_fail_spec(spec)
            plan.recover(sid, at=t)
        return plan


def parse_fail_spec(spec: str) -> tuple[int, float]:
    """Parse a ``SID@T_MS`` spec (e.g. ``1@3.5``) into ``(sid, t_ms)``."""
    sid_s, sep, t_s = spec.partition("@")
    if not sep:
        raise ValueError(
            f"bad fault spec {spec!r}: expected SID@T_MS (e.g. 1@3.5)"
        )
    try:
        sid, t = int(sid_s), float(t_s)
    except ValueError:
        raise ValueError(
            f"bad fault spec {spec!r}: expected SID@T_MS (e.g. 1@3.5)"
        ) from None
    if sid < 0 or not (math.isfinite(t) and t >= 0.0):
        raise ValueError(
            f"bad fault spec {spec!r}: sid must be >= 0 and time finite "
            "and >= 0"
        )
    return sid, t


def parse_speed_spec(spec: str) -> tuple[int, float]:
    """Parse a ``SID=FACTOR`` spec (e.g. ``2=0.5``) into ``(sid, speed)``."""
    sid_s, sep, f_s = spec.partition("=")
    if not sep:
        raise ValueError(
            f"bad speed spec {spec!r}: expected SID=FACTOR (e.g. 2=0.5)"
        )
    try:
        sid, speed = int(sid_s), float(f_s)
    except ValueError:
        raise ValueError(
            f"bad speed spec {spec!r}: expected SID=FACTOR (e.g. 2=0.5)"
        ) from None
    if sid < 0 or not (math.isfinite(speed) and speed > 0.0):
        raise ValueError(
            f"bad speed spec {spec!r}: sid must be >= 0 and factor finite "
            "and > 0"
        )
    return sid, speed


def chaos_plan(
    n_servers: int,
    horizon_ms: float,
    *,
    crashes: int = 1,
    recover_fraction: float = 0.5,
    seed: int = 0,
) -> FaultPlan:
    """A seeded random plan: ``crashes`` distinct servers crash at
    uniform times in the middle 60% of ``horizon_ms``; each recovers
    ``recover_fraction * horizon_ms`` later (clipped to the horizon).

    Deterministic for a given seed — chaos you can put in a regression
    test.
    """
    if n_servers < 1:
        raise ValueError("chaos_plan needs at least one server")
    if crashes < 0 or crashes >= n_servers:
        raise ValueError(
            "crashes must leave at least one survivor "
            f"(got {crashes} of {n_servers} servers)"
        )
    rng = np.random.default_rng(seed)
    plan = FaultPlan()
    victims = rng.choice(n_servers, size=crashes, replace=False)
    for sid in sorted(int(v) for v in victims):
        t = float(rng.uniform(0.2 * horizon_ms, 0.8 * horizon_ms))
        plan.crash(sid, at=t)
        back = t + recover_fraction * horizon_ms
        if back < horizon_ms:
            plan.recover(sid, at=back)
    return plan


__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "chaos_plan",
    "parse_fail_spec",
    "parse_speed_spec",
]
