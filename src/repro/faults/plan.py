"""Declarative, deterministic fault schedules.

A :class:`FaultPlan` describes *what goes wrong and when*: per-channel
fragment fault probabilities (drop / corrupt / delay), scheduled link-down
and link-up transitions, and gateway crash / restart events at absolute
simulated times.  Arming a plan on a :class:`~repro.hw.topology.World`
builds a :class:`~repro.faults.injector.FaultInjector`, hooks it into the
fabric, and spawns one driver process per scheduled event.

Everything is seeded: the same plan on the same workload yields the same
fault sequence, so a fault run is a reproducible bug report.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import (TYPE_CHECKING, Any, Callable, Optional, Sequence,
                    Union)

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.topology import World
    from .injector import FaultInjector

__all__ = ["ChannelFaults", "LinkEvent", "NodeEvent", "FaultPlan",
           "FormatError", "record"]


class FormatError(ValueError):
    """A serialized record (scenario file, fault plan) with a malformed
    field; the message names where it is."""


def record(cls, data: Any, where: str,
           **casts: Callable[[Any], Any]) -> Any:
    """``cls(**data)`` for the dataclass ``cls``: an absent field takes its
    dataclass default, a present one goes through its ``casts`` entry.

    A non-mapping, an unknown or missing field, or a value its cast or
    ``cls`` rejects raises :class:`FormatError` naming ``where`` (and the
    field), never a bare ``KeyError`` or ``TypeError``.
    """
    if not isinstance(data, Mapping):
        raise FormatError(f"{where} must be a mapping, "
                          f"got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    for name in data:
        if name not in known:
            raise FormatError(f"{where} has unknown field {name!r}")
    for name, f in known.items():
        if (name not in data and f.default is MISSING
                and f.default_factory is MISSING):
            raise FormatError(f"{where} is missing required field {name!r}")
    kwargs = {}
    for name, value in data.items():
        cast = casts.get(name)
        try:
            kwargs[name] = value if cast is None else cast(value)
        except FormatError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"{where}.{name}: {exc}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ChannelFaults:
    """Per-fragment fault probabilities for one channel.

    ``delay_us`` is the *maximum* extra latency; an affected fragment draws
    uniformly from ``[0, delay_us]``.
    """

    drop_p: float = 0.0
    corrupt_p: float = 0.0
    delay_p: float = 0.0
    delay_us: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_p", "corrupt_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.delay_us < 0:
            raise ValueError("delay_us must be >= 0")

    @property
    def quiet(self) -> bool:
        return self.drop_p == self.corrupt_p == self.delay_p == 0.0


@dataclass(frozen=True)
class LinkEvent:
    """At ``time`` µs, take ``channel`` down (``up=False``) or up."""

    time: float
    channel: str
    up: bool = False


@dataclass(frozen=True)
class NodeEvent:
    """At ``time`` µs, crash (``up=False``) or restart a node.

    ``node`` is a node name or rank, resolved against the world at arm time.
    """

    time: float
    node: Union[str, int]
    up: bool = False


@dataclass
class FaultPlan:
    """A complete, seeded fault schedule."""

    seed: int = 0
    #: per-channel fragment fault probabilities, keyed by channel id
    #: (a channel's ``!fwd`` forwarding twin shares its entry).
    channels: Mapping[str, ChannelFaults] = field(default_factory=dict)
    #: fallback for channels without an explicit entry (None = fault-free).
    default: Optional[ChannelFaults] = None
    link_events: Sequence[LinkEvent] = ()
    node_events: Sequence[NodeEvent] = ()

    def validate(self, world: Optional["World"] = None) -> None:
        """Raise :class:`ValueError` on an unexecutable schedule.

        Checks event times are non-negative always; given a world, also
        resolves every node-event key and (when any channels exist) every
        link-event channel id, so a typo fails loudly here instead of as a
        ``KeyError`` deep inside a driver process mid-run.  The ``channels``
        probability map is *not* checked against the world: plans armed via
        ``Session(fault_plan=...)`` legitimately name channels created
        later, and an unmatched entry is inert, not a crash.
        """
        from .injector import base_channel_id
        problems = []
        for ev in (*self.link_events, *self.node_events):
            if ev.time < 0:
                problems.append(f"event time must be >= 0, got {ev!r}")
        if world is not None:
            for ev in self.node_events:
                try:
                    world.node(ev.node)
                except KeyError:
                    problems.append(
                        f"node event references unknown node {ev.node!r} "
                        f"(known: {sorted(world.names)})")
            # Link events only make sense once channels exist; an empty
            # registry means the plan is being armed pre-channel (the
            # Session(fault_plan=...) path) and link targets cannot be
            # checked yet — such plans should be armed after channel
            # creation anyway, as Session.from_scenario does.
            if world.channel_ids:
                known = {base_channel_id(c) for c in world.channel_ids}
                for ev in self.link_events:
                    if base_channel_id(ev.channel) not in known:
                        problems.append(
                            f"link event references unknown channel "
                            f"{ev.channel!r} (known: {sorted(known)})")
            elif self.link_events:
                problems.append(
                    "plan has link events but the world has no channels "
                    "yet; build the channels first, then arm")
        if problems:
            raise ValueError("invalid fault plan: " + "; ".join(problems))

    def arm(self, world: "World") -> "FaultInjector":
        """Attach this plan to ``world``; returns the live injector."""
        from .injector import FaultInjector
        if world.fabric.injector is not None:
            raise RuntimeError("a fault plan is already armed on this world")
        self.validate(world)
        injector = FaultInjector(world, self)
        world.fabric.injector = injector
        return injector

    # -- corpus serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "channels": {cid: {"drop_p": cf.drop_p,
                               "corrupt_p": cf.corrupt_p,
                               "delay_p": cf.delay_p,
                               "delay_us": cf.delay_us}
                         for cid, cf in self.channels.items()},
            "default": (None if self.default is None else
                        {"drop_p": self.default.drop_p,
                         "corrupt_p": self.default.corrupt_p,
                         "delay_p": self.default.delay_p,
                         "delay_us": self.default.delay_us}),
            "link_events": [{"time": ev.time, "channel": ev.channel,
                             "up": ev.up} for ev in self.link_events],
            "node_events": [{"time": ev.time, "node": ev.node,
                             "up": ev.up} for ev in self.node_events],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict` (fuzz corpus files);
        a malformed field raises :class:`FormatError`."""
        def events(kind, key):
            return lambda evs: tuple(record(kind, ev, f"faults.{key}[{i}]")
                                     for i, ev in enumerate(evs))
        return record(
            cls, data, "faults", seed=int,
            channels=lambda chans: {
                cid: record(ChannelFaults, cf, f"faults.channels[{cid!r}]")
                for cid, cf in chans.items()},
            default=lambda d: None if d is None else record(
                ChannelFaults, d, "faults.default"),
            link_events=events(LinkEvent, "link_events"),
            node_events=events(NodeEvent, "node_events"))
