"""The declarative scenario schema: one experiment, fully pinned.

A :class:`Scenario` pins *everything* a run depends on — topology shape,
virtual-channel configuration, traffic (an explicit message list and/or a
generated :class:`TrafficSpec`) and the seeded fault schedule — so the
same scenario dict always replays the same simulated microseconds.
Channel and node names are deterministic functions of the
topology, which is what lets a fault plan in a corpus file name its targets
portably.

Benches, the fuzzer, the chaos harness, and the traffic engine all consume
this one format (``repro bench --scenario`` / ``repro fuzz --replay`` /
``Session.from_scenario``).

Five topology families:

* ``chain`` — 2..3 homogeneous clusters bridged by 1..2 parallel gateways
  per boundary (the cluster-of-clusters testbed, §3);
* ``multirail`` — two endpoints joined by N disjoint rails through N
  gateways (the striping/multirail layouts);
* ``hierarchy`` — an N-cluster chain with any number of parallel gateways
  per boundary (generated; scales to hundreds of nodes);
* ``fat_tree`` — a leaf/spine network, one rail per spine plane (generated);
* ``torus`` — a 2D/3D torus direct network à la APEnet+ (generated; set
  ``dims``).

Every family's node/channel layout comes from :mod:`repro.hw.topogen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Optional, Tuple

from ..faults import FaultPlan
from ..hw.params import PROTOCOLS, PipelineConfig

__all__ = ["MessageSpec", "TrafficSpec", "Topology", "Scenario",
           "SCENARIO_VERSION", "TRAFFIC_PATTERNS"]

SCENARIO_VERSION = 1

#: traffic-engine arrival patterns (see :mod:`repro.traffic`).
TRAFFIC_PATTERNS = ("uniform", "permutation", "hotspot", "incast")


@lru_cache(maxsize=128)
def _generated(topo: "Topology"):
    """Lay a topology out (cached per frozen Topology)."""
    from ..hw import topogen
    if topo.kind == "chain":
        return topogen.chain(topo.protocols, topo.sizes, topo.gateways)
    if topo.kind == "multirail":
        return topogen.multirail(topo.protocols, topo.rails)
    if topo.kind == "torus":
        return topogen.torus(topo.dims, topo.protocols[0])
    if topo.kind == "fat_tree":
        leaves, hosts = topo.sizes
        return topogen.fat_tree(
            leaves=leaves, spines=topo.gateways[0], hosts_per_leaf=hosts,
            leaf_protocol=topo.protocols[0],
            spine_protocol=topo.protocols[1])
    if topo.kind == "hierarchy":
        clusters, size = topo.sizes
        return topogen.hierarchy(
            clusters=clusters, cluster_size=size,
            gateways_per_boundary=topo.gateways[0],
            protocols=topo.protocols)
    raise ValueError(f"unknown topology kind {topo.kind!r}")


@dataclass(frozen=True)
class MessageSpec:
    """One application transfer. ``kind`` is ``reliable`` (go-back-N over
    the fault layer) or ``plain`` (raw pack/unpack; only valid on a
    fault-free scenario, where Madeleine's reliable-network assumption
    holds)."""

    src: str
    dst: str
    nbytes: int
    kind: str = "reliable"

    def __post_init__(self) -> None:
        if self.nbytes < 1:
            raise ValueError(f"message nbytes must be >= 1, got {self.nbytes}")
        if self.kind not in ("reliable", "plain"):
            raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass(frozen=True)
class TrafficSpec:
    """Generated traffic: open-loop Poisson flow arrivals over a pattern.

    The traffic engine (:mod:`repro.traffic`) expands this into concrete
    flows at run time, deterministically from the scenario seed:

    * ``uniform`` — source and destination drawn uniformly per flow;
    * ``permutation`` — a fixed random endpoint permutation, flow *i* goes
      src[i mod n] → perm(src);
    * ``hotspot`` — a ``hotspot_fraction`` of flows all target one hot
      endpoint, the rest are uniform;
    * ``incast`` — every flow targets the single sink endpoint (the
      many-to-one burst that stresses gateway queues).
    """

    pattern: str = "uniform"
    #: total flows launched over the run.
    flows: int = 32
    #: mean of the exponential inter-arrival gap, µs (open-loop Poisson).
    mean_interarrival: float = 200.0
    #: flow size in bytes; with ``size_jitter`` j > 0, sizes are drawn
    #: uniformly from [size·(1−j), size·(1+j)].
    size: int = 64 << 10
    size_jitter: float = 0.0
    #: fraction of flows aimed at the hot endpoint (hotspot pattern only).
    hotspot_fraction: float = 0.5
    #: transfer kind for generated flows ("plain" | "reliable").
    kind: str = "plain"

    def __post_init__(self) -> None:
        if self.pattern not in TRAFFIC_PATTERNS:
            raise ValueError(f"unknown traffic pattern {self.pattern!r}; "
                             f"expected one of {TRAFFIC_PATTERNS}")
        if self.flows < 1:
            raise ValueError(f"flows must be >= 1, got {self.flows}")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be > 0")
        if self.size < 1:
            raise ValueError(f"flow size must be >= 1, got {self.size}")
        if not 0.0 <= self.size_jitter < 1.0:
            raise ValueError("size_jitter must be in [0, 1)")
        if not 0.0 < self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in (0, 1]")
        if self.kind not in ("reliable", "plain"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"pattern": self.pattern, "flows": self.flows,
                "mean_interarrival": self.mean_interarrival,
                "size": self.size, "size_jitter": self.size_jitter,
                "hotspot_fraction": self.hotspot_fraction, "kind": self.kind}

    @classmethod
    def from_dict(cls, d: Mapping) -> "TrafficSpec":
        return cls(pattern=d.get("pattern", "uniform"),
                   flows=int(d.get("flows", 32)),
                   mean_interarrival=float(d.get("mean_interarrival", 200.0)),
                   size=int(d.get("size", 64 << 10)),
                   size_jitter=float(d.get("size_jitter", 0.0)),
                   hotspot_fraction=float(d.get("hotspot_fraction", 0.5)),
                   kind=d.get("kind", "plain"))


@dataclass(frozen=True)
class Topology:
    """Deterministic topology shape; all names derive from these fields."""

    kind: str                        # chain|multirail|hierarchy|fat_tree|torus
    protocols: Tuple[str, ...]       # meaning is per-kind, see below
    sizes: Tuple[int, ...] = ()      # endpoints per cluster (chain),
    #                                # (clusters, cluster_size) for hierarchy,
    #                                # (leaves, hosts_per_leaf) for fat_tree
    gateways: Tuple[int, ...] = ()   # per boundary (chain) / (rails,) count /
    #                                # (gateways_per_boundary,) / (spines,)
    dims: Tuple[int, ...] = ()       # torus only: 2 or 3 dimension sizes

    def __post_init__(self) -> None:
        unknown = [p for p in self.protocols if p not in PROTOCOLS]
        if unknown:
            raise ValueError(f"unknown protocols {unknown}")
        if self.kind != "torus" and self.dims:
            raise ValueError("dims is only valid for the torus kind")
        if self.kind == "chain":
            if not 2 <= len(self.protocols) <= 3:
                raise ValueError("chain needs 2..3 clusters")
            if len(self.sizes) != len(self.protocols):
                raise ValueError("one size per cluster")
            if len(self.gateways) != len(self.protocols) - 1:
                raise ValueError("one gateway count per boundary")
            if any(s < 1 for s in self.sizes):
                raise ValueError("cluster sizes must be >= 1")
            if any(not 1 <= g <= 2 for g in self.gateways):
                raise ValueError("1..2 gateways per boundary")
            for a, b in zip(self.protocols, self.protocols[1:]):
                if a == b:
                    raise ValueError(
                        f"adjacent clusters must differ in protocol ({a!r})")
        elif self.kind == "multirail":
            if len(self.protocols) != 2 or len(set(self.protocols)) != 2:
                raise ValueError("multirail needs two distinct protocols")
            if len(self.gateways) != 1 or not 2 <= self.gateways[0] <= 3:
                raise ValueError("multirail needs 2..3 rails")
        elif self.kind == "hierarchy":
            if len(self.protocols) < 1:
                raise ValueError("hierarchy needs at least one protocol")
            if len(self.sizes) != 2 or any(s < 1 for s in self.sizes):
                raise ValueError(
                    "hierarchy sizes must be (clusters, cluster_size)")
            if len(self.gateways) != 1 or self.gateways[0] < 1:
                raise ValueError(
                    "hierarchy gateways must be (gateways_per_boundary,)")
        elif self.kind == "fat_tree":
            if len(self.protocols) != 2:
                raise ValueError(
                    "fat_tree needs (leaf_protocol, spine_protocol)")
            if len(self.sizes) != 2 or any(s < 1 for s in self.sizes):
                raise ValueError(
                    "fat_tree sizes must be (leaves, hosts_per_leaf)")
            if len(self.gateways) != 1 or self.gateways[0] < 1:
                raise ValueError("fat_tree gateways must be (spines,)")
        elif self.kind == "torus":
            if len(self.protocols) != 1:
                raise ValueError("torus uses exactly one protocol")
            if self.sizes or self.gateways:
                raise ValueError("torus is shaped by dims, not sizes/gateways")
            if len(self.dims) not in (2, 3) or any(d < 2 for d in self.dims):
                raise ValueError(
                    f"torus dims must be 2-3 sizes >= 2, got {self.dims!r}")
        else:
            raise ValueError(f"unknown topology kind {self.kind!r}")

    # -- derived names -----------------------------------------------------------
    @property
    def rails(self) -> int:
        return self.gateways[0]

    @property
    def generated(self):
        """The :class:`~repro.hw.topogen.GeneratedTopology` laying this
        shape out: node order (= ranks), names, channels, NIC indices."""
        return _generated(self)

    @property
    def has_parallel_routes(self) -> bool:
        """True when at least one endpoint pair has ≥ 2 disjoint routes
        (what multirail dispatch and striping need)."""
        if self.kind == "multirail" or self.kind == "torus":
            return True
        if self.kind == "chain":
            return any(g >= 2 for g in self.gateways)
        return self.gateways[0] >= 2    # hierarchy / fat_tree

    def endpoint_names(self) -> list[str]:
        return list(self.generated.endpoints)

    def gateway_names(self) -> list[str]:
        return list(self.generated.gateways)

    def channel_names(self) -> list[str]:
        return [c.name for c in self.generated.channels]

    def node_spec(self) -> dict[str, list[str]]:
        """The ``build_world`` adapter mapping."""
        return self.generated.node_spec()

    def channel_specs(self) -> list[tuple[str, str, list[str], dict]]:
        """``(name, protocol, members, adapter_index)`` per real channel."""
        return self.generated.channel_specs()

    @property
    def n_nodes(self) -> int:
        return self.generated.node_count

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "protocols": list(self.protocols),
             "sizes": list(self.sizes), "gateways": list(self.gateways)}
        if self.dims:
            d["dims"] = list(self.dims)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "Topology":
        return cls(kind=d["kind"], protocols=tuple(d["protocols"]),
                   sizes=tuple(d.get("sizes", ())),
                   gateways=tuple(d.get("gateways", ())),
                   dims=tuple(d.get("dims", ())))


@dataclass(frozen=True)
class Scenario:
    """Everything one run depends on, JSON/YAML round-trippable."""

    seed: int
    topology: Topology
    packet_size: int = 16 << 10
    header_batching: bool = False
    multirail: bool = False
    #: (depth, credits, lockstep) for the gateway pipeline; None = default.
    pipeline: Optional[Tuple[int, int, bool]] = None
    #: (max_rails, min_stripe) striping policy; None = no striping.
    stripe: Optional[Tuple[int, int]] = None
    #: (eager_threshold, restripe_high, restripe_low, gateway_balance)
    #: adaptive transport policy (docs/adaptive.md); None = static wire
    #: decisions, bit-identical to pre-adaptive runs.
    adaptive: Optional[Tuple[int, float, float, bool]] = None
    messages: Tuple[MessageSpec, ...] = ()
    #: generated traffic on top of (or instead of) the explicit messages.
    traffic: Optional[TrafficSpec] = None
    faults: FaultPlan = field(default_factory=FaultPlan)
    max_attempts: int = 8
    gw_stall_timeout: Optional[float] = 5_000.0

    # -- sanity -------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ValueError` on an internally inconsistent scenario
        (names that don't exist, plain traffic under faults, plain and
        reliable transfers mixed, ...)."""
        topo = self.topology
        endpoints = set(topo.endpoint_names())
        gateways = set(topo.gateway_names())
        channels = set(topo.channel_names())
        problems = []
        if self.packet_size < 1 << 10:
            problems.append(f"packet_size too small: {self.packet_size}")
        if not self.messages and self.traffic is None:
            problems.append("scenario has no traffic")
        for m in self.messages:
            for end in (m.src, m.dst):
                if end not in endpoints:
                    problems.append(f"message endpoint {end!r} is not an "
                                    f"endpoint node (have {sorted(endpoints)})")
            if m.src == m.dst:
                problems.append(f"message {m.src!r}->{m.dst!r} is a loopback")
            if m.kind == "plain" and not self.quiet:
                problems.append("plain traffic requires a fault-free plan")
        if self.traffic is not None:
            if self.traffic.kind == "plain" and not self.quiet:
                problems.append("plain traffic requires a fault-free plan")
            if len(endpoints) < 2:
                problems.append("generated traffic needs >= 2 endpoints")
        kinds = {m.kind for m in self.messages}
        if self.traffic is not None:
            kinds.add(self.traffic.kind)
        if len(kinds) > 1:
            problems.append(
                f"messages and traffic mix kinds {sorted(kinds)}: a "
                f"ReliableEndpoint owns its rank's whole incoming stream, "
                f"so a scenario is all plain or all reliable")
        for cid in self.faults.channels:
            if cid not in channels:
                problems.append(f"fault plan names unknown channel {cid!r}")
        for ev in self.faults.link_events:
            if ev.channel not in channels:
                problems.append(f"link event names unknown channel "
                                f"{ev.channel!r}")
        for ev in self.faults.node_events:
            if ev.node not in gateways:
                # Endpoint crashes make delivery legitimately impossible in
                # ways the invariant catalog cannot distinguish from bugs;
                # the fuzzer only crashes forwarding nodes.
                problems.append(f"node event target {ev.node!r} is not a "
                                f"gateway (have {sorted(gateways)})")
        if self.pipeline is not None:
            depth, credits, lockstep = self.pipeline
            if lockstep and depth != 2:
                problems.append("lockstep pipeline must have depth 2")
            if not 1 <= credits <= depth:
                problems.append(f"credits {credits} outside [1, {depth}]")
        if self.stripe is not None and not topo.has_parallel_routes:
            problems.append("striping requires a topology with parallel "
                            "routes")
        if self.adaptive is not None:
            eager, high, low, _balance = self.adaptive
            if eager < 0:
                problems.append(f"adaptive eager threshold must be >= 0, "
                                f"got {eager}")
            if low < 1.0 or high <= low:
                problems.append(f"adaptive re-stripe hysteresis needs "
                                f"high > low >= 1, got ({high}, {low})")
        if self.multirail and not topo.has_parallel_routes:
            problems.append("multirail dispatch requires parallel routes")
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    @property
    def quiet(self) -> bool:
        """True when the fault plan injects nothing at all."""
        f = self.faults
        return (not f.link_events and not f.node_events
                and (f.default is None or f.default.quiet)
                and all(cf.quiet for cf in f.channels.values()))

    # -- the policy tuples, as the objects the stack takes ---------------------------
    @property
    def pipeline_config(self) -> Optional[PipelineConfig]:
        if self.pipeline is None:
            return None
        depth, credits, lockstep = self.pipeline
        return PipelineConfig(depth=depth, credits=credits, lockstep=lockstep)

    @property
    def stripe_policy(self):
        """The :class:`~repro.routing.StripePolicy`, or None."""
        if self.stripe is None:
            return None
        from ..routing import StripePolicy
        max_rails, min_stripe = self.stripe
        return StripePolicy(max_rails=max_rails, min_stripe=min_stripe)

    @property
    def transport_policy(self):
        """The :class:`~repro.madeleine.TransportPolicy`, or None."""
        if self.adaptive is None:
            return None
        from ..madeleine.adaptive import TransportPolicy
        eager, high, low, balance = self.adaptive
        return TransportPolicy(eager_threshold=eager, restripe_high=high,
                               restripe_low=low, gateway_balance=balance)

    @property
    def n_fault_events(self) -> int:
        return len(self.faults.link_events) + len(self.faults.node_events)

    def with_(self, **kw) -> "Scenario":
        """`dataclasses.replace` spelled as a method (minimizer passes)."""
        return replace(self, **kw)

    # -- serialization ------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": SCENARIO_VERSION,
            "seed": self.seed,
            "topology": self.topology.to_dict(),
            "packet_size": self.packet_size,
            "header_batching": self.header_batching,
            "multirail": self.multirail,
            "pipeline": list(self.pipeline) if self.pipeline else None,
            "stripe": list(self.stripe) if self.stripe else None,
            "adaptive": list(self.adaptive) if self.adaptive else None,
            "messages": [{"src": m.src, "dst": m.dst, "nbytes": m.nbytes,
                          "kind": m.kind} for m in self.messages],
            "traffic": self.traffic.to_dict() if self.traffic else None,
            "faults": self.faults.to_dict(),
            "max_attempts": self.max_attempts,
            "gw_stall_timeout": self.gw_stall_timeout,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Scenario":
        version = d.get("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version {version}")
        pipeline = d.get("pipeline")
        stripe = d.get("stripe")
        adaptive = d.get("adaptive")
        traffic = d.get("traffic")
        return cls(
            seed=int(d["seed"]),
            topology=Topology.from_dict(d["topology"]),
            packet_size=int(d.get("packet_size", 16 << 10)),
            header_batching=bool(d.get("header_batching", False)),
            multirail=bool(d.get("multirail", False)),
            pipeline=None if pipeline is None else (int(pipeline[0]),
                                                    int(pipeline[1]),
                                                    bool(pipeline[2])),
            stripe=None if stripe is None else (int(stripe[0]),
                                                int(stripe[1])),
            adaptive=None if adaptive is None else (int(adaptive[0]),
                                                    float(adaptive[1]),
                                                    float(adaptive[2]),
                                                    bool(adaptive[3])),
            messages=tuple(MessageSpec(**m) for m in d.get("messages", ())),
            traffic=None if traffic is None else TrafficSpec.from_dict(
                traffic),
            faults=FaultPlan.from_dict(d.get("faults", {})),
            max_attempts=int(d.get("max_attempts", 8)),
            gw_stall_timeout=d.get("gw_stall_timeout"),
        )

    def describe(self) -> str:
        """One line for progress output."""
        topo = self.topology
        shape = (f"{topo.kind}[{'+'.join(topo.protocols)}"
                 + (f" dims={list(topo.dims)}" if topo.dims
                    else f" gw={list(topo.gateways)}") + "]")
        knobs = []
        if self.pipeline:
            knobs.append(f"pipe={self.pipeline[0]}/{self.pipeline[1]}"
                         + ("L" if self.pipeline[2] else ""))
        if self.stripe:
            knobs.append(f"stripe<={self.stripe[0]}")
        if self.adaptive:
            knobs.append(f"adapt(e={self.adaptive[0]}"
                         + (",gb" if self.adaptive[3] else "") + ")")
        if self.multirail:
            knobs.append("multirail")
        if self.header_batching:
            knobs.append("batch")
        traffic = (f" traffic={self.traffic.pattern}x{self.traffic.flows}"
                   if self.traffic else "")
        return (f"seed={self.seed} {shape} msgs={len(self.messages)}"
                f"{traffic} faults={self.n_fault_events}ev"
                f"{' ' + ' '.join(knobs) if knobs else ''}")
