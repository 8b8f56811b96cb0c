"""Frozen reference for :func:`repro.solver.solve`: the same fluid epochs,
each re-solved from scratch.

At every arrival or completion this loop re-solves *all* live rails with
the global :func:`~repro.solver.max_min_rates` oracle and settles every
rail: no finish heap, no contention components, no rail left unsettled.
``solve()`` must predict the same finish times and resource utilizations
up to float reassociation.
Do not optimise this file; its whole value is that it stays the plain loop.
"""

import math

from repro.solver import max_min_rates
from repro.solver.network import SolverNetwork
from repro.traffic import scenario_flows

DRAINED = 1e-6       # bytes: a rail with less left has finished
SAME_INSTANT = 1e-9  # µs: a rail starting this close to `now` starts with it


def reference_solve(scenario, node_params=None,
                    gateway_params=None) -> tuple[dict, dict]:
    """``(finish, utilization)``: application flow index -> finish time
    (µs) of its last rail, and resource key -> mean utilization over the
    run (allocated ÷ capacity), the shapes of :class:`SolverResult`."""
    net = SolverNetwork(scenario, node_params=node_params,
                        gateway_params=gateway_params)
    caps = {key: net.resources[key].capacity for key in net.res_keys()}
    pending = []
    for f in scenario_flows(scenario):
        pending.extend(net.routed_flows(f.index, f.src, f.dst, f.nbytes,
                                        arrival=f.arrival))
    pending.sort(key=lambda r: (r.arrival + r.setup_us, r.id), reverse=True)
    live: dict = {}      # rail id -> [RoutedFlow, bytes left at `now`]
    rate: dict = {}
    finish: dict = {}
    carried = dict.fromkeys(caps, 0.0)     # resource key -> bytes moved
    now = 0.0
    while pending or live:
        t = min([now + rem / rate[rid] for rid, (_rf, rem) in live.items()],
                default=math.inf)
        if pending:
            t = min(t, pending[-1].arrival + pending[-1].setup_us)
        for rid, entry in live.items():
            entry[1] -= rate[rid] * (t - now)
            for key, w in entry[0].footprint:
                carried[key] += rate[rid] * w * (t - now)
        now = t
        for rid in [rid for rid, (_rf, rem) in live.items() if rem <= DRAINED]:
            finish[rid] = now
            del live[rid]
        while pending and (pending[-1].arrival + pending[-1].setup_us
                           <= now + SAME_INSTANT):
            rf = pending.pop()
            if rf.nbytes <= 0:
                finish[rf.id] = now
            else:
                live[rf.id] = [rf, float(rf.nbytes)]
        rate = max_min_rates([rf for rf, _rem in live.values()], caps)
    out: dict = {}
    for (index, _rail), t in finish.items():
        out[index] = max(t, out.get(index, t))
    duration = max(finish.values(), default=0.0)
    return out, {key: carried[key] / (caps[key] * duration) if duration
                 else 0.0 for key in caps}
