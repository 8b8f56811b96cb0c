"""A known-bad gateway for the fuzzer's self-tests."""

import pytest

from repro.madeleine import gateway
from repro.sim import GatewayCrashed


def _leaky_credit_sender(self, handoff, gate, in_tm, out_tm, next_rank,
                         announce):
    """The credit pipeline's send thread without its credit return: every
    forwarded item keeps its credit, so the credit-leak invariant has a
    planted fault to catch."""
    try:
        while True:
            item = yield handoff.get()
            if item is None:
                return False
            yield from self._transmit_item(item, in_tm, out_tm, next_rank,
                                           announce)
            if item.last:
                return True
    except (gateway._Stalled, GatewayCrashed):
        self._abandon_transmit(out_tm, announce)
        return False


@pytest.fixture
def leaky_gateway(monkeypatch):
    monkeypatch.setattr(gateway.ForwardingWorker, "_credit_sender",
                        _leaky_credit_sender)
