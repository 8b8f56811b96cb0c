"""The closed-form §3.3.1 pipeline model vs the full simulation."""

import pytest

from repro.analysis import fragment_time, predict_forwarding
from repro.bench import PingHarness
from repro.hw import GatewayParams, MYRINET, SBP, SCI


def test_fragment_time_components():
    t = fragment_time(MYRINET, 8192)
    assert t == pytest.approx(MYRINET.tx_overhead + MYRINET.latency
                              + (8192 + 16) / MYRINET.host_peak)


def test_fragment_time_rate_override():
    assert fragment_time(MYRINET, 8192, rate=33.0) > fragment_time(MYRINET, 8192)


@pytest.mark.parametrize("packet", [8 << 10, 32 << 10, 128 << 10])
def test_model_matches_simulation_sci_to_myri(packet):
    pred = predict_forwarding(SCI, MYRINET, packet)
    harness = PingHarness(packet_size=packet)
    measured = harness.measure(8 << 20, direction="b0->a0").bandwidth
    assert measured == pytest.approx(pred.bandwidth, rel=0.10)


@pytest.mark.parametrize("packet", [8 << 10, 32 << 10, 128 << 10])
def test_model_matches_simulation_myri_to_sci(packet):
    pred = predict_forwarding(MYRINET, SCI, packet)
    harness = PingHarness(packet_size=packet)
    measured = harness.measure(8 << 20, direction="a0->b0").bandwidth
    assert measured == pytest.approx(pred.bandwidth, rel=0.12)


def test_model_reproduces_direction_asymmetry():
    sm = predict_forwarding(SCI, MYRINET, 128 << 10)
    ms = predict_forwarding(MYRINET, SCI, 128 << 10)
    assert sm.bandwidth > 1.25 * ms.bandwidth
    # the asymmetry comes from the stretched send step specifically
    assert ms.send_us > ms.recv_us
    assert abs(sm.send_us - sm.recv_us) / sm.recv_us < 0.25


def test_model_overhead_term():
    fast = predict_forwarding(SCI, MYRINET, 64 << 10,
                              gateway=GatewayParams(switch_overhead=0.0))
    slow = predict_forwarding(SCI, MYRINET, 64 << 10,
                              gateway=GatewayParams(switch_overhead=160.0))
    assert slow.period_us - fast.period_us == pytest.approx(160.0)


def test_model_handles_non_pio_pairs():
    pred = predict_forwarding(SBP, SCI, 16 << 10)
    assert pred.bandwidth > 0


# -- pipeline disciplines in the closed form ---------------------------------

def test_lockstep_period_formula():
    from repro.hw import PipelineConfig
    pred = predict_forwarding(
        SCI, MYRINET, 64 << 10,
        gateway=GatewayParams(pipeline=PipelineConfig(depth=2)))
    assert pred.period_us == pytest.approx(
        max(pred.recv_us, pred.send_us) + GatewayParams().switch_overhead)


def test_credit_period_moves_overhead_off_critical_path():
    from repro.hw import PipelineConfig
    c = GatewayParams().switch_overhead
    pred = predict_forwarding(
        SCI, MYRINET, 64 << 10,
        gateway=GatewayParams(pipeline=PipelineConfig(depth=4)))
    assert pred.period_us == pytest.approx(
        max(pred.recv_us + c, pred.send_us))


def test_single_credit_is_store_and_forward():
    from repro.hw import PipelineConfig
    c = GatewayParams().switch_overhead
    for pipe in (PipelineConfig(depth=1),
                 PipelineConfig(depth=4, credits=1)):
        pred = predict_forwarding(SCI, MYRINET, 64 << 10,
                                  gateway=GatewayParams(pipeline=pipe))
        assert pred.period_us == pytest.approx(
            pred.recv_us + c + pred.send_us)


def test_discipline_ordering():
    """serial >= lockstep >= credit, at every fragment size."""
    from repro.hw import PipelineConfig
    def period(packet, depth):
        gateway = GatewayParams(pipeline=PipelineConfig(depth=depth))
        return predict_forwarding(SCI, MYRINET, packet,
                                  gateway=gateway).period_us

    for packet in (8 << 10, 32 << 10, 128 << 10):
        serial, lock, credit = (period(packet, d) for d in (1, 2, 4))
        assert serial >= lock >= credit


def test_credit_model_matches_simulation():
    """The max(recv + c, send) formula tracks the simulated credit
    pipeline the way the lockstep formula tracks the paper's."""
    from repro.hw import PipelineConfig
    gateway = GatewayParams(pipeline=PipelineConfig(depth=4))
    pred = predict_forwarding(SCI, MYRINET, 32 << 10, gateway=gateway)
    harness = PingHarness(packet_size=32 << 10, gateway_params=gateway)
    measured = harness.measure(8 << 20, direction="b0->a0").bandwidth
    assert measured == pytest.approx(pred.bandwidth, rel=0.10)


# -- multirail aggregate bandwidth --------------------------------------------

def test_multirail_validation_and_degenerate_case():
    from repro.analysis import predict_multirail
    with pytest.raises(ValueError, match="rails"):
        predict_multirail(MYRINET, SCI, 8 << 10, rails=0)
    one = predict_multirail(MYRINET, SCI, 8 << 10, rails=1)
    single = predict_forwarding(MYRINET, SCI, 8 << 10)
    # one rail is exactly the single-gateway pipeline, speedup 1
    assert one.aggregate == pytest.approx(single.bandwidth)
    assert one.speedup == pytest.approx(1.0)


def test_multirail_aggregate_bends_below_linear():
    from repro.analysis import predict_multirail
    two = predict_multirail(MYRINET, SCI, 8 << 10, rails=2)
    three = predict_multirail(MYRINET, SCI, 8 << 10, rails=3)
    assert 1.0 < two.speedup <= 2.0
    assert two.speedup < three.speedup < 3.0
    # diminishing returns: the end-host PCI fair share stretches each rail
    assert three.speedup / three.rails < two.speedup / two.rails


@pytest.mark.parametrize("rails", [1, 2, 3])
def test_multirail_model_matches_simulation(rails):
    from repro.analysis import predict_multirail
    from repro.bench import MultirailHarness
    from repro.routing import StripePolicy
    packet = 8 << 10
    message = 2 << 20
    pred = predict_multirail(MYRINET, SCI, packet, rails=rails,
                             message=message)
    policy = StripePolicy(max_rails=rails) if rails > 1 else None
    harness = MultirailHarness(packet_size=packet, rails=rails,
                               stripe_policy=policy)
    measured = harness.measure(message).bandwidth
    assert measured == pytest.approx(pred.bandwidth, rel=0.05)


def test_multirail_acceptance_gain():
    """Headline: dual-gateway striped bandwidth >= 1.7x single-rail at
    8 KB paquets."""
    from repro.bench import MultirailHarness
    from repro.routing import StripePolicy
    single = MultirailHarness(packet_size=8 << 10, rails=1)
    dual = MultirailHarness(packet_size=8 << 10, rails=2,
                            stripe_policy=StripePolicy(max_rails=2))
    bw1 = single.measure(2 << 20).bandwidth
    bw2 = dual.measure(2 << 20).bandwidth
    assert bw2 >= 1.7 * bw1
