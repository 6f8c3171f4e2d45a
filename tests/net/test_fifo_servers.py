"""Queueing semantics of the link directions and the switch pipeline.

Each link direction and the switch are single FIFO servers. These tests
pin what that means at the edges: back-to-back service, a link cut
under a backlog, a partition raised while packets wait in the switch,
and the exact outcome of a seeded lossy fabric whose links share one
rng (so the order of their loss rolls is observable).
"""

import pytest

from repro.net import HeaderStack, Link, Network, Packet, UDPHeader
from repro.sim import Environment, RngRegistry


def make_packet(src, dst, payload_bytes=992):
    # 992 B of payload + 8 B UDP header = 1000 B = 8 us at 1 Gb/s.
    return Packet(src, dst, HeaderStack([UDPHeader()]),
                  payload_bytes=payload_bytes)


def at(env, when, action):
    """Run ``action()`` at simulated time ``when``."""
    def waiter():
        yield env.timeout(when - env.now)
        action()
    env.process(waiter())


def stamp(packet, location):
    times = [time for where, time in packet.trace if where == location]
    assert len(times) == 1, packet.trace
    return times[0]


def test_switch_is_one_fifo_server():
    env = Environment()
    latency = 5e-6
    network = Network(env, bandwidth_bps=1e9, propagation_delay=1e-6,
                      switching_latency=latency)
    delivered = []
    network.add_node("dst").attach(delivered.append)
    sources = [f"s{index}" for index in range(4)]
    for name in sources:
        network.add_node(name)
    for name in sources:
        network.send_from(name, make_packet(name, "dst"))
    env.run()

    # All four reach the switch together (8 us + 1 us) and leave it one
    # switching latency apart, in arrival order.
    arrived = 9e-6
    assert [packet.src for packet in delivered] == sources
    assert [stamp(packet, "switch") for packet in delivered] == \
        pytest.approx([arrived + k * latency for k in range(1, 5)])
    assert network.switch.stats.packets_forwarded == 4


def test_link_cut_under_backlog():
    env = Environment()
    link = Link(env, "a", "b", bandwidth_bps=1e9, propagation_delay=1e-6)
    received = []
    link.attach("b", lambda packet: received.append((packet.packet_id,
                                                     env.now)))
    first, *queued = [make_packet("a", "b") for _ in range(4)]
    for packet in [first, *queued]:
        link.send("a", packet)
    at(env, 4e-6, lambda: link.set_state(False))
    env.run()

    # The packet on the wire when the cable is cut still arrives; the
    # three behind it are dropped as they reach the head of the line.
    assert received == [(first.packet_id, pytest.approx(9e-6))]
    stats = link.stats("a")
    assert (stats.packets_sent, stats.packets_dropped,
            stats.packets_dropped_down) == (1, 3, 3)

    link.set_state(True)
    late = make_packet("a", "b")
    link.send("a", late)
    start = env.now
    env.run()
    assert received[-1] == (late.packet_id,
                            pytest.approx(start + 8e-6 + 1e-6))
    assert stats.packets_sent == 2


def test_partition_raised_while_packets_wait_in_the_switch():
    env = Environment()
    network = Network(env, bandwidth_bps=1e9, propagation_delay=1e-6,
                      switching_latency=5e-6)
    received = []
    for name in ["a", "b", "c"]:
        network.add_node(name).attach(
            lambda packet, name=name: received.append((name, packet.src)))
    network.send_from("a", make_packet("a", "c"))
    network.send_from("b", make_packet("b", "c"))
    network.send_from("a", make_packet("a", "b"))
    # a->c and b->c enter the switch at 9 us, a->b at 17 us; the
    # partition isolates c while a->c is still in the pipeline.
    at(env, 10e-6, lambda: network.partition(["a", "b"], ["c"]))
    env.run()

    assert received == [("b", "a")]
    stats = network.switch.stats
    assert (stats.packets_dropped_partition, stats.packets_forwarded) == \
        (2, 1)


#: (receiver, packet id, source, times stamped at the source, on the
#: uplink, at the switch and on the downlink) for every packet the
#: lossy fabric below delivers. They were recorded when links and the
#: switch were processes reading stores, so they pin that the FIFO
#: servers draw the shared loss rolls in the same order. The times are
#: exact floats.
LOSSY_DELIVERIES = [
    ("a", 7, "b", (0.0, 9e-06, 1.3e-05, 2.2e-05)),
    ("a", 14, "c", (0.0, 9e-06, 1.4999999999999999e-05, 3e-05)),
    ("a", 8, "b", (0.0, 1.7e-05, 2.1000000000000002e-05,
                   3.7999999999999995e-05)),
    ("b", 17, "c", (0.0, 2.5e-05, 3.1e-05, 3.9999999999999996e-05)),
    ("c", 10, "b", (0.0, 3.2999999999999996e-05, 3.5e-05,
                    4.399999999999999e-05)),
    ("a", 9, "b", (0.0, 2.5e-05, 2.9000000000000004e-05,
                   4.599999999999999e-05)),
    ("b", 18, "c", (0.0, 3.2999999999999996e-05, 3.7e-05,
                    4.7999999999999994e-05)),
    ("c", 6, "a", (0.0, 3.2999999999999996e-05, 3.9e-05,
                   5.199999999999999e-05)),
    ("a", 31, "c", (3e-05, 4.0999999999999994e-05, 4.4999999999999996e-05,
                    5.399999999999999e-05)),
    ("b", 19, "a", (3e-05, 4.0999999999999994e-05, 4.7e-05,
                    5.599999999999999e-05)),
    ("c", 11, "b", (0.0, 4.0999999999999994e-05, 4.2999999999999995e-05,
                    5.999999999999999e-05)),
    ("a", 32, "c", (3e-05, 4.899999999999999e-05, 5.2999999999999994e-05,
                    6.199999999999999e-05)),
    ("c", 12, "b", (0.0, 4.899999999999999e-05, 5.099999999999999e-05,
                    6.799999999999999e-05)),
    ("a", 26, "b", (3e-05, 5.699999999999999e-05, 6.099999999999999e-05,
                    7e-05)),
    ("a", 27, "b", (3e-05, 6.5e-05, 6.899999999999998e-05, 7.8e-05)),
    ("c", 28, "b", (3e-05, 7.3e-05, 7.699999999999999e-05,
                    8.599999999999999e-05)),
    ("c", 24, "a", (3e-05, 8.1e-05, 8.3e-05, 9.4e-05)),
    ("c", 29, "b", (3e-05, 8.1e-05, 8.499999999999999e-05, 0.000102)),
]


def test_seeded_lossy_fabric_repeats_the_recorded_run():
    env = Environment()
    rng = RngRegistry(seed=7).stream("fabric")
    network = Network(env, bandwidth_bps=1e9, propagation_delay=1e-6,
                      switching_latency=2e-6, drop_probability=0.3, rng=rng)
    names = ["a", "b", "c"]
    delivered = []
    for name in names:
        network.add_node(name).attach(
            lambda packet, name=name: delivered.append((name, packet)))

    def burst():
        # Every node sends three packets to each other node at once:
        # equal sizes make serializations end at the same instants, so
        # the links' shared loss rolls interleave.
        for src in names:
            for dst in names:
                if dst != src:
                    for _ in range(3):
                        network.send_from(src, make_packet(src, dst))

    at(env, 0.0, burst)
    at(env, 30e-6, burst)
    env.run()

    expected = [
        (dst, packet_id,
         ((src, times[0]), (f"{src}->switch", times[1]),
          ("switch", times[2]), (f"switch->{dst}", times[3])))
        for dst, packet_id, src, times in LOSSY_DELIVERIES
    ]
    assert [(name, packet.packet_id, tuple(packet.trace))
            for name, packet in delivered] == expected
