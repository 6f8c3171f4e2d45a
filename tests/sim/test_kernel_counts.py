"""Exact kernel work per request on three seeded closed loops.

The simulator is deterministic, so the number of events the kernel
schedules (``env._eid``) and the number of processes it starts over a
measured phase are exact figures, not samples. This gate pins them for
a warmed-up phase of each workload, so a change to the kernel or the
request path that adds or removes events has to update the figures on
purpose. A phase costs a fixed number per request plus, once, the
closed loop's own start-up and drain (:data:`PHASE`).
"""

from typing import List, Tuple

from repro.serverless import Testbed
from repro.serverless.loadgen import closed_loop, round_robin_closed_loop
from repro.sim import Environment
from repro.workloads import make_rgba_image, standard_workloads

CONCURRENCY = 4

#: (events, processes) a closed loop adds once per phase.
PHASE = (11, 5)


def per_phase(n: int, events: int, processes: int) -> Tuple[int, int]:
    """Totals for ``n`` requests at the given cost per request."""
    return events * n + PHASE[0], processes * n + PHASE[1]


def _testbed(backend: str, lambdas: Tuple[str, ...]) -> Testbed:
    specs = standard_workloads()
    tb = Testbed(seed=11, n_workers=1)
    tb.add_backend(backend)

    def deploy(env):
        for name in lambdas:
            yield tb.manager.deploy(specs[name], backend)

    tb.run(until=tb.env.process(deploy(tb.env)))
    return tb


def _measure(monkeypatch, tb: Testbed, start_load, warm: int,
             measured: int) -> Tuple[int, int]:
    """(events, processes) the kernel spent on ``measured`` requests."""
    tb.run(until=start_load(warm))
    started: List[int] = []
    process = Environment.process

    def counting(env, generator):
        started.append(1)
        return process(env, generator)

    monkeypatch.setattr(Environment, "process", counting)
    before = tb.env._eid
    load = start_load(measured)
    tb.run(until=load)
    monkeypatch.undo()
    results = load.value
    if isinstance(results, dict):
        results = results["__all__"]
    assert results.completed == measured and results.failures == 0
    return tb.env._eid - before, len(started)


def test_web_server_on_one_lambda_nic(monkeypatch):
    tb = _testbed("lambda-nic", ("web_server",))
    events, processes = _measure(
        monkeypatch, tb,
        lambda n: closed_loop(tb.env, tb.gateway, "web_server", n,
                              CONCURRENCY),
        warm=40, measured=200)
    assert (events, processes) == per_phase(200, events=25, processes=3)


def test_image_transformer_on_one_lambda_nic(monkeypatch):
    spec = standard_workloads()["image_transformer"]
    image = make_rgba_image(seed=5)
    assert spec.request_bytes == 1 << 20
    tb = _testbed("lambda-nic", ("image_transformer",))
    events, processes = _measure(
        monkeypatch, tb,
        lambda n: closed_loop(tb.env, tb.gateway, spec.name, n, CONCURRENCY,
                              payload=image,
                              payload_bytes=spec.request_bytes),
        warm=4, measured=4)
    # 1285 of the 1302 events are the wire: 257 packets, each with one
    # serialization and one propagation timeout per link and one
    # switching timeout.
    assert (events, processes) == per_phase(4, events=1302, processes=4)


def test_web_and_kv_on_containers(monkeypatch):
    tb = _testbed("container", ("web_server", "kv_client"))
    events, processes = _measure(
        monkeypatch, tb,
        lambda n: round_robin_closed_loop(
            tb.env, tb.gateway, ["web_server", "kv_client"], n, CONCURRENCY),
        warm=40, measured=200)
    assert (events, processes) == per_phase(200, events=52, processes=8)
