"""Following one request's packets through the testbed with obs spans."""

from repro.obs import spans_by_trace
from repro.serverless import Testbed, closed_loop
from repro.workloads import kv_client_spec


def test_tracer_flow_follows_request_through_testbed():
    """Trace a kv request: gateway -> NIC -> memcached -> NIC -> gateway."""
    tb = Testbed(seed=51, n_workers=1, with_tracing=True)
    tb.add_lambda_nic_backend()

    def scenario(env):
        yield tb.manager.deploy(kv_client_spec(), "lambda-nic")
        yield closed_loop(tb.env, tb.gateway, "kv_client", n_requests=1)

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)

    # The one request is one trace, rooted at the gateway (m1).
    (spans,) = spans_by_trace(tb.tracer.spans).values()
    spans.sort(key=lambda span: (span.start, span.span_id))
    assert spans[0].name == "gateway.request" and spans[0].node == "m1"

    # Each net.link span is named "src->dst": the receivers, in order,
    # show the NIC, then memcached, then the NIC again, and the
    # response coming back to the gateway.
    nic_name = tb.nics[0].name
    receivers = [span.node.split("->")[1] for span in spans
                 if span.name == "net.link"]
    hops = [node for node in receivers if node != "switch"]
    assert hops == [nic_name, "memcached", nic_name, "m1"]
    served = [(span.name, span.node) for span in spans
              if span.name in ("nic.serve", "kv.serve")]
    assert served == [("nic.serve", nic_name), ("kv.serve", "memcached"),
                      ("nic.serve", nic_name)]
