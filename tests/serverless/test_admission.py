"""Verifier-backed admission control at the workload manager.

Under the default 1 ms NIC SLO the paper's interactive workloads
(web_server ~13.5 us, kv_client ~0.5 us WCET) are admitted to the NIC,
while image_transformer (~31 ms WCET at 633 MHz) is verified-correct
but too slow for run-to-completion cores — it must transparently land
on a host backend. Programs with error-grade findings are rejected
before anything is packaged or flashed.
"""

import pytest

from repro.isa import ExecutionError, Interpreter
from repro.serverless import (
    AdmissionError,
    AdmissionPolicy,
    NIC_CLOCK_HZ,
    Testbed,
)
from repro.workloads import (
    WorkloadSpec,
    image_transformer_spec,
    kv_client_spec,
    web_server_spec,
)
from repro.workloads.webserver import web_server_host


def buggy_nic_program(name="buggy"):
    """Reads r3 without initializing it — an error-grade finding."""
    from repro.isa import ProgramBuilder

    builder = ProgramBuilder(name)
    fn = builder.function(name)
    fn.add("r0", "r3", 1)
    fn.ret("r0")
    builder.close(fn)
    return builder.build()


def buggy_spec(name="buggy"):
    return WorkloadSpec(
        name=name,
        kind="web",
        nic_factory=lambda name=name: buggy_nic_program(name),
        host_factory=web_server_host,
    )


# -- pure policy -------------------------------------------------------------


def test_interactive_workloads_admitted_to_nic():
    policy = AdmissionPolicy()
    for spec in (web_server_spec(), kv_client_spec()):
        decision = policy.evaluate(spec, "lambda-nic",
                                   available_kinds=("lambda-nic",))
        assert decision.reason == "admitted"
        assert decision.admitted_kind == "lambda-nic"
        assert not decision.rerouted
        assert decision.wcet_seconds < policy.nic_slo_seconds
        assert decision.report is not None and decision.report.ok


def test_slow_workload_rerouted_to_host():
    policy = AdmissionPolicy()
    decision = policy.evaluate(
        image_transformer_spec(), "lambda-nic",
        available_kinds=("lambda-nic", "bare-metal", "container"),
    )
    assert decision.reason == "rerouted-wcet"
    assert decision.admitted_kind == "bare-metal"
    assert decision.rerouted
    assert decision.wcet_seconds > policy.nic_slo_seconds


def test_slow_workload_without_fallback_rejected():
    policy = AdmissionPolicy()
    with pytest.raises(AdmissionError, match="exceeds the"):
        policy.evaluate(image_transformer_spec(), "lambda-nic",
                        available_kinds=("lambda-nic",))


def test_buggy_workload_rejected_with_report():
    policy = AdmissionPolicy()
    with pytest.raises(AdmissionError, match="failed verification") as info:
        policy.evaluate(buggy_spec(), "lambda-nic",
                        available_kinds=("lambda-nic", "bare-metal"))
    report = info.value.report
    assert report is not None and not report.ok
    assert any(f.code == "uninit-read" for f in report.errors)


def test_host_deploys_bypass_verification():
    decision = AdmissionPolicy().evaluate(buggy_spec(), "container")
    assert decision.reason == "not-nic"
    assert decision.admitted_kind == "container"
    assert decision.report is None


def test_raising_the_slo_admits_the_image_workload():
    policy = AdmissionPolicy(nic_slo_seconds=0.1)
    decision = policy.evaluate(image_transformer_spec(), "lambda-nic",
                               available_kinds=("lambda-nic",))
    assert decision.reason == "admitted"
    # Sanity: the WCET is ~31 ms at the NIC clock.
    assert 0.01 < decision.wcet_seconds < 0.1
    assert NIC_CLOCK_HZ == pytest.approx(633e6)


# -- wired into the workload manager ----------------------------------------


def admission_testbed(seed=21, **policy_kwargs):
    tb = Testbed(
        seed=seed,
        manager_kwargs={"admission": AdmissionPolicy(**policy_kwargs)},
    )
    tb.add_lambda_nic_backend()
    tb.add_bare_metal_backend()
    return tb


def test_manager_admits_interactive_workload_to_nic():
    tb = admission_testbed()

    def scenario(env):
        record = yield tb.manager.deploy(web_server_spec(), "lambda-nic")
        return record

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    record = process.value
    assert record.backend_kind == "lambda-nic"
    assert record.admission is not None
    assert record.admission.reason == "admitted"
    assert tb.manager.admission_total.total == 1


def test_manager_reroutes_slow_workload_to_host():
    tb = admission_testbed()

    def scenario(env):
        record = yield tb.manager.deploy(
            image_transformer_spec(), "lambda-nic"
        )
        return record

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    record = process.value
    # Asked for the NIC, landed on the host — transparently.
    assert record.admission.requested_kind == "lambda-nic"
    assert record.backend_kind == "bare-metal"
    assert record.home_backend == "bare-metal"
    assert record.admission.reason == "rerouted-wcet"
    # The NIC never saw the workload.
    assert all(nic.firmware is None for nic in tb.nics)


def test_manager_rejects_buggy_workload_before_deploying():
    tb = admission_testbed()

    def scenario(env):
        with pytest.raises(AdmissionError):
            yield tb.manager.deploy(buggy_spec(), "lambda-nic")

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    assert "buggy" not in tb.manager.deployments
    assert all(nic.firmware is None for nic in tb.nics)
    assert tb.manager.admission_total.total == 1


def test_manager_without_policy_is_unchanged():
    tb = Testbed(seed=22)
    tb.add_lambda_nic_backend()

    def scenario(env):
        record = yield tb.manager.deploy(
            image_transformer_spec(), "lambda-nic"
        )
        return record

    process = tb.env.process(scenario(tb.env))
    tb.run(until=process)
    record = process.value
    assert record.backend_kind == "lambda-nic"
    assert record.admission is None


# -- interval-proven faults --------------------------------------------------


def interval_flagged_nic_program(name="flagged"):
    """Constant propagation cannot pin the offset; the interval pass
    proves it entirely out of bounds."""
    from repro.isa import ProgramBuilder

    builder = ProgramBuilder(name)
    builder.object("small", 8)
    fn = builder.function(name)
    fn.hload("r1", "LambdaHeader", "request_id")
    fn.hash("r2", "r1")
    fn.band("r2", "r2", 7)
    fn.add("r2", "r2", 64)  # proven range [64, 71] into 8 B
    fn.load("r0", "small", "r2")
    fn.ret("r0")
    builder.close(fn)
    return builder.build()


def interval_flagged_spec(name="flagged"):
    return WorkloadSpec(
        name=name,
        kind="web",
        nic_factory=lambda name=name: interval_flagged_nic_program(name),
        host_factory=web_server_host,
    )


def test_interval_proven_fault_is_rejected():
    """A lambda the interval pass proves out of bounds is never
    admitted: the reference interpreter faults on it every time."""
    with pytest.raises(AdmissionError) as excinfo:
        AdmissionPolicy().evaluate(interval_flagged_spec(), "lambda-nic",
                                   available_kinds=("lambda-nic",))
    assert excinfo.value.report.errors[0].code == "oob-load"
    program = interval_flagged_nic_program()
    for request_id in (0, 1, 12345):
        with pytest.raises(ExecutionError, match="load out of bounds"):
            Interpreter().run(
                program, headers={"LambdaHeader": {"request_id": request_id}})


def test_guard_does_not_mask_genuine_errors():
    """Bugs constant propagation alone finds still reject."""
    with pytest.raises(AdmissionError):
        AdmissionPolicy().evaluate(buggy_spec(), "lambda-nic",
                                   available_kinds=("lambda-nic",))
