"""Static-verification summary: WCET and admission per workload.

Not a paper table — a repo-native report that shows what the eBPF-style
lambda verifier (``repro.isa.verify``) proves about each built-in
workload, and what the admission policy does with it: the interactive
lambdas (web server, KV client) are admitted to the NIC well under the
1 ms SLO, while the image transformer is verified-correct but orders of
magnitude too slow for run-to-completion NPU cores and is rerouted to a
host backend.
"""

from __future__ import annotations

from typing import Optional

from ..serverless.admission import NIC_CLOCK_HZ, AdmissionError, AdmissionPolicy
from ..workloads import standard_workloads
from .calibration import DEFAULT_CONFIG, ExperimentConfig
from .harness import ExperimentReport

AVAILABLE_KINDS = ("lambda-nic", "bare-metal", "container")


def run(config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    config = config or DEFAULT_CONFIG
    policy = AdmissionPolicy()
    rows = []
    for name, spec in sorted(standard_workloads().items()):
        try:
            decision = policy.evaluate(spec, "lambda-nic",
                                       available_kinds=AVAILABLE_KINDS)
            outcome = decision.reason
            backend = decision.admitted_kind
            report = decision.report
        except AdmissionError as exc:
            outcome, backend = "rejected", "-"
            report = exc.report
        wcet = report.wcet_cycles
        rows.append([
            name,
            report.instruction_count,
            "ok" if report.ok else "rejected",
            len(report.warnings),
            wcet if wcet is not None else "unbounded",
            (f"{wcet / NIC_CLOCK_HZ * 1e6:.2f}"
             if wcet is not None else "-"),
            f"{outcome} -> {backend}",
        ])
    return ExperimentReport(
        experiment="verify",
        title="Static verification and NIC admission (repo-native)",
        headers=["workload", "instrs", "verifier", "warnings",
                 "wcet_cycles", "wcet_us", "admission"],
        rows=rows,
        notes=[
            f"NIC SLO {policy.nic_slo_seconds * 1e3:.1f} ms at "
            f"{NIC_CLOCK_HZ / 1e6:.0f} MHz; WCET from the interpreter's "
            "cycle model (loop bounds inferred statically).",
            "Admission: reasons are admitted / rerouted-wcet / "
            "rerouted-unbounded / rejected; reroutes pick the first "
            "available host backend.",
        ],
    )
