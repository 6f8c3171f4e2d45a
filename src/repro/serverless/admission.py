"""Verifier-backed admission control for NIC deployments.

λ-NIC shares NPU cores between tenants with run-to-completion
scheduling, so a lambda that faults, loops forever, or simply runs too
long hurts *every* co-resident workload. Before the workload manager
flashes anything, the admission layer runs the static verifier
(:func:`repro.isa.verify.verify_program`) over the lambda:

* **error-grade findings** (out-of-bounds access, uninitialized reads,
  unbounded loops, instruction-store overflow) reject the deployment
  outright — :class:`AdmissionError`;
* a **WCET above the NIC SLO** (or no WCET bound at all) routes the
  workload to a host backend instead: it is correct, just not
  interactive enough for the NIC's run-to-completion cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..isa.verify import VerifierReport, verify_program
from ..workloads import WorkloadSpec

#: Agilio CX NPU clock (paper §6.1.2: 1.6 ns/cycle ≈ 633 MHz).
NIC_CLOCK_HZ = 633e6


class AdmissionError(Exception):
    """The lambda failed static verification; nothing was deployed."""

    def __init__(self, message: str, report: Optional[VerifierReport] = None):
        super().__init__(message)
        self.report = report


@dataclass
class AdmissionDecision:
    """Outcome of admission control for one deployment request."""

    workload: str
    #: Backend the caller asked for.
    requested_kind: str
    #: Backend the workload was actually admitted to.
    admitted_kind: str
    #: "admitted" | "not-nic" | "rerouted-wcet" | "rerouted-unbounded"
    reason: str
    report: Optional[VerifierReport] = None
    wcet_seconds: Optional[float] = None

    @property
    def rerouted(self) -> bool:
        return self.admitted_kind != self.requested_kind


@dataclass
class AdmissionPolicy:
    """Admission rules the workload manager applies before deploying."""

    #: Response-time budget for one NIC invocation. The default is the
    #: interactive-microservice bar the paper targets (<1 ms on-NIC).
    nic_slo_seconds: float = 1e-3
    clock_hz: float = NIC_CLOCK_HZ
    #: Backend kinds whose deployments run lambda IR on the NIC (and
    #: therefore must pass the verifier).
    nic_backend_kinds: Tuple[str, ...] = ("lambda-nic",)
    #: Host substrates tried (in order) when a verified-but-slow lambda
    #: is bounced off the NIC.
    host_fallback_order: Tuple[str, ...] = ("bare-metal", "container")

    def evaluate(
        self,
        spec: WorkloadSpec,
        backend_kind: str,
        available_kinds: Iterable[str] = (),
    ) -> AdmissionDecision:
        """Decide where (whether) ``spec`` may deploy.

        Raises :class:`AdmissionError` when the lambda has error-grade
        findings, or when its WCET misses the SLO and no host fallback
        is available.
        """
        if backend_kind not in self.nic_backend_kinds:
            return AdmissionDecision(
                workload=spec.name,
                requested_kind=backend_kind,
                admitted_kind=backend_kind,
                reason="not-nic",
            )
        report = verify_program(spec.nic_program())
        if not report.ok:
            first = report.errors[0]
            raise AdmissionError(
                f"workload {spec.name!r} failed verification with "
                f"{len(report.errors)} error(s); first: {first}",
                report=report,
            )
        wcet_seconds = report.wcet_seconds(self.clock_hz)
        if wcet_seconds is not None and wcet_seconds <= self.nic_slo_seconds:
            return AdmissionDecision(
                workload=spec.name,
                requested_kind=backend_kind,
                admitted_kind=backend_kind,
                reason="admitted",
                report=report,
                wcet_seconds=wcet_seconds,
            )
        # Verified-correct but not provably interactive: bounce to host.
        reason = "rerouted-unbounded" if wcet_seconds is None \
            else "rerouted-wcet"
        fallback = next(
            (kind for kind in self.host_fallback_order
             if kind in set(available_kinds)),
            None,
        )
        if fallback is None:
            detail = "has no static WCET bound" if wcet_seconds is None else \
                f"WCET {wcet_seconds * 1e3:.3f} ms exceeds the " \
                f"{self.nic_slo_seconds * 1e3:.3f} ms NIC SLO"
            raise AdmissionError(
                f"workload {spec.name!r} {detail} and no host fallback "
                "backend is available",
                report=report,
            )
        return AdmissionDecision(
            workload=spec.name,
            requested_kind=backend_kind,
            admitted_kind=fallback,
            reason=reason,
            report=report,
            wcet_seconds=wcet_seconds,
        )
