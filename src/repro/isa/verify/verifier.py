"""The top-level program verifier (the λ-NIC analogue of the eBPF
verifier): every analysis in this package, run over one program and
folded into a single :class:`~.report.VerifierReport`.

``verify_program`` is what the compiler's resource check, the serverless
admission layer, and the ``python -m repro.isa.verify`` lint CLI all
call. Error-grade findings make a program unloadable; warnings are
lint-grade.
"""

from __future__ import annotations

from typing import Dict

from ..instructions import Op
from ..program import LambdaProgram
from .analyses import (
    ConstantStates,
    _reachable_from,
    constant_states,
    dead_stores,
    uninitialized_reads,
)
from .cfg import CFG, build_cfg
from .intervals import IntervalStates, interval_states
from .memcheck import check_memory, region_footprint
from .report import Finding, Severity, VerifierReport
from .wcet import estimate_wcet

#: Netronome Agilio CX instruction-store limit from the paper's testbed
#: (§6.1.2): 16 K instructions per core. Canonical here; the compiler's
#: resource check imports it.
MAX_INSTRUCTIONS_PER_CORE = 16 * 1024


def verify_program(program: LambdaProgram) -> VerifierReport:
    """Statically verify ``program`` and return the full report.

    Registers in the program's declared ``scratch_registers`` are exempt
    from dead-store and uninitialized-read findings. Every register is
    assumed live after the entry returns, which is safe for a fragment
    that will be composed into larger firmware and does not change the
    findings of a standalone whole program.
    """
    entry = program.entry
    scratch = program.scratch_registers

    report = VerifierReport(
        program=program.name,
        instruction_count=program.instruction_count,
        code_bytes=program.code_bytes,
        data_bytes=program.data_bytes,
        region_footprint=region_footprint(program),
    )
    findings = report.findings

    # 1. Structural validation (undefined calls/labels/objects). The
    # remaining analyses are written to tolerate dangling references,
    # so verification continues for better diagnostics.
    try:
        program.validate()
    except ValueError as exc:
        findings.append(Finding(
            severity=Severity.ERROR,
            code="invalid-program",
            message=str(exc),
        ))

    # 2. Instruction store.
    if report.instruction_count > MAX_INSTRUCTIONS_PER_CORE:
        findings.append(Finding(
            severity=Severity.ERROR,
            code="instr-overflow",
            message=(
                f"{report.instruction_count} instructions exceed the "
                f"core's {MAX_INSTRUCTIONS_PER_CORE}-instruction store"
            ),
        ))

    cfgs: Dict[str, CFG] = {
        name: build_cfg(function)
        for name, function in program.functions.items()
    }
    consts: Dict[str, ConstantStates] = {
        name: constant_states(function, cfg=cfgs[name])
        for name, function in program.functions.items()
    }
    ranges: Dict[str, IntervalStates] = {
        name: interval_states(function, cfg=cfgs[name], program=program)
        for name, function in program.functions.items()
    }
    has_entry = entry in program.functions

    # 3. Unreachable functions and blocks.
    reachable_functions = _reachable_from(program, entry) if has_entry \
        else set(program.functions)
    for name, cfg in cfgs.items():
        if name not in reachable_functions:
            findings.append(Finding(
                severity=Severity.WARNING,
                code="unreachable-function",
                message=f"function {name!r} is never called from "
                        f"{entry!r}",
                function=name,
            ))
            continue
        live_blocks = cfg.reachable()
        for block in cfg.blocks:
            if block.bid in live_blocks or not block.instructions:
                continue
            index, instruction = block.instructions[0]
            findings.append(Finding(
                severity=Severity.WARNING,
                code="unreachable",
                message=f"{block.end - index} instruction(s) can never "
                        "execute",
                function=name,
                index=index,
                instruction=repr(instruction),
            ))

    # 4. Uninitialized register reads (error-grade: the simulator
    # zero-fills, the real NPU does not).
    if has_entry:
        for name, index, reg in uninitialized_reads(
            program, entry=entry, scratch=scratch
        ):
            findings.append(Finding(
                severity=Severity.ERROR,
                code="uninit-read",
                message=f"register {reg} may be read before it is "
                        "written",
                function=name,
                index=index,
                instruction=repr(program.functions[name].body[index]),
            ))

    # 5. Dead stores (lint-grade; the DSE pass can delete the pure ones).
    if has_entry:
        for name, index, reg in dead_stores(program, entry=entry,
                                            scratch=scratch):
            findings.append(Finding(
                severity=Severity.WARNING,
                code="dead-store",
                message=f"value written to {reg} is never read",
                function=name,
                index=index,
                instruction=repr(program.functions[name].body[index]),
            ))

    # 6. Memory bounds / isolation / capacity.
    findings.extend(check_memory(program, consts, ranges))

    # 7. WCET and loop bounds.
    if has_entry:
        wcet = estimate_wcet(program, entry=entry, consts=consts,
                             ranges=ranges)
        findings.extend(wcet.findings)
        report.wcet_cycles = wcet.total_cycles
        report.function_wcet = dict(wcet.function_cycles)
        report.wcet_method = dict(wcet.function_method)
        for name, loops in wcet.loops.items():
            for loop in loops:
                if loop.bound is None:
                    continue  # Reported as an unbounded-loop error.
                provenance = f"counter {loop.counter}"
                if loop.bound_source:
                    provenance += f", via {loop.bound_source}"
                if loop.body_trips is not None:
                    provenance += f", body <= {loop.body_trips} trips"
                findings.append(Finding(
                    severity=Severity.INFO,
                    code="loop-bound",
                    message=(
                        f"loop bounded at {loop.bound} iterations "
                        f"({provenance})"
                    ),
                    function=name,
                    index=loop.exit_index,
                ))

    # 8. Intrinsics without a static cost model: advisory in every
    # function, including those the WCET pass never reaches from the
    # entry (where it would otherwise be the only thing that notices).
    from ..interpreter import intrinsic_wcet

    for name, function in program.functions.items():
        for index, instruction in enumerate(function.body):
            if instruction.op is not Op.INTRINSIC:
                continue
            if intrinsic_wcet(instruction.args[0]) is None:
                findings.append(Finding(
                    severity=Severity.INFO,
                    code="missing-wcet-model",
                    message=(
                        f"intrinsic {instruction.args[0]!r} declares no "
                        "WCET model (register one with "
                        "register_intrinsic(..., wcet=...))"
                    ),
                    function=name,
                    index=index,
                    instruction=repr(instruction),
                ))

    report.sort()
    return report
