"""Benchmark of the λ-NIC simulator: host throughput plus a layer table.

Run from the repository root::

    python3 perfbench/run.py --workload web_closed --seed 1 --seconds 25 --trace 0

The run repeats *rounds* for ``--seconds``, stopping before a round
that would not fit (but after at least :data:`MIN_ROUNDS`). A round
builds a fresh testbed from the seed and deploys its lambdas (timed
as set-up), runs the warm-up phase, then times the measured phase.
The simulator is deterministic per seed, so every round must produce
the same simulated results; the run checks that, plus conservation
and zero failures. It prints the fastest slice's throughput and the
median set-up time.

With ``--trace 1`` untraced and traced rounds alternate. The traced
rounds run with :class:`perfbench.layers.LayerTracer` installed and
give the per-layer metrics; their simulated results must equal the
untraced ones, their spans must be closed and nested, and every count
must repeat exactly from one traced round to the next.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every check passed, 1 when one failed and 2 when the simulator's
source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Fewest rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3

#: A round repeats its set-up until the set-ups took this many host
#: seconds and reports the fastest, so that a set-up of a millisecond
#: is timed over many builds rather than one.
MIN_SETUP_SECONDS = 0.2

#: Host time is the process's CPU time. The simulator is one thread
#: and does no I/O, so CPU time is what it costs; the wall clock also
#: counts time the hypervisor gives this vCPU to other guests (steal),
#: which reached a third of the time on a shared 2-core VM.
host_seconds = time.process_time

#: End-to-end metrics: name -> (unit, clock). All are host figures.
END_TO_END = {
    "req_per_s": ("1/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
}

#: The measured phase's simulated outcome: name -> (unit, clock). It is
#: printed with the end-to-end metrics but left out of the result line:
#: on the closed-loop λ-NIC workloads it is the same on every seed, and
#: the digest check already requires it to repeat exactly.
SIM_OUTCOME = {
    "fail_ratio": ("ratio", "sim"),
    "sim_p50_us": ("us", "sim"),
    "sim_p99_us": ("us", "sim"),
    "sim_goodput_rps": ("1/s", "sim"),
}

#: Layers with a self-time share in the per-layer table.
LAYERS = ("sim", "gateway", "net", "transport", "nic", "engine",
          "memo", "metrics", "host", "kvcache")

#: Per-layer metrics: name -> (unit, clock). A clock of "count" marks a
#: number that must repeat exactly between runs of one seed.
PER_LAYER = {
    "sim.events_per_req": ("1/req", "count"),
    "sim.processes_per_req": ("1/req", "count"),
    "sim.pool_recycle_ratio": ("ratio", "count"),
    "sim.events_per_s": ("1/s", "host"),
    "gateway.us_per_req": ("us/req", "host"),
    "gateway.attempts_per_req": ("1/req", "count"),
    "net.packets_per_req": ("1/req", "count"),
    "net.us_per_packet": ("us/packet", "host"),
    "net.header_copies_per_req": ("1/req", "count"),
    "transport.reorder_us_per_req": ("us/req", "host"),
    "transport.rpc_calls_per_req": ("1/req", "count"),
    "nic.us_per_req": ("us/req", "host"),
    "engine.us_per_exec": ("us/exec", "host"),
    "engine.execs_per_req": ("1/req", "count"),
    "engine.compile_misses": ("count", "count"),
    "memo.us_per_req": ("us/req", "host"),
    "metrics.updates_per_req": ("1/req", "count"),
    "metrics.us_per_req": ("us/req", "host"),
    "host.us_per_req": ("us/req", "host"),
    "kvcache.ops_per_req": ("1/req", "count"),
    "kvcache.us_per_op": ("us/op", "host"),
    "setup.compile_share": ("ratio", "host"),
    "trace_overhead": ("ratio", "host"),
}
PER_LAYER.update({f"{layer}.self_share": ("ratio", "host")
                  for layer in LAYERS})


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    cpu_s: float
    #: Requests per host second of each measured slice.
    slice_rates: List[float]
    result: object  # repro.serverless.LoadResult over all slices
    events: int
    digest: str
    problems: List[str]
    #: Per-layer metrics and exact-repeat counts (traced rounds only).
    layers: Optional[dict] = None
    counts: Optional[dict] = None

    @property
    def attempted(self) -> int:
        return self.result.completed + self.result.failures

    @property
    def req_per_s(self) -> float:
        return self.attempted / self.cpu_s


def _digest(result, delta: dict) -> str:
    """Fingerprint of a round's simulated outcome and kernel counts."""
    h = hashlib.sha256(repr((
        result.completed, result.failures, result.duration.hex(),
        sorted(delta.items()),
    )).encode())
    for latency in sorted(result.latencies):
        h.update(latency.hex().encode())
    return h.hexdigest()


def _program_counts(tb) -> dict:
    """Counters the simulator keeps itself, read between phases."""
    engines = [getattr(nic.engine, "stats", None) for nic in tb.nics]
    engines = [stats for stats in engines if stats is not None]
    pool = tb.env.pool
    return {
        "sim.events": tb.env._eid,
        "sim.pool_reused": pool.reused if pool is not None else 0,
        "engine.compile_misses": sum(stats.misses for stats in engines),
    }


def _layer_metrics(tracer, delta, after, attempted, compile_share) -> dict:
    """Per-layer metrics of one traced round (sim.events_per_s and
    trace_overhead need the untraced rounds and are added later)."""
    from perfbench.layers import layer_totals

    calls = tracer.calls
    own = tracer.self_times()
    layers = layer_totals(own)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "sim.events_per_req": per(delta["sim.events"], attempted),
        "sim.processes_per_req": per(calls["sim.process"], attempted),
        "sim.pool_recycle_ratio": per(delta["sim.pool_reused"],
                                      calls["sim.timeout"]),
        "gateway.us_per_req": per(layers.get("gateway", 0.0) * 1e6,
                                  attempted),
        "gateway.attempts_per_req": per(calls["gateway.attempt"], attempted),
        "net.packets_per_req": per(calls["net.packet"], attempted),
        "net.us_per_packet": per(layers.get("net", 0.0) * 1e6,
                                 calls["net.packet"]),
        "net.header_copies_per_req": per(calls["net.header_copy"],
                                         attempted),
        "transport.reorder_us_per_req": per(
            own.get("transport.reorder", 0.0) * 1e6, attempted),
        "transport.rpc_calls_per_req": per(calls["transport.rpc_request"],
                                           attempted),
        "nic.us_per_req": per(layers.get("nic", 0.0) * 1e6, attempted),
        "engine.us_per_exec": per(layers.get("engine", 0.0) * 1e6,
                                  calls["engine.exec"]),
        "engine.execs_per_req": per(calls["engine.exec"], attempted),
        "engine.compile_misses": after["engine.compile_misses"],
        "memo.us_per_req": per(layers.get("memo", 0.0) * 1e6, attempted),
        "metrics.updates_per_req": per(calls["metrics.update"], attempted),
        "metrics.us_per_req": per(layers.get("metrics", 0.0) * 1e6,
                                  attempted),
        "host.us_per_req": per(layers.get("host", 0.0) * 1e6, attempted),
        "kvcache.ops_per_req": per(calls["kvcache.op"], attempted),
        "kvcache.us_per_op": per(layers.get("kvcache", 0.0) * 1e6,
                                 calls["kvcache.op"]),
        "setup.compile_share": compile_share,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = per(layers.get(layer, 0.0),
                                             tracer.wall)
    unknown = set(layers) - set(LAYERS) - {"setup"}
    if unknown:
        raise RuntimeError(f"spans of unlisted layers {sorted(unknown)}")
    return metrics


def _setups(workload):
    """Build the testbed until :data:`MIN_SETUP_SECONDS` have passed;
    returns the last testbed and the host seconds of the fastest build."""
    fastest, started = float("inf"), host_seconds()
    while True:
        build_started = host_seconds()
        tb = workload.build()
        now = host_seconds()
        fastest = min(fastest, now - build_started)
        if now - started >= MIN_SETUP_SECONDS:
            return tb, fastest


def _slices(workload, tb):
    """Run the measured slices; returns their results and host seconds."""
    results, seconds = [], []
    for _ in range(workload.slices):
        started = host_seconds()
        results.append(workload.run(tb, workload.slice_requests))
        seconds.append(host_seconds() - started)
    return results, seconds


def run_round(workload, tracer=None) -> Round:
    """Build, warm up and measure one fresh testbed."""
    from perfbench.workloads import merged

    gc.collect()
    compile_share = 0.0
    if tracer is None:
        tb, setup_s = _setups(workload)
    else:
        with tracer.phase():
            tb, setup_s = _setups(workload)
        compile_share = tracer.inclusive("setup.compile") / tracer.wall
    workload.run(tb, workload.warm_requests)

    before = _program_counts(tb)
    if tracer is None:
        results, slice_s = _slices(workload, tb)
    else:
        with tracer.phase():
            results, slice_s = _slices(workload, tb)
    after = _program_counts(tb)

    problems = []
    planned = workload.slice_requests
    for index, result in enumerate(results):
        if result.completed + result.failures != planned:
            problems.append(f"slice {index}: {planned} requests sent "
                            f"but {result.completed} completed + "
                            f"{result.failures} failed")
    result = merged(results)
    delta = {key: after[key] - before[key] for key in before}
    attempted = result.completed + result.failures
    if result.failures:
        problems.append(f"{result.failures} requests failed")
    problems.extend(workload.check(tb))
    measured = Round(setup_s, sum(slice_s),
                     [(r.completed + r.failures) / t
                      for r, t in zip(results, slice_s)],
                     result, delta["sim.events"], _digest(result, delta),
                     problems)
    if tracer is not None:
        problems.extend(tracer.check())
        measured.layers = _layer_metrics(tracer, delta, after, attempted,
                                         compile_share)
        measured.counts = dict(tracer.calls)
    return measured


def measure(workload, seconds: float, trace: bool):
    """Rounds while another fits in ``seconds``; returns (rounds, problems)."""
    from perfbench.layers import LayerTracer

    tracer = LayerTracer() if trace else None
    rounds = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if (len(rounds) >= MIN_ROUNDS + trace
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            break
        # Traced runs alternate untraced and traced rounds.
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            try:
                rounds.append(run_round(workload, tracer))
            finally:
                tracer.uninstall()
        else:
            rounds.append(run_round(workload))

    problems = [problem for measured in rounds
                for problem in measured.problems]
    if len({measured.digest for measured in rounds}) != 1:
        problems.append("simulated results differ between rounds of one "
                        "seed (traced vs untraced, or repeats)")
    counts = [measured.counts for measured in rounds
              if measured.counts is not None]
    for later in counts[1:]:
        if later != counts[0]:
            problems.append("counts differ between traced rounds of one "
                            "seed")
            break
    return rounds, problems


def end_to_end(rounds) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # The fastest slice: a shared host only ever slows a slice down.
        "req_per_s": max(rate for r in rounds for rate in r.slice_rates),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def sim_outcome(rounds) -> dict:
    """The simulated outcome, equal in every round (the digest check)."""
    from repro.serverless.metrics import percentile_of

    result = rounds[0].result
    latencies = sorted(result.latencies)
    return {
        "fail_ratio": result.failures / rounds[0].attempted,
        "sim_p50_us": percentile_of(latencies, 50) * 1e6,
        "sim_p99_us": percentile_of(latencies, 99) * 1e6,
        "sim_goodput_rps": result.goodput_rps,
    }


def per_layer(rounds) -> dict:
    untraced = [r for r in rounds if r.layers is None]
    traced = [r for r in rounds if r.layers is not None]
    metrics = {}
    for name, (_, clock) in PER_LAYER.items():
        if name in ("sim.events_per_s", "trace_overhead"):
            continue
        values = [r.layers[name] for r in traced]
        metrics[name] = (values[0] if clock == "count"
                         else statistics.median(values))
    metrics["sim.events_per_s"] = statistics.median(
        r.events / r.cpu_s for r in untraced)
    metrics["trace_overhead"] = (
        statistics.median(r.req_per_s for r in untraced)
        / statistics.median(r.req_per_s for r in traced))
    return metrics


def _print_table(title, values, units) -> None:
    print(title)
    for name, value in values.items():
        unit, clock = units[name]
        print(f"  {name:30s} {value:16.6f} {unit:10s} {clock}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {source}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    rounds, problems = measure(workload, args.seconds, bool(args.trace))

    print(f"perfbench {workload.name} seed={args.seed} "
          f"rounds={len(rounds)} traced={sum(r.layers is not None for r in rounds)} "
          f"cores={os.cpu_count()} python={platform.python_version()} "
          f"machine={platform.machine()}")
    print("rounds' req_per_s (host): " + " ".join(
        f"{r.req_per_s:.1f}{'T' if r.layers is not None else ''}"
        for r in rounds))
    if args.trace:
        values = per_layer(rounds)
        _print_table("per-layer (traced rounds; host = host time, "
                     "sim = simulated time, count = exact)", values,
                     PER_LAYER)
    else:
        values = end_to_end(rounds)
        _print_table("end-to-end (host = host time, sim = simulated time)",
                     {**values, **sim_outcome(rounds)},
                     {**END_TO_END, **SIM_OUTCOME})
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.result.failures for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
