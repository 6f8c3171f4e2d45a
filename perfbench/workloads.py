"""The benchmark's workloads: seeded testbeds driven by the repo's loadgen.

Every input comes from the workload seed: the testbed seed and the
image bytes. Request sizes are the repository's own: each spec's
``request_bytes``, 64 B for web_server and kv_client and one 1 MiB
image for image_transformer. Each round runs a warm-up load and then
the measured loads, its *slices*, back to back on the same freshly
built testbed; each slice is timed on its own.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.serverless import LoadResult, Testbed
from repro.serverless.loadgen import closed_loop, round_robin_closed_loop
from repro.workloads import (
    grayscale_reference,
    make_rgba_image,
    standard_workloads,
)

#: Clients of every workload's closed loop.
CONCURRENCY = 4


def merged(results: List[LoadResult]) -> LoadResult:
    """One LoadResult over consecutive slices."""
    total = LoadResult(workload="all", started_at=results[0].started_at)
    total.finished_at = results[-1].finished_at
    for result in results:
        total.latencies.extend(result.latencies)
        total.failures += result.failures
    return total


class Workload:
    """A testbed recipe plus its warm-up load and measured slices."""

    name = ""
    why = ""
    backend = "lambda-nic"
    lambdas: Tuple[str, ...] = ()
    #: Requests in the warm-up and in each measured slice.
    warm_requests = 0
    slice_requests = 0
    slices = 12

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.testbed_seed = self.rng.randrange(2 ** 31)
        self.specs = standard_workloads()

    def build(self) -> Testbed:
        """Construct the testbed and deploy every lambda (the set-up)."""
        tb = Testbed(seed=self.testbed_seed, n_workers=1)
        tb.add_backend(self.backend)

        def deploy(env):
            for name in self.lambdas:
                yield tb.manager.deploy(self.specs[name], self.backend)

        tb.run(until=tb.env.process(deploy(tb.env)))
        return tb

    def load(self, tb: Testbed, n: int):
        """Start a closed loop of ``n`` requests; returns its process."""
        name, = self.lambdas
        return closed_loop(tb.env, tb.gateway, name, n, CONCURRENCY)

    def run(self, tb: Testbed, n: int) -> LoadResult:
        process = self.load(tb, n)
        tb.run(until=process)
        return process.value

    def check(self, tb: Testbed) -> List[str]:
        """Workload-specific output checks; empty when correct."""
        return []


class WebClosed(Workload):
    name = "web_closed"
    why = ("web_server on one λ-NIC, closed loop of 4: single-packet "
           "requests whose fixed per-request path dominates")
    lambdas = ("web_server",)
    warm_requests = 300
    slice_requests = 250


class ImageRdma(Workload):
    name = "image_rdma"
    why = ("image_transformer on one λ-NIC, closed loop of 4: 1 MiB "
           "images of 256 RDMA segments, so the per-packet path dominates")
    lambdas = ("image_transformer",)
    warm_requests = 4
    slice_requests = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.payload = make_rgba_image(seed=self.rng.randrange(2 ** 32))

    def load(self, tb: Testbed, n: int):
        spec = self.specs["image_transformer"]
        return closed_loop(tb.env, tb.gateway, spec.name, n, CONCURRENCY,
                           payload=self.payload,
                           payload_bytes=spec.request_bytes)

    def check(self, tb: Testbed) -> List[str]:
        expected = grayscale_reference(self.payload)
        image = tb.nics[0].lambda_memory("image_transformer.image")
        if bytes(image[:len(expected)]) != expected:
            return ["image_transformer.image does not hold the grayscale "
                    "of the request image"]
        return []


class HostContention(Workload):
    name = "host_contention"
    why = ("web_server and kv_client round-robin on containers, closed "
           "loop of 4: the paper's host baseline, which bypasses the NIC")
    backend = "container"
    lambdas = ("web_server", "kv_client")
    warm_requests = 300
    slice_requests = 250

    def load(self, tb: Testbed, n: int):
        return round_robin_closed_loop(tb.env, tb.gateway,
                                       list(self.lambdas), n, CONCURRENCY)

    def run(self, tb: Testbed, n: int) -> LoadResult:
        process = self.load(tb, n)
        tb.run(until=process)
        return process.value["__all__"]


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (WebClosed, ImageRdma, HostContention)
}
