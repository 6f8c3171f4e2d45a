"""Per-layer host-time attribution, measured from outside the simulator.

:class:`LayerTracer` swaps selected functions of the imported ``repro``
package for timing wrappers and puts the originals back on
:meth:`LayerTracer.uninstall`; no file of the program is edited. Each
wrapped call, and each resumption of a wrapped generator (one step of
a simulation process), records a span: name, start, end and parent.
A span's *self time* is its duration minus the time of its child
spans. The span name's first dotted part is its layer. Whatever the
wrapped entry points do not cover stays in the root span, so it is
charged to the kernel (``sim``). That includes the client processes
of ``repro.serverless.loadgen``, which are closures no wrapper reaches.

Spans are recorded only inside :meth:`LayerTracer.phase`. Wrappers are
installed before the testbed is built, because the simulator binds
handlers such as ``node.attach(self.receive)`` at construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Root span of a phase; its self time is the kernel's share.
ROOT = "sim"

#: (module, attribute, span name) for every timed entry point. The
#: span name's first dotted part is the layer; the full name is the
#: key its calls are counted under. Generator functions are detected
#: and timed step by step. ``Node.send`` ("net.packet") is wrapped in
#: :meth:`install`, because it also counts RPC requests.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serverless.gateway", "Gateway._request", "gateway"),
    ("repro.serverless.gateway", "Gateway._receive", "gateway"),
    ("repro.serverless.gateway", "Gateway._send_request", "gateway.attempt"),
    ("repro.net.network", "Node._deliver", "net"),
    ("repro.net.link", "Link.send", "net"),
    ("repro.net.link", "_Direction._serializer", "net"),
    ("repro.net.link", "_Direction._propagate", "net"),
    ("repro.net.switch", "Switch._receive", "net"),
    ("repro.net.switch", "Switch._forwarder", "net"),
    ("repro.net.packet", "Packet.copy", "net"),
    ("repro.net.headers", "HeaderStack.copy", "net.header_copy"),
    ("repro.transport.reorder", "ReorderBuffer.add", "transport.reorder"),
    ("repro.transport.rpc", "RpcEndpoint._call", "transport"),
    ("repro.transport.rpc", "RpcEndpoint.on_packet", "transport"),
    ("repro.hw.nic", "SmartNIC.receive", "nic"),
    ("repro.hw.nic", "SmartNIC._serve", "nic"),
    ("repro.hw.nic", "SmartNIC._receive_rdma", "nic"),
    ("repro.hw.nic", "SmartNIC._complete_rdma", "nic"),
    ("repro.hw.nic", "SmartNIC._execute", "nic"),
    ("repro.hw.nic", "SmartNIC._send_response", "nic"),
    ("repro.hw.npu", "NPUCore.execute", "nic"),
    ("repro.isa.jit", "JitInterpreter.execute", "engine.exec"),
    ("repro.hw.memo", "ExecutionMemoCache.get", "memo"),
    ("repro.hw.memo", "ExecutionMemoCache.put", "memo"),
    ("repro.hw.memo", "ExecutionMemoCache.invalidate", "memo"),
    # The key is built and the payload hashed only for the memo cache.
    ("repro.hw.nic", "make_key", "memo"),
    ("repro.hw.nic", "SmartNIC._payload_digest", "memo"),
    ("repro.obs.metrics", "Counter.inc", "metrics.update"),
    ("repro.obs.metrics", "Gauge.set", "metrics.update"),
    ("repro.obs.metrics", "Gauge.add", "metrics.update"),
    ("repro.obs.metrics", "Histogram.observe", "metrics.update"),
    ("repro.obs.metrics", "CounterAttribute.__get__", "metrics"),
    ("repro.obs.metrics", "CounterAttribute.__set__", "metrics"),
    ("repro.host.server", "HostServer.receive", "host"),
    ("repro.host.server", "HostServer._handle", "host"),
    ("repro.host.server", "HostServer._respond", "host"),
    ("repro.host.cpu", "HostCPU.execute", "host"),
    ("repro.kvcache.server", "MemcachedServer.receive", "kvcache.op"),
    ("repro.kvcache.server", "MemcachedServer._serve", "kvcache"),
    ("repro.core.runtime", "LambdaNicRuntime.compile", "setup.compile"),
    ("repro.serverless.admission", "verify_program", "setup.compile"),
)

#: Entry points whose calls are counted but not timed: wrapping the
#: kernel's own constructors in spans would charge them to the caller's
#: layer boundary twice.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.core", "Environment.process", "sim.process"),
    ("repro.sim.core", "Environment.timeout", "sim.timeout"),
)


def _rpc_request(packet) -> bool:
    """True for a packet that opens an RPC (not its response)."""
    headers = packet.headers
    if headers.get("RpcHeader") is None:
        return False
    lam = headers.get("LambdaHeader")
    return lam is None or not lam.is_response


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: List[int] = []
        self.calls: Counter = Counter()
        self.active = False
        #: Host seconds of the last phase: its root span's duration.
        self.wall = 0.0
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def phase(self) -> Iterator[None]:
        """Record every wrapped call made inside the block."""
        del self.names[:], self.starts[:], self.ends[:], self.parents[:]
        del self.stack[:]
        self.calls.clear()
        self.active = True
        root = self._open(ROOT)
        try:
            yield
        finally:
            self._close(root)
            self.active = False
            self.wall = self.ends[root] - self.starts[root]

    # -- wrappers ----------------------------------------------------------

    def _timed_call(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return timed

    def _timed_generator(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def start(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return tracer._steps(fn(*args, **kwargs), name)

        return start

    def _steps(self, gen, name: str):
        """Drive ``gen`` exactly as its caller would, one span per step."""
        value = error = None
        # The yielded event is parked in a list, not a local, so that
        # no reference to it outlives the yield: the kernel recycles a
        # processed Timeout only when it can prove no one holds it.
        held: list = []
        while True:
            index = self._open(name) if self.active else -1
            try:
                held.append(gen.send(value) if error is None
                            else gen.throw(error))
            except StopIteration as stop:
                return stop.value
            finally:
                if index >= 0:
                    self._close(index)
            try:
                value, error = (yield held.pop()), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # handed on to ``gen``
                value, error = None, thrown

    def _counted(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _node_send(self, fn: Callable) -> Callable:
        """``Node.send`` also counts the RPC requests it carries."""
        tracer = self

        @functools.wraps(fn)
        def send(node, packet):
            if tracer.active and _rpc_request(packet):
                tracer.calls["transport.rpc_request"] += 1
            return fn(node, packet)

        return send

    # -- install / uninstall -------------------------------------------------

    def _patch(self, module: str, attribute: str,
               wrap: Callable[[Callable], Callable]) -> None:
        owner: object = importlib.import_module(module)
        *path, attr = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            patched: object = staticmethod(wrap(raw.__func__))
        else:
            patched = wrap(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def install(self) -> None:
        """Wrap every entry point; call before building the testbed."""
        if self._saved:
            raise RuntimeError("layer tracer is already installed")
        for module, attribute, name in ENTRY_POINTS:
            def wrap(fn, name=name):
                if inspect.isgeneratorfunction(fn):
                    return self._timed_generator(fn, name)
                return self._timed_call(fn, name)
            self._patch(module, attribute, wrap)
        self._patch("repro.net.network", "Node.send",
                    lambda fn: self._timed_call(self._node_send(fn),
                                                "net.packet"))
        for module, attribute, name in COUNTED:
            self._patch(module, attribute,
                        lambda fn, name=name: self._counted(fn, name))

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Host seconds of self time per span name in the last phase."""
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        child = [0.0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        totals: Dict[str, float] = Counter()
        for index, name in enumerate(names):
            totals[name] += ends[index] - starts[index] - child[index]
        return dict(totals)

    def inclusive(self, name: str) -> float:
        """Host seconds inside outermost spans called ``name``."""
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        total = 0.0
        for index, span in enumerate(names):
            parent = parents[index]
            if span == name and (parent < 0 or names[parent] != name):
                total += ends[index] - starts[index]
        return total

    def check(self) -> List[str]:
        """Problems with the last phase's spans; empty when sound.

        Every span must be closed and lie inside its parent, and no
        self time may be negative. Under these conditions the self
        times partition the root span, which is the traced phase, so
        together with the kernel's remainder they account for all of
        its wall time.
        """
        problems: List[str] = []
        if self.stack:
            problems.append(f"{len(self.stack)} spans left open")
        starts, ends = self.starts, self.ends
        for index, parent in enumerate(self.parents):
            if ends[index] < starts[index]:
                problems.append(f"span {self.names[index]} ends before "
                                "it starts")
                break
            if parent >= 0 and not (starts[parent] <= starts[index]
                                    and ends[index] <= ends[parent]):
                problems.append(f"span {self.names[index]} escapes its "
                                f"parent {self.names[parent]}")
                break
        negative = [name for name, seconds in self.self_times().items()
                    if seconds < -1e-9]
        if negative:
            problems.append(f"negative self time in {sorted(negative)}")
        return problems


def layer_totals(self_times: Dict[str, float]) -> Dict[str, float]:
    """Fold per-span-name self times into per-layer self times."""
    totals: Dict[str, float] = Counter()
    for name, seconds in self_times.items():
        totals[name.split(".", 1)[0]] += seconds
    return dict(totals)

