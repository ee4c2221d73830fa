"""Span tracing from outside the program: timing wrappers on public methods.

:class:`Tracer` replaces a fixed list of public functions and methods by
wrappers that record one span per call — installed at *class* level and
before the deployment is built, because ``LockManager.__init__`` binds
``kernel.decide`` once.  Nothing under ``src/`` knows about it; spans
inside the program (and inside shard-host processes) are a later change.

A span is ``[name, start_s, end_s, busy_s, child_s, parent, txn, n]``:

* ``start_s``/``end_s`` are wall-clock offsets from the tracer's epoch;
* ``busy_s`` is the time the call actually executed.  For a plain
  function it equals ``end - start``.  A coroutine is driven step by
  step and only the steps count: the time it sat suspended — parked on a
  lock, waiting for a socket, or simply while other clients' tasks ran
  on the loop — is ``end - start - busy``, the span's *wait*;
* ``child_s`` is the part of ``busy_s`` spent inside other traced calls,
  so ``busy_s - child_s`` is the span's **self time**.  Steps nest
  properly on one thread, so self times of all spans are disjoint: their
  sum cannot exceed the repetition's wall time, and the remainder is
  what the wrappers do not cover;
* ``parent`` is the index of the span that was executing when this one
  was created (``-1`` for a root) — the span that caused it;
* ``txn`` is the driver's label for the transaction being served, shared
  by every span of one request;
* ``n`` is an optional size (bytes for ``wire.encode``/``decode``,
  requests for ``Kernel.decide_batch``).
"""

from __future__ import annotations

import collections.abc
import contextvars
import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.kernel.core import Kernel
from repro.engine.lock_table import CeilingIndex, LockTable
from repro.engine.simulator import Simulator
from repro.service import client as client_module
from repro.service import wire
from repro.service.manager import LockManager
from repro.service.sharding.coordinator import ShardedLockManager
from repro.service.sharding.procs.proxy import RemoteShardProxy

FIELDS = ("name", "start_s", "end_s", "busy_s", "child_s", "parent", "txn",
          "n")
_END, _BUSY, _CHILD, _N = 2, 3, 4, 7

#: The driver sets this per transaction; spans copy it at creation.
CURRENT_TXN: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "benchmark_txn", default=None
)

_OPS = ("begin", "read", "write", "commit")

#: (owner, attribute, span name, size function or None).
TARGETS: Tuple[Tuple[Any, str, str, Optional[Callable]], ...] = (
    (Kernel, "decide", "kernel.decide", None),
    (Kernel, "decide_batch", "kernel.decide_batch",
     lambda args, result: len(args[1])),
    (Kernel, "system_ceiling", "kernel.system_ceiling", None),
    (LockTable, "grant", "lock_table.grant", None),
    (LockTable, "release_all", "lock_table.release_all", None),
    (CeilingIndex, "update", "lock_table.ceiling_index.update", None),
    *((LockManager, op, f"manager.{op}", None) for op in _OPS),
    *((ShardedLockManager, op, f"coordinator.{op}", None) for op in _OPS),
    *((RemoteShardProxy, op, f"proxy.{op}", None)
      for op in _OPS + ("prepare_commit",)),
    (wire, "encode", "wire.encode", lambda args, result: len(result)),
    (wire, "decode", "wire.decode", lambda args, result: len(args[0])),
    (wire, "dispatch_request", "wire.dispatch_request", None),
    (client_module.ServiceClient, "request", "client.request", None),
    (Simulator, "run", "simulator.run", None),
)


class _Stepped(collections.abc.Coroutine):
    """Drive a coroutine step by step, timing only the steps.

    A full coroutine (``send``/``throw``/``close``), not just an
    awaitable: the shard coordinator runs a shard operation's first step
    eagerly with ``coro.send(None)`` before handing it to a task.
    """

    __slots__ = ("_generator",)

    def __init__(self, tracer: "Tracer", coro: Any, index: int):
        self._generator = self._drive(tracer, coro, index)

    @staticmethod
    def _drive(tracer: "Tracer", coro: Any, index: int):
        step, value = coro.send, None
        while True:
            began = tracer._push(index)
            try:
                yielded = step(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer._pop(index, began)
            try:
                value = yield yielded
                step = coro.send
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded
                value, step = exc, coro.throw

    def send(self, value: Any) -> Any:
        return self._generator.send(value)

    def throw(self, *exc_info: Any) -> Any:
        return self._generator.throw(*exc_info)

    def close(self) -> None:
        self._generator.close()

    def __await__(self):
        return self._generator


class Tracer:
    """Install the wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()

    # -- span bookkeeping ---------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([
            name, time.perf_counter() - self._epoch, 0.0, 0.0, 0.0, parent,
            CURRENT_TXN.get(), None,
        ])
        return len(self.spans) - 1

    def _push(self, index: int) -> float:
        self._stack.append(index)
        return time.perf_counter()

    def _pop(self, index: int, began: float) -> None:
        """End one step: busy time for its span, child time for its caller."""
        now = time.perf_counter()
        elapsed = now - began
        self._stack.pop()
        span = self.spans[index]
        span[_BUSY] += elapsed
        span[_END] = now - self._epoch
        if self._stack:
            self.spans[self._stack[-1]][_CHILD] += elapsed

    def _wrap(self, function: Callable, name: str,
              size: Optional[Callable]) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            def traced_async(*args, **kwargs):
                return _Stepped(
                    tracer, function(*args, **kwargs), tracer._open(name)
                )
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            began = tracer._push(index)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._pop(index, began)
            if size is not None:
                tracer.spans[index][_N] = size(args, result)
            return result
        return traced

    # -- install / restore --------------------------------------------
    def __enter__(self) -> "Tracer":
        for owner, attribute, name, size in TARGETS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, size))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def write(self, path: Any, header: Dict[str, Any]) -> None:
        """Write the spans as one JSON document (see README, 'traces')."""
        document = dict(header, fields=list(FIELDS), spans=self.spans)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def summarize(spans: List[List[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy, self and wait seconds, and size sum."""
    out: Dict[str, Dict[str, float]] = {}
    for name, start, end, busy, child, _parent, _txn, n in spans:
        row = out.setdefault(name, {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "wait_s": 0.0, "n": 0,
        })
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - child
        row["wait_s"] += end - start - busy
        row["n"] += n or 0
    return out
