"""Eager first step: only an operation that actually parks becomes a task.

The overwhelmingly common service operation — an unblocked grant, a
buffered write, an uncontended commit — finishes without ever
suspending.  :func:`eager_start` runs a coroutine's first step on the
caller's stack and hands only a coroutine that suspended to the event
loop, so the common case never costs a loop tick or a task.  The shard
coordinator forwards leg operations this way and the wire connection
dispatches requests this way (``repro.service.connection``); both call
this one helper.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Coroutine, Optional, Tuple

#: asyncio has its own eager step since 3.12.  It is also the only
#: correct one there: ``asyncio.wait_for`` is built on
#: ``asyncio.timeout`` since 3.12, which needs ``current_task()`` to be
#: the task running the coroutine — on a protocol callback's stack there
#: is none.
_EAGER_TASKS = sys.version_info >= (3, 12)


def eager_start(coro: Coroutine) -> Tuple[bool, Any]:
    """Run ``coro``'s first step now.

    Returns ``(True, result)`` when the coroutine finished without
    suspending (an exception it raised propagates to the caller), else
    ``(False, task)`` where ``task`` runs the remainder and can be
    awaited, shielded or cancelled like any task.
    """
    if _EAGER_TASKS:
        task = asyncio.Task(
            coro, loop=asyncio.get_running_loop(), eager_start=True
        )
        if task.done():
            return True, task.result()
        return False, task
    try:
        yielded = coro.send(None)
    except StopIteration as stop:
        return True, stop.value
    return False, asyncio.ensure_future(_settle(coro, yielded))


async def _settle(coro: Coroutine, yielded: Any) -> Any:
    """Finish a coroutine whose eager first step suspended.

    Mirrors the task step/wakeup protocol: wait for the future the
    coroutine yielded, then resume it with ``send`` (or ``throw`` on
    failure) until it returns.  Cancellation cancels the inner future
    and is thrown into the coroutine so its cleanup handlers (waiter
    un-parking, gate teardown) run exactly as they would under a
    cancelled task.
    """
    while True:
        exc: Optional[BaseException] = None
        if yielded is None:
            await asyncio.sleep(0)
        else:
            yielded._asyncio_future_blocking = False
            waiter = asyncio.get_running_loop().create_future()

            def _wake(_f, waiter=waiter):
                if not waiter.done():
                    waiter.set_result(None)

            yielded.add_done_callback(_wake)
            try:
                await waiter
            except asyncio.CancelledError as cancel:
                yielded.remove_done_callback(_wake)
                yielded.cancel()
                exc = cancel
            else:
                try:
                    yielded.result()
                except BaseException as inner:  # noqa: BLE001
                    exc = inner
        try:
            if exc is not None:
                yielded = coro.throw(exc)
            else:
                yielded = coro.send(None)
        except StopIteration as stop:
            return stop.value
