"""The asyncio adapter over the synchronous lock core.

:class:`LockManager` is :class:`~repro.service.core.LockCore` — every
decision, park, wake and abort — plus the one thing an event loop adds:
waiting.  Each operation runs the core op through :func:`drive`, the
driver of both adapters (the shard coordinator's too): when a
:class:`~repro.service.park.Park` comes back — the op is then suspended
at it (:func:`~repro.service.core.operation`) — it awaits the park's end
and calls the op again with ``resume=park``, until the op completes.
:func:`wait_firm` puts a waker on the park, which the core's
:func:`~repro.service.park.end_park` calls, and turns the session's firm
deadline or the cancellation of the awaiting task into the core's
``expire`` — the one way to wait on a park.

The adapter subclasses the core rather than wrapping it: the shard
coordinator, the shard host, the verify harness and the tests read the
core's state (``table``, ``waits``, ``parks``, ``constraints``, ``db``,
``history``, ``stats``, ``kernel``) through the manager.  ``begin`` /
``read`` / ``write`` / ``commit`` / ``abort`` / ``shutdown`` are
coroutines defined on this class itself, which is where the wire layer
awaits them and the benchmark suite's tracer wraps them.  The names the
service shares (:class:`Session`, :class:`SessionState`,
:class:`ServiceConfig`, :data:`SERVED_PROTOCOLS`) are the core's,
importable from here as well.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, Dict, Optional

from repro.exceptions import DeadlineExceeded
from repro.service.core import (  # noqa: F401 - the shared names re-exported
    SERVED_PROTOCOLS,
    LockCore,
    ServiceConfig,
    Session,
    SessionState,
)
from repro.service.park import Park, ParkKind


async def drive(
    core: Any, op: Callable[..., Any], session: Any, *args: Any
) -> Any:
    """Call the core ``op`` on ``session``, then resume it from every
    park it returns once the park has ended.

    Past a cross-shard commit point (``session.installing``) a
    cancellation must not split the install across shards: the install
    legs are waited out with no deadline and the cancellation is raised
    after the last one.
    """
    deferred: Optional[BaseException] = None
    result = op(core, session, *args)
    while isinstance(result, Park):
        while session.installing and not result.ended:
            try:
                await wait_firm(core, session, result, firm=False)
            except asyncio.CancelledError as exc:
                deferred = exc
        await wait_firm(core, session, result)
        result = op(core, session, *args, resume=result)
    if deferred is not None:
        raise deferred
    return result


async def wait_firm(
    core: Any, session: Any, park: Park, *, firm: bool = True
) -> None:
    """Await the end of ``park``, which ``session``'s operation on
    ``core`` returned.

    The one way an adapter waits on a park, and the one place a firm
    deadline or a cancellation turns into an abort: when ``session``'s
    deadline passes first, the session is expired and
    :class:`DeadlineExceeded` raised — unless the park ended in time
    after all, whose outcome then stands; when the awaiting task is
    cancelled, the session is expired and the cancellation propagates.
    ``firm=False`` waits with no deadline and only propagates a
    cancellation (the sharded install, past its commit point).
    """
    if park.ended:
        return  # ended while parking: a re-decide grant, or a victim
    future = asyncio.get_running_loop().create_future()
    park.waker = functools.partial(_resolve, future)
    deadline = session.deadline if firm else None
    timeout = None if deadline is None else max(0.0, deadline - core.now())
    try:
        await asyncio.wait_for(future, timeout)
    except asyncio.TimeoutError:
        if not park.ended:
            core.expire(session, "deadline")
            raise DeadlineExceeded(
                f"{session.name}: deadline passed {_where(park)}"
            ) from None
    except asyncio.CancelledError:
        if firm:
            core.expire(session, "cancelled")
        raise
    finally:
        park.waker = None


def _resolve(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


def _where(park: Park) -> str:
    """Where a session was waiting, for the deadline message."""
    if park.kind is None:
        return "waiting for a shard host"
    if park.item is None or park.kind is ParkKind.COMMIT_GATE:
        return f"at the {park.kind.value}"
    return f"waiting for {park.mode.value}({park.item})"


class LockManager(LockCore):
    """Serve lock requests from concurrent asyncio clients under one
    protocol (arguments as :class:`~repro.service.core.LockCore`)."""

    async def begin(self, transaction: str, **pins: Any) -> Session:
        """Open a session (:meth:`LockCore.begin`, same deadline and
        pins; never waits)."""
        return LockCore.begin(self, transaction, **pins)

    async def read(self, session: Session, item: str) -> Any:
        """Read ``item`` (:meth:`LockCore.read`), waiting out its parks."""
        return await drive(self, LockCore.read, session, item)

    async def write(self, session: Session, item: str, value: Any) -> None:
        """Buffer a write (:meth:`LockCore.write`), waiting out its parks."""
        await drive(self, LockCore.write, session, item, value)

    async def commit(self, session: Session) -> Dict[str, Any]:
        """Commit (:meth:`LockCore.commit`), waiting out the commit gate."""
        return await drive(self, LockCore.commit, session)

    async def abort(self, session: Session, reason: str = "client") -> None:
        """Abort the session (:meth:`LockCore.abort`; never waits)."""
        LockCore.abort(self, session, reason)

    async def shutdown(self) -> None:
        """Abort every live session and refuse further requests."""
        LockCore.shutdown(self)
