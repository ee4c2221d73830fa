"""The asyncio adapter over the synchronous lock core.

:class:`LockManager` is :class:`~repro.service.core.LockCore` — every
decision, park, wake and abort — plus the one thing an event loop adds:
waiting.  Each operation calls the core op; when a
:class:`~repro.service.park.Park` comes back it awaits the park's end
and calls the op again with ``resume=park``, until the op completes.
The adapter owns the only future per park, resolved when the core ends
the park, and turns the session's firm deadline or the cancellation of
the awaiting task into :meth:`LockCore.expire` through
:func:`wait_firm` — the one deadline/cancel helper, which the shard
coordinator's forwarded operations and parks use too.

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
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.exceptions import DeadlineExceeded
from repro.model.spec import TaskSet
from repro.service.core import (  # noqa: F401 - the shared names re-exported
    SERVED_PROTOCOLS,
    LockCore,
    ServiceConfig,
    Session,
    SessionState,
)
from repro.service.park import Park, ParkKind


async def wait_firm(
    waiter: Awaitable[Any],
    deadline: Optional[float],
    clock: Callable[[], float],
    expire: Callable[[], None],
    cancel: Callable[[], None],
) -> Any:
    """Await ``waiter`` until the absolute ``deadline`` on ``clock``
    (``None``: unbounded); returns its result.

    The one place a firm deadline or a cancellation turns into an abort.
    When the time runs out, ``expire()`` aborts and raises — it returns
    only when the outcome waited for landed in time after all, and then
    so does this.  When the awaiting task is cancelled, ``cancel()``
    aborts and the cancellation propagates.  Either way
    ``asyncio.wait_for`` cancels ``waiter``.
    """
    timeout = None if deadline is None else max(0.0, deadline - clock())
    try:
        return await asyncio.wait_for(waiter, timeout)
    except asyncio.TimeoutError:
        expire()
    except asyncio.CancelledError:
        cancel()
        raise


class LockManager(LockCore):
    """Serve lock requests from concurrent asyncio clients under one
    protocol (arguments as :class:`~repro.service.core.LockCore`)."""

    def __init__(
        self,
        catalog: TaskSet,
        protocol: str = "pcp-da",
        config: Optional[ServiceConfig] = None,
    ) -> None:
        super().__init__(catalog, protocol, config)
        #: park -> the future its awaiting coroutine sleeps on.
        self._futures: Dict[Park, "asyncio.Future[None]"] = {}

    async def begin(
        self,
        transaction: str,
        *,
        deadline_s: Optional[float] = None,
        instance: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> Session:
        """Open a session (:meth:`LockCore.begin`; never waits)."""
        return LockCore.begin(
            self, transaction, deadline_s=deadline_s, instance=instance,
            seq=seq,
        )

    async def read(self, session: Session, item: str) -> Any:
        """Read ``item`` (:meth:`LockCore.read`), waiting out its parks."""
        result = LockCore.read(self, session, item)
        while isinstance(result, Park):
            await self._wait(session, result)
            result = LockCore.read(self, session, item, resume=result)
        return result

    async def write(self, session: Session, item: str, value: Any) -> None:
        """Buffer a write (:meth:`LockCore.write`), waiting out its parks."""
        result = LockCore.write(self, session, item, value)
        while result is not None:
            await self._wait(session, result)
            result = LockCore.write(self, session, item, value, resume=result)

    async def commit(self, session: Session) -> Dict[str, Any]:
        """Commit (:meth:`LockCore.commit`), waiting out the commit gate."""
        result = LockCore.commit(self, session)
        while isinstance(result, Park):
            await self._wait(session, result)
            result = LockCore.commit(self, session, resume=result)
        return result

    async def abort(self, session: Session, reason: str = "client") -> None:
        """Abort the session (:meth:`LockCore.abort`; never waits)."""
        LockCore.abort(self, session, reason)

    async def shutdown(self) -> None:
        """Abort every live session and refuse further requests."""
        LockCore.shutdown(self)

    async def _wait(self, session: Session, park: Park) -> None:
        """Await the end of ``park`` under ``session``'s firm deadline."""
        if park.ended:
            return  # ended while parking: a re-decide grant, or a victim
        future = asyncio.get_running_loop().create_future()
        self._futures[park] = future

        def expire() -> None:
            if park.ended:
                return  # the grant landed before the deadline: it stands
            self.expire(session, "deadline")
            where = (
                "at the commit gate" if park.kind is ParkKind.COMMIT_GATE
                else f"waiting for {park.mode.value}({park.item})"
            )
            raise DeadlineExceeded(
                f"{session.name}: deadline passed {where}"
            ) from None

        try:
            await wait_firm(
                future, session.deadline, self.now, expire,
                lambda: self.expire(session, "cancelled"),
            )
        finally:
            del self._futures[park]

    def _end_park(self, park: Park, outcome: Any) -> None:
        LockCore._end_park(self, park, outcome)
        future = self._futures.get(park)
        if future is not None and not future.done():
            future.set_result(None)
