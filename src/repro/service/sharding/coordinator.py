"""The asyncio adapter over the synchronous sharded core.

:class:`ShardedLockManager` is
:class:`~repro.service.sharding.core.ShardedCore` — routing, the global
gate and guard, the cross-shard deadlock pass, the installs — plus what
only an event loop has, exactly as
:class:`~repro.service.manager.LockManager` is ``LockCore`` plus waiting:

* each operation runs the core op through the adapters' one driver,
  :func:`~repro.service.manager.drive`: when a
  :class:`~repro.service.park.Park` comes back (a gate or guard park, a
  leg's lock wait, a remote request) it awaits the park under the
  session's firm deadline and calls the op again with ``resume=park``;
  past the commit point a cancellation must not split an install across
  shards: the remaining installs are waited out and the cancellation is
  raised after the last one;
* with remote shards, ``stats_document`` / ``history_events`` fetch the
  shard documents over the wire (they then return a coroutine; the wire
  layer awaits either shape), and ``shutdown`` closes the connections.

Everything is notification-driven, with no timer: shard-side leg
aborts cascade to their global session synchronously from the shard's
``"abort"`` churn event, and predecessor terminals end exactly the
gate/guard parks indexed on them.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro.service.manager import drive
from repro.service.sharding.core import (  # noqa: F401 - re-exported
    GlobalSession,
    ShardedCore,
)


class ShardedLockManager(ShardedCore):
    """Serve a partitioned deployment to concurrent asyncio clients
    (arguments as :class:`~repro.service.sharding.core.ShardedCore`).

    Exposes the same surface as :class:`LockManager`, so the wire layer,
    the TCP server, and the load generator drive it unchanged.
    """

    async def begin(
        self, transaction: str, *, deadline_s: Optional[float] = None
    ) -> GlobalSession:
        """Open a global session (:meth:`ShardedCore.begin`; never waits)."""
        return ShardedCore.begin(self, transaction, deadline_s=deadline_s)

    async def read(self, session: GlobalSession, item: str) -> Any:
        """Read ``item`` (:meth:`ShardedCore.read`), waiting out its parks."""
        return await drive(self, ShardedCore.read, session, item)

    async def write(self, session: GlobalSession, item: str, value: Any) -> None:
        """Buffer a write (:meth:`ShardedCore.write`), waiting out its parks."""
        await drive(self, ShardedCore.write, session, item, value)

    async def commit(self, session: GlobalSession) -> Dict[str, Any]:
        """Commit (:meth:`ShardedCore.commit`), waiting out its parks."""
        return await drive(self, ShardedCore.commit, session)

    async def abort(self, session: GlobalSession, reason: str = "client") -> None:
        """Abort the session (:meth:`ShardedCore.abort`; never waits)."""
        ShardedCore.abort(self, session, reason)

    async def shutdown(self) -> None:
        """Abort every live session, shut every shard down."""
        closing = self._remote and not self._closed
        ShardedCore.shutdown(self)
        if closing:
            for shard in self.shards:
                await shard.shutdown()

    def stats_document(self) -> Dict[str, Any]:
        """:meth:`ShardedCore.stats_document`; a coroutine with remote
        shards, whose documents are wire fetches."""
        if self._remote:
            return self._stats_document_remote()
        return ShardedCore.stats_document(self)

    async def _stats_document_remote(self) -> Dict[str, Any]:
        docs = await asyncio.gather(
            *(shard.fetch_stats_document() for shard in self.shards)
        )
        doc = self._assemble_stats(docs)
        doc["shard_procs"] = len(self.shards)
        doc["deployment"] = "multiprocess"
        return doc

    def history_events(self) -> List[Dict[str, Any]]:
        """:meth:`ShardedCore.history_events`; a coroutine with remote
        shards, whose rows are wire fetches."""
        if self._remote:
            return self._history_events_remote()
        return ShardedCore.history_events(self)

    async def _history_events_remote(self) -> List[Dict[str, Any]]:
        fetched = await asyncio.gather(
            *(shard.fetch_history_events() for shard in self.shards)
        )
        return self._assemble_history(
            [row for rows in fetched for row in rows]
        )
