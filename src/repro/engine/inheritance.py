"""Priority inheritance over the wait-for graph.

The paper's mechanism: "If a transaction blocks a higher priority
transaction, its running priority will inherit that of the higher priority
transaction" — transitively, until the blocker releases the locks involved.

This module owns the one wait-for structure of a run (waiter -> blockers,
plus the reverse adjacency blocker -> direct waiters) and answers the
three questions the engine, the array kernel and the lock-manager service
ask of it:

* **inheritance** — every job's running priority is::

      running(j) = max(base(j), max{ running(w) : j blocks w })

* **the waiter exemption** — who is transitively blocked on a requester
  (Lemma 8 / Theorem 2);
* **deadlock** — whether the edges close a cycle.

The simulator's task sets are tens of transactions, but the service keeps
hundreds of sessions live and asks all three questions on every park and
every commit, so each is answered from what changed rather than by
rescanning every edge: the reverse adjacency makes ``waiters_on`` /
``transitive_waiters_on`` / ``forget`` cost O(answer); the inheritance
pass returns at once when no edge moved and otherwise recomputes only the
jobs downstream of the blockers whose waiters changed; and only edges
written since the last clean cycle check can close a cycle, so the search
starts from those waiters alone.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Container, Dict, Iterable, List, Optional, Set, Tuple,
)

from repro.engine.job import Job

_NO_JOBS: "AbstractSet[Job]" = frozenset()


class WaitForGraph:
    """Waiter -> blockers edges, with inheritance and cycle detection."""

    def __init__(self) -> None:
        self._blocked_on: Dict[Job, Tuple[Job, ...]] = {}
        #: Reverse adjacency: blocker -> its direct waiters (dict as an
        #: insertion-ordered set).  An entry dies with its last edge.
        self._waiters_of: Dict[Job, Dict[Job, None]] = {}
        #: Waiters whose blockers do NOT inherit (2PL-HP, plain 2PL).  The
        #: edges still exist for deadlock detection.
        self._no_inherit: Set[Job] = set()
        #: Blockers that gained or lost a waiter since the last
        #: inheritance pass: the only jobs whose priority — and, through
        #: them, their own blockers' — that pass can move.
        self._stale: Set[Job] = set()
        #: Waiters whose edges were written since the last clean cycle
        #: check.  Invariant: without their out-edges the graph is acyclic.
        self._unchecked: Set[Job] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def block(self, waiter: Job, blockers: Iterable[Job], inherit: bool = True) -> bool:
        """Record that ``waiter`` waits on ``blockers`` (replacing old edges).

        Returns whether anything changed: re-recording the edges a waiter
        already has is free and reports ``False``.
        """
        blockers = tuple(blockers)
        assert waiter not in blockers, f"{waiter.name} cannot block on itself"
        old = self._blocked_on.get(waiter)
        if old == blockers and (waiter not in self._no_inherit) == inherit:
            return False
        if old:
            self._unlink(waiter, old)
        self._stale.update(blockers)
        self._blocked_on[waiter] = blockers
        waiters_of = self._waiters_of
        for blocker in blockers:
            direct = waiters_of.get(blocker)
            if direct is None:
                waiters_of[blocker] = {waiter: None}
            else:
                direct[waiter] = None
        if inherit:
            self._no_inherit.discard(waiter)
        else:
            self._no_inherit.add(waiter)
        self._unchecked.add(waiter)
        return True

    def unblock(self, waiter: Job) -> None:
        """Remove ``waiter``'s wait edges (its request was granted)."""
        old = self._blocked_on.pop(waiter, None)
        if old is None:
            return
        self._unlink(waiter, old)
        self._no_inherit.discard(waiter)
        self._unchecked.discard(waiter)

    def forget(self, job: Job) -> None:
        """Remove the job entirely (commit/abort): as waiter and as blocker."""
        self.unblock(job)
        direct = self._waiters_of.pop(job, None)
        if direct is None:
            return
        self._stale.add(job)
        blocked_on = self._blocked_on
        for waiter in direct:
            remaining = tuple(b for b in blocked_on[waiter] if b is not job)
            if remaining:
                blocked_on[waiter] = remaining
            else:
                # The waiter's retry is triggered by the caller; keep an
                # empty edge set out of the graph.
                del blocked_on[waiter]
                self._no_inherit.discard(waiter)
                self._unchecked.discard(waiter)

    def _unlink(self, waiter: Job, blockers: Tuple[Job, ...]) -> None:
        self._stale.update(blockers)
        waiters_of = self._waiters_of
        for blocker in blockers:
            direct = waiters_of.get(blocker)
            if direct is not None:
                direct.pop(waiter, None)
                if not direct:
                    del waiters_of[blocker]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def blockers_of(self, waiter: Job) -> Tuple[Job, ...]:
        """The jobs ``waiter`` currently waits on (empty when not blocked)."""
        return self._blocked_on.get(waiter, ())

    def waiters(self) -> Tuple[Job, ...]:
        """Every currently blocked job."""
        return tuple(self._blocked_on)

    def is_blocked(self, job: Job) -> bool:
        """Whether ``job`` currently waits on anyone."""
        return job in self._blocked_on

    def waiters_on(self, blocker: Job) -> Tuple[Job, ...]:
        """Jobs directly waiting on ``blocker``."""
        return tuple(self._waiters_of.get(blocker, ()))

    def transitive_waiters_on(self, blocker: Job) -> "AbstractSet[Job]":
        """Every job transitively blocked waiting on ``blocker`` (a set;
        empty — and free — for a job nobody waits on).

        Used by PCP-DA's locking conditions: Lemma 8 / Theorem 2 require
        that locks held by a transaction *waiting on the requester* never
        deny the requester (a waiter cannot make progress until the
        requester does, so treating its read locks as active ceilings
        would manufacture exactly the wait cycle the theorem rules out).
        """
        waiters_of = self._waiters_of
        direct = waiters_of.get(blocker)
        if direct is None:
            return _NO_JOBS
        out = set(direct)
        frontier = list(direct)
        while frontier:
            for waiter in waiters_of.get(frontier.pop(), ()):
                if waiter not in out:
                    out.add(waiter)
                    frontier.append(waiter)
        return out

    # ------------------------------------------------------------------
    # Priority inheritance
    # ------------------------------------------------------------------
    def recompute_priorities(
        self,
        live: "Container[Job]",
        floor: "Optional[callable]" = None,
    ) -> List[Job]:
        """Bring running priorities up to date with the edges; returns the
        ``live`` jobs whose priority changed (in no particular order).

        The result is that of resetting every job in ``live`` to its base
        priority (lifted to the protocol's ``floor``, e.g. IPCP's lock
        ceilings) and propagating inheritance along the wait-for edges to
        a fixpoint.  Without a floor only edges move priorities, and they
        move them downstream only (waiter to blocker): the pass returns at
        once when no edge changed since the last one, and otherwise
        recomputes just the blockers whose waiters changed and whatever
        those are themselves blocked on — every other job keeps a value
        that is already the fixpoint's.  ``live`` then needs ``in`` alone.
        With a floor, ``live`` is iterated and every job re-evaluated.
        """
        blocked_on = self._blocked_on
        no_inherit = self._no_inherit
        stale = self._stale
        if floor is not None:
            stale.clear()
            priority = {
                job: max(job.base_priority, floor(job)) for job in live
            }
            for job in blocked_on.keys() | self._waiters_of.keys():
                if job not in priority:
                    priority[job] = job.running_priority
            region: Iterable[Job] = blocked_on
        else:
            if not stale:
                return []
            region = set()
            frontier = list(stale)
            stale.clear()
            while frontier:
                job = frontier.pop()
                if job not in region:
                    region.add(job)
                    if job not in no_inherit:
                        frontier.extend(blocked_on.get(job, ()))
            # Start from base plus what waiters outside the region (whose
            # own priorities cannot move) already pass on.
            waiters_of = self._waiters_of
            priority = {}
            for job in region:
                level = (
                    job.base_priority if job in live else job.running_priority
                )
                for waiter in waiters_of.get(job, ()):
                    if (
                        waiter.running_priority > level
                        and waiter not in region
                        and waiter not in no_inherit
                    ):
                        level = waiter.running_priority
                priority[job] = level
        moved = True
        while moved:
            moved = False
            for waiter in region:
                blockers = blocked_on.get(waiter)
                if not blockers or waiter in no_inherit:
                    continue
                inherited = priority[waiter]
                for blocker in blockers:
                    if priority[blocker] < inherited:
                        priority[blocker] = inherited
                        moved = True
        changed: List[Job] = []
        for job, new in priority.items():
            if new != job.running_priority:
                job.running_priority = new
                job.dkey = (-new, job.arrival, job.seq)
                if job in live:
                    changed.append(job)
        return changed

    # ------------------------------------------------------------------
    # Deadlock detection
    # ------------------------------------------------------------------
    def find_new_cycle(self) -> Optional[Tuple[Job, ...]]:
        """The cycle :meth:`find_cycle` would report, at the cost of the
        edges written since the last call that found none.

        Removing edges cannot close a cycle, so every cycle runs through a
        waiter re-pointed since the last clean check; when the subgraph
        reachable from those waiters is acyclic, so is the whole graph.
        The full deterministic search runs only to *name* a cycle already
        known to exist.
        """
        unchecked = self._unchecked
        if not unchecked:
            return None
        if self._reaches_cycle(unchecked):
            return self.find_cycle()
        unchecked.clear()
        return None

    def _reaches_cycle(self, roots: Iterable[Job]) -> bool:
        """Whether a cycle is reachable from ``roots`` (plain DFS)."""
        blocked_on = self._blocked_on
        finished: Set[Job] = set()
        for root in roots:
            if root in finished:
                continue
            on_path = {root}
            stack = [(root, iter(blocked_on.get(root, ())))]
            while stack:
                node, successors = stack[-1]
                for nxt in successors:
                    if nxt in on_path:
                        return True
                    if nxt in finished:
                        continue
                    onward = blocked_on.get(nxt)
                    if onward is None:
                        finished.add(nxt)  # not waiting: a dead end
                        continue
                    on_path.add(nxt)
                    stack.append((nxt, iter(onward)))
                    break
                else:
                    stack.pop()
                    on_path.discard(node)
                    finished.add(node)
        return False

    def find_cycle(self) -> Optional[Tuple[Job, ...]]:
        """Return jobs forming a wait-for cycle, or ``None``.

        Deterministic: exploration follows job release order.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[Job, int] = {}
        parent: Dict[Job, Optional[Job]] = {}

        def succ(job: Job) -> List[Job]:
            return sorted(self._blocked_on.get(job, ()), key=lambda j: j.seq)

        roots = sorted(self._blocked_on, key=lambda j: j.seq)
        for root in roots:
            if colour.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[Job, List[Job]]] = [(root, succ(root))]
            colour[root] = GREY
            parent[root] = None
            while stack:
                node, nxts = stack[-1]
                advanced = False
                while nxts:
                    nxt = nxts.pop(0)
                    state = colour.get(nxt, WHITE)
                    if state == WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, succ(nxt)))
                        advanced = True
                        break
                    if state == GREY:
                        cycle = [node]
                        cur = node
                        while cur is not nxt:
                            cur = parent[cur]  # type: ignore[assignment]
                            cycle.append(cur)
                        cycle.reverse()
                        return tuple(cycle)
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    # ------------------------------------------------------------------
    # Differential verification
    # ------------------------------------------------------------------
    def self_check(self) -> None:
        """Assert the incremental state equals a from-scratch scan of the
        edges (differential-battery hook, like ``CeilingIndex.self_check``)."""
        expected: Dict[Job, Set[Job]] = {}
        for waiter, blockers in self._blocked_on.items():
            for blocker in blockers:
                expected.setdefault(blocker, set()).add(waiter)
        actual = {b: set(ws) for b, ws in self._waiters_of.items()}
        if actual != expected:
            raise AssertionError("reverse adjacency diverged from the edges")
        if not self._unchecked <= self._blocked_on.keys():
            raise AssertionError("cycle-check worklist names a non-waiter")
        if not self._unchecked and self.find_cycle() is not None:
            raise AssertionError("a wait-for cycle escaped the edge-local check")
