"""The array kernel: table-driven integer admission decisions.

One :class:`Kernel` instance serves one run (or one live lock-manager
shard).  It mirrors the run's :class:`~repro.engine.lock_table.LockTable`
into flat integer state —

* per-item **lock-mode words**: one int bitset of reader slots and one of
  writer slots per item id;
* per-item **ceiling levels** in the run's one
  :class:`~repro.engine.lock_table.CeilingIndex` (bump on grant, lazy
  repair on release), keyed by item id —

and answers every admission decision from the bound
:class:`~repro.engine.kernel.tables.ProtocolTable` without touching
``Job``/``frozenset`` machinery until a ``Deny`` must name its blockers.
Wait edges are *not* mirrored: the PCP-DA waiter exemption asks the run's
:class:`~repro.engine.inheritance.WaitForGraph`, whose reverse adjacency
answers "nobody waits on the requester" — the common case — in one dict
probe, and the excluded word is built only from a non-empty answer.

The lock mirror is fed by the lock table's notification hooks, so object
state and array state can never drift silently; ``self_check()``
re-derives everything from the object structures (and has the wait graph
check its own incremental state) and is wired into the differential
battery via ``SimConfig.debug_invariants``.

Decisions are **byte-identical** to the object path by construction: the
rule/reason strings come from the compiled table, ``Deny`` blocker tuples
are sorted by job release sequence exactly like the protocol objects sort
them, and the golden-trace corpus plus the Hypothesis differential tests
pin the equivalence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.engine.interfaces import Deny, Grant
from repro.engine.kernel.interning import Interner
from repro.engine.kernel.tables import (
    FAMILY_IPCP,
    FAMILY_PCPDA,
    FAMILY_SYSCEIL,
    FAMILY_WEAK_PCPDA,
    LEVEL_READ_WCEIL,
    LEVEL_RW,
    PCPDA_CEILING_REASON,
    ProtocolTable,
    TABLE1_REASON,
    WEAK_CEILING_REASON,
)
from repro.engine.lock_table import CeilingIndex
from repro.model.spec import DUMMY_PRIORITY, LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.inheritance import WaitForGraph
    from repro.engine.job import Job
    from repro.engine.lock_table import LockTable


def _seq_of(job: "Job") -> int:
    return job.seq


class Kernel:
    """Array-state admission engine for one (protocol, table, graph) run."""

    __slots__ = (
        "table_spec", "interner", "_lock_table", "_wait_graph",
        "_reader_word", "_writer_word", "_ceilings", "_jid",
        "_family", "_level_source", "_select_readers", "_waiter_exempt",
        "_wceil", "_aceil",
        "_grant_write", "_read_grants", "_decide_read",
    )

    def __init__(
        self,
        table_spec: ProtocolTable,
        taskset,
        lock_table: "LockTable",
        wait_graph: "Optional[WaitForGraph]" = None,
    ) -> None:
        self.table_spec = table_spec
        self.interner = Interner(taskset, table_spec.ceilings)
        self._jid = self.interner.intern_job
        n = len(self.interner.items)
        self._lock_table = lock_table
        self._wait_graph = wait_graph
        # ---- lock-mode words + ceiling levels ---------------------------
        self._reader_word: List[int] = [0] * n
        self._writer_word: List[int] = [0] * n
        self._ceilings = CeilingIndex()
        # ---- compiled table unpacked into slots ------------------------
        self._family = table_spec.family
        self._level_source = table_spec.level_source
        self._select_readers = table_spec.select_readers
        self._waiter_exempt = (
            table_spec.waiter_exempt and wait_graph is not None
        )
        self._wceil = self.interner.wceil
        self._aceil = self.interner.aceil
        self._grant_write = Grant(table_spec.write_grant_rule)
        self._read_grants = tuple(
            Grant(rule) for rule in table_spec.read_grant_rules
        )
        self._decide_read = {
            FAMILY_PCPDA: self._decide_read_pcpda,
            FAMILY_WEAK_PCPDA: self._decide_read_weak,
            FAMILY_SYSCEIL: self._decide_sysceil,
            FAMILY_IPCP: self._decide_ipcp,
        }[self._family]
        lock_table.attach_kernel_state(self)

    # ==================================================================
    # Mirror maintenance — driven by LockTable hooks
    # ==================================================================
    def rebuild(self, lock_table: "LockTable") -> None:
        """Re-derive the lock words and levels from the table's entries."""
        self._lock_table = lock_table
        n = len(self.interner.items)
        self._reader_word = [0] * n
        self._writer_word = [0] * n
        self._ceilings = CeilingIndex()
        intern = self.interner
        for item, entry in lock_table.all_entries().items():
            iid = intern.item_ids[item]
            for job in entry.readers:
                self._reader_word[iid] |= 1 << intern.intern_job(job)
            for job in entry.writers:
                self._writer_word[iid] |= 1 << intern.intern_job(job)
            self._refresh_level(iid)

    def on_grant(self, job: "Job", item: str, mode: LockMode) -> None:
        """Lock-table hook: set the holder bit and refresh the level."""
        iid = self.interner.item_ids[item]
        bit = 1 << self._jid(job)
        if mode is LockMode.READ:
            self._reader_word[iid] |= bit
        else:
            self._writer_word[iid] |= bit
        self._refresh_level(iid)

    def on_release(self, job: "Job", item: str, mode: LockMode) -> None:
        """Lock-table hook: clear the holder bit and refresh the level."""
        iid = self.interner.item_ids[item]
        bit = 1 << self._jid(job)
        if mode is LockMode.READ:
            self._reader_word[iid] &= ~bit
        else:
            self._writer_word[iid] &= ~bit
        self._refresh_level(iid)

    def _level_of(self, iid: int) -> int:
        """The ceiling level the item's lock words raise under the
        table's level source (``DUMMY_PRIORITY``: none)."""
        readers = self._reader_word[iid]
        source = self._level_source
        if source == LEVEL_READ_WCEIL:
            return self._wceil[iid] if readers else DUMMY_PRIORITY
        writers = self._writer_word[iid]
        if not (readers or writers):
            return DUMMY_PRIORITY
        if source == LEVEL_RW and not writers:
            return self._wceil[iid]
        return self._aceil[iid]  # LEVEL_ACEIL, or LEVEL_RW write-locked

    def _refresh_level(self, iid: int) -> None:
        self._ceilings.update(iid, self._level_of(iid))

    def retire(self, job: "Job") -> None:
        """Recycle a finished job's slot (service sessions churn jobs).

        Callers must have released the job's locks first; the slot is
        kept (not recycled) while the lock table still shows a holding, so
        a misuse degrades to the old grow-only behaviour instead of
        corrupting another job's bitsets.
        """
        if not self._lock_table.iter_items_held_by(job):
            self.interner.release_job(job)

    # ==================================================================
    # Ceiling queries
    # ==================================================================
    def _scan(self, excluded_word: int) -> Tuple[int, int]:
        """Highest current level among items with a relevant holder outside
        ``excluded_word``, plus the bit-union of those holders over every
        item at that level.  ``(0, 0)`` when nothing qualifies."""
        readers = self._reader_word
        writers = self._writer_word
        keep = ~excluded_word
        if self._select_readers:
            def holders_of(iid: int) -> int:
                return readers[iid] & keep
        else:
            def holders_of(iid: int) -> int:
                return (readers[iid] | writers[iid]) & keep
        level, iids = self._ceilings.scan(holders_of)
        holders = 0
        for iid in iids:
            holders |= holders_of(iid)
        return level, holders

    def system_ceiling(self, exclude: "Optional[Job]" = None) -> int:
        """Current system ceiling (global when ``exclude`` is ``None``).

        The global query is amortised O(1): with no exclusions the top
        live level qualifies by construction (a non-zero level implies a
        relevant holder).
        """
        if exclude is not None:
            jid = self.interner.job_ids.get(exclude)
            if jid is not None:
                return self._scan(1 << jid)[0]
        return self._ceilings.top()

    # ==================================================================
    # Decisions
    # ==================================================================
    def decide(self, job: "Job", item: str, mode: LockMode):
        """Admission decision; mirrors ``protocol.decide`` byte-for-byte."""
        iid = self.interner.item_ids[item]
        if mode is LockMode.WRITE and self._family != FAMILY_SYSCEIL \
                and self._family != FAMILY_IPCP:
            # Shared-read families (PCP-DA, weak PCP-DA): LC1.
            me = 1 << self._jid(job)
            others = self._reader_word[iid] & ~me
            if not others:
                return self._grant_write
            return Deny(
                self._sorted_jobs(others),
                self.table_spec.write_conflict_reason,
            )
        return self._decide_read(job, iid)

    def decide_batch(self, requests: Sequence, on_deny=None, pre_decide=None):
        """Decide ``requests`` (``(job, item, mode)`` tuples) in order,
        stopping after the first non-``Deny`` decision; returns the
        decisions made.

        ``pre_decide(request)`` may answer a request ahead of the table
        (the service's commit fence and order guard) or return ``None``;
        it runs per request, in order, so it sees the blame the denials
        before it refreshed and is never evaluated past the first grant.

        ``on_deny(request, decision)`` runs after each denial *before* the
        next request is decided, so callers can refresh wait-graph blame
        between decisions exactly like the one-at-a-time loop did (a
        denial's inheritance edges can change the next requester's
        transitive-waiter exemption).
        """
        out = []
        for request in requests:
            decision = pre_decide(request) if pre_decide is not None else None
            if decision is None:
                decision = self.decide(request[0], request[1], request[2])
            out.append(decision)
            if not isinstance(decision, Deny):
                break
            if on_deny is not None:
                on_deny(request, decision)
        return out

    def _sorted_jobs(self, word: int) -> Tuple["Job", ...]:
        jobs = self.interner.jobs_from_word(word)
        jobs.sort(key=_seq_of)
        return tuple(jobs)

    # ---- family: PCP-DA ----------------------------------------------
    def _decide_read_pcpda(self, job: "Job", iid: int):
        intern = self.interner
        jid = self._jid(job)
        me = 1 << jid
        excluded = me
        if self._waiter_exempt:
            # A waiter the kernel never met holds no lock: nothing to exempt.
            job_ids = intern.job_ids
            for waiter in self._wait_graph.transitive_waiters_on(job):
                wid = job_ids.get(waiter)
                if wid is not None:
                    excluded |= 1 << wid
        sysceil, tstar = self._scan(excluded)
        spec = self.table_spec
        priority = job.running_priority

        # Table-1 footnote against the item's current write holders.
        violators = 0
        write_mask = intern.job_write_mask[jid]
        if spec.enable_table1:
            word = self._writer_word[iid] & ~me
            while word:
                low = word & -word
                word ^= low
                if intern.read_mask(low.bit_length() - 1) & write_mask:
                    violators |= low

        lc2 = priority > sysceil
        if lc2 and not violators:
            return self._read_grants[0]  # LC2
        lc3 = lc4 = False
        if tstar:
            union_writes = 0
            word = tstar
            while word:
                low = word & -word
                word ^= low
                union_writes |= intern.job_write_mask[low.bit_length() - 1]
            item_outside = not (union_writes >> iid) & 1
            hpw = self._wceil[iid]
            if spec.enable_lc3 and priority > hpw and item_outside:
                lc3 = True
            elif (
                spec.enable_lc4
                and priority == hpw
                and item_outside
                and not self._reader_word[iid] & ~excluded
            ):
                lc4 = True
                word = tstar
                while word:
                    low = word & -word
                    word ^= low
                    if intern.read_mask(low.bit_length() - 1) & write_mask:
                        lc4 = False
                        break
        if not violators and (lc2 or lc3 or lc4):
            return self._read_grants[0 if lc2 else (1 if lc3 else 2)]
        if violators:
            return Deny(self._sorted_jobs(violators), TABLE1_REASON)
        return Deny(self._sorted_jobs(tstar), PCPDA_CEILING_REASON)

    # ---- family: weak PCP-DA -----------------------------------------
    def _decide_read_weak(self, job: "Job", iid: int):
        me = 1 << self._jid(job)
        sysceil, holders = self._scan(me)
        priority = job.running_priority
        if priority > sysceil:
            return self._read_grants[0]  # cond(1) P>Sysceil
        if priority >= self._wceil[iid]:
            return self._read_grants[1]  # cond(2) P>=HPW
        return Deny(self._sorted_jobs(holders), WEAK_CEILING_REASON)

    # ---- family: RW-PCP / CCP / original PCP -------------------------
    def _decide_sysceil(self, job: "Job", iid: int):
        me = 1 << self._jid(job)
        sysceil, holders = self._scan(me)
        if job.running_priority > sysceil:
            return self._read_grants[0]  # P>Sysceil
        spec = self.table_spec
        locked = (self._reader_word[iid] | self._writer_word[iid]) & ~me
        reason = spec.conflict_reason if locked else spec.ceiling_reason
        return Deny(self._sorted_jobs(holders), reason)

    # ---- family: IPCP ------------------------------------------------
    def _decide_ipcp(self, job: "Job", iid: int):
        me = 1 << self._jid(job)
        holders = (self._reader_word[iid] | self._writer_word[iid]) & ~me
        if not holders:
            return self._read_grants[0]  # ceiling-elevated
        return Deny(self._sorted_jobs(holders), self.table_spec.conflict_reason)

    # ==================================================================
    # Differential verification
    # ==================================================================
    def self_check(self) -> None:
        """Assert the array mirrors equal a from-scratch re-derivation
        of the lock table, and the wait graph its own edges
        (differential-battery hook)."""
        intern = self.interner
        n = len(intern.items)
        readers = [0] * n
        writers = [0] * n
        for item, entry in self._lock_table.all_entries().items():
            iid = intern.item_ids[item]
            for job in entry.readers:
                readers[iid] |= 1 << intern.job_ids[job]
            for job in entry.writers:
                writers[iid] |= 1 << intern.job_ids[job]
        if readers != self._reader_word or writers != self._writer_word:
            raise AssertionError("kernel lock words diverged from the table")
        levels = ((iid, self._level_of(iid)) for iid in range(n))
        self._ceilings.self_check(
            {iid: level for iid, level in levels if level != DUMMY_PRIORITY}
        )
        if self._wait_graph is not None:
            self._wait_graph.self_check()
