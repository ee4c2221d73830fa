"""Observability for the live lock-manager service.

Three kinds of signal, all cheap enough to record on every request:

* :class:`LatencyHistogram` — log-spaced buckets over seconds; used for
  end-to-end transaction latency and for per-request lock-wait time.
  Percentiles are answered from the buckets (resolution = bucket width),
  which is the standard service-side trade-off: O(1) record, bounded
  memory, no sample retention.
* per-priority-band blocking breakdown — the paper's headline quantity is
  *blocking time by priority level*; the service keeps, per base priority,
  the total/worst lock-wait time and the deny/grant counts, so a run can
  show directly that high-priority bands wait less under PCP-DA.
* monotonic counters — sessions, grants, denials, aborts, deadlocks,
  admission rejections, deadline aborts.

Sharded deployments add a fourth: :class:`ShardingStats`, the
coordinator-side counters (span classification, cross-shard commit
ratio, constraint-merge and gate/guard wait counts).  Per-shard
:class:`ServiceStats` fold into one lock-level union via
:meth:`ServiceStats.merge`.

Everything renders to text (the ``repro loadgen`` report) and to a plain
dict (the ``stats`` wire command), and is deliberately decoupled from the
manager so tests can assert on it in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Histogram bucket boundaries: 1 µs to ~67 s, quarter-decade-ish spacing
#: (factor 2 per bucket keeps the render compact while resolving the
#: microsecond-to-second range a local service actually spans).
_FIRST_BOUND = 1e-6
_FACTOR = 2.0
_N_BUCKETS = 28


def _bucket_bounds() -> Tuple[float, ...]:
    bounds = []
    edge = _FIRST_BOUND
    for _ in range(_N_BUCKETS):
        bounds.append(edge)
        edge *= _FACTOR
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket log histogram over non-negative latencies in seconds."""

    BOUNDS: Tuple[float, ...] = _bucket_bounds()

    def __init__(self) -> None:
        # counts[i] counts samples <= BOUNDS[i]; the final slot is overflow.
        self.counts: List[int] = [0] * (len(self.BOUNDS) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Record one sample (negative values clamp to zero)."""
        seconds = max(0.0, seconds)
        self.total += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds
        lo, hi = 0, len(self.BOUNDS)
        while lo < hi:
            mid = (lo + hi) // 2
            if seconds <= self.BOUNDS[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded samples (0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the ``p``-th percentile.

        ``p`` is in [0, 100].  Returns 0 for an empty histogram; the exact
        maximum is reported separately (:attr:`max`) because the overflow
        bucket has no upper bound.
        """
        if self.total == 0:
            return 0.0
        rank = math.ceil(self.total * min(max(p, 0.0), 100.0) / 100.0)
        rank = max(rank, 1)
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.BOUNDS[i] if i < len(self.BOUNDS) else self.max
        return self.max

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (bounds implied by the schema)."""
        return {
            "total": self.total,
            "sum_s": self.sum,
            "max_s": self.max,
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "LatencyHistogram":
        """Rebuild a histogram shipped over the wire."""
        hist = cls()
        counts = list(doc["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram bucket count mismatch: got {len(counts)}, "
                f"expected {len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.total = int(doc["total"])
        hist.sum = float(doc["sum_s"])
        hist.max = float(doc["max_s"])
        return hist

    def render(self, title: str = "latency", width: int = 40) -> str:
        """ASCII bar chart of the non-empty buckets, plus summary line."""
        lines = [
            f"{title}: n={self.total} mean={_fmt_s(self.mean)} "
            f"p50={_fmt_s(self.percentile(50))} "
            f"p95={_fmt_s(self.percentile(95))} "
            f"p99={_fmt_s(self.percentile(99))} max={_fmt_s(self.max)}"
        ]
        if self.total == 0:
            return lines[0]
        peak = max(self.counts)
        lower = 0.0
        for i, count in enumerate(self.counts):
            upper = self.BOUNDS[i] if i < len(self.BOUNDS) else float("inf")
            if count:
                bar = "#" * max(1, round(width * count / peak))
                upper_label = _fmt_s(upper) if upper != float("inf") else "inf"
                lines.append(
                    f"  {_fmt_s(lower):>8} .. {upper_label:>8} "
                    f"{count:>7} {bar}"
                )
            lower = upper
        return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    """Human latency formatting: µs / ms / s with 3 significant-ish digits."""
    if seconds == 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


@dataclass
class PriorityBandStats:
    """Blocking-time breakdown for one base-priority level."""

    priority: int
    commits: int = 0
    grants: int = 0
    denials: int = 0
    aborts: int = 0
    blocking_total_s: float = 0.0
    blocking_max_s: float = 0.0
    wait_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_wait(self, seconds: float) -> None:
        """Account one completed lock wait."""
        self.blocking_total_s += seconds
        self.blocking_max_s = max(self.blocking_max_s, seconds)
        self.wait_hist.record(seconds)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form, nested inside the ``stats`` document."""
        return {
            "priority": self.priority,
            "commits": self.commits,
            "grants": self.grants,
            "denials": self.denials,
            "aborts": self.aborts,
            "blocking_total_s": self.blocking_total_s,
            "blocking_max_s": self.blocking_max_s,
            "wait_hist": self.wait_hist.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "PriorityBandStats":
        band = cls(priority=int(doc["priority"]))
        band.commits = int(doc["commits"])
        band.grants = int(doc["grants"])
        band.denials = int(doc["denials"])
        band.aborts = int(doc["aborts"])
        band.blocking_total_s = float(doc["blocking_total_s"])
        band.blocking_max_s = float(doc["blocking_max_s"])
        band.wait_hist = LatencyHistogram.from_dict(doc["wait_hist"])
        return band

    def merge(self, other: "PriorityBandStats") -> None:
        """Fold another band record for the same priority into this one."""
        self.commits += other.commits
        self.grants += other.grants
        self.denials += other.denials
        self.aborts += other.aborts
        self.blocking_total_s += other.blocking_total_s
        self.blocking_max_s = max(self.blocking_max_s, other.blocking_max_s)
        self.wait_hist.merge(other.wait_hist)


#: The :class:`ServiceStats` counters, in ``stats`` document order.
COUNTERS = (
    "sessions_started", "sessions_rejected", "commits", "client_aborts",
    "forced_aborts", "deadline_aborts", "grants", "denials", "deadlocks",
    "requests",
)


class ServiceStats:
    """All service-side counters and histograms, in one introspectable bag."""

    def __init__(self) -> None:
        self.sessions_started = 0
        self.sessions_rejected = 0  # admission control (backpressure)
        self.commits = 0
        self.client_aborts = 0
        self.forced_aborts = 0      # deadlock victims, shutdown, cascades
        self.deadline_aborts = 0
        self.grants = 0
        self.denials = 0
        self.deadlocks = 0
        self.requests = 0           # wire/in-process requests dispatched
        self.commit_latency = LatencyHistogram()
        self.lock_wait = LatencyHistogram()
        self._bands: Dict[int, PriorityBandStats] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def band(self, priority: int) -> PriorityBandStats:
        """The (created-on-demand) band record for one base priority."""
        band = self._bands.get(priority)
        if band is None:
            band = self._bands[priority] = PriorityBandStats(priority)
        return band

    def record_grant(self, priority: int) -> None:
        """One lock request admitted without waiting (or after a wait)."""
        self.grants += 1
        self.band(priority).grants += 1

    def record_denial(self, priority: int) -> None:
        """One lock request that entered the grant queue."""
        self.denials += 1
        self.band(priority).denials += 1

    def record_wait(self, priority: int, seconds: float) -> None:
        """One completed wait in the grant queue (granted or aborted)."""
        self.lock_wait.record(seconds)
        self.band(priority).record_wait(seconds)

    def record_commit(self, priority: int, latency_s: float) -> None:
        """One committed session with its begin-to-commit latency."""
        self.commits += 1
        self.commit_latency.record(latency_s)
        self.band(priority).commits += 1

    def record_abort(self, priority: int, *, forced: bool) -> None:
        """One aborted session (``forced`` = service-initiated)."""
        if forced:
            self.forced_aborts += 1
        else:
            self.client_aborts += 1
        self.band(priority).aborts += 1

    def merge(self, other: "ServiceStats") -> None:
        """Fold another stats bag into this one (shard aggregation).

        Counters add, histograms merge bucket-wise, priority bands merge
        per priority.  The shard coordinator uses this to build the
        lock-level union of its shards; note that session-level scalars
        (sessions, commits, aborts) then count a cross-shard transaction
        once per touched shard — the coordinator overrides them with its
        own global counts in the stats document.
        """
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.commit_latency.merge(other.commit_latency)
        self.lock_wait.merge(other.lock_wait)
        for priority, band in other._bands.items():
            self.band(priority).merge(band)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bands(self) -> Tuple[PriorityBandStats, ...]:
        """Band records, highest priority first."""
        return tuple(
            self._bands[p] for p in sorted(self._bands, reverse=True)
        )

    def to_dict(self) -> Dict[str, Any]:
        """The full stats snapshot as shipped by the ``stats`` command."""
        doc: Dict[str, Any] = {name: getattr(self, name) for name in COUNTERS}
        doc["commit_latency"] = self.commit_latency.to_dict()
        doc["lock_wait"] = self.lock_wait.to_dict()
        doc["bands"] = [band.to_dict() for band in self.bands]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ServiceStats":
        """Rebuild a snapshot fetched over the wire (loadgen reporting)."""
        stats = cls()
        for name in COUNTERS:
            setattr(stats, name, int(doc[name]))
        stats.commit_latency = LatencyHistogram.from_dict(doc["commit_latency"])
        stats.lock_wait = LatencyHistogram.from_dict(doc["lock_wait"])
        for band_doc in doc["bands"]:
            band = PriorityBandStats.from_dict(band_doc)
            stats._bands[band.priority] = band
        return stats

    def render(self) -> str:
        """Multi-section text report (the ``repro loadgen`` footer)."""
        lines = [
            "service counters:",
            f"  sessions started={self.sessions_started} "
            f"rejected={self.sessions_rejected} commits={self.commits} "
            f"aborts={self.client_aborts}+{self.forced_aborts} forced "
            f"deadline_aborts={self.deadline_aborts}",
            f"  locks granted={self.grants} denied={self.denials} "
            f"deadlocks={self.deadlocks} requests={self.requests}",
            "",
            self.commit_latency.render("commit latency"),
            "",
            self.lock_wait.render("lock wait"),
        ]
        if self._bands:
            lines += ["", "blocking by priority band (highest first):"]
            lines.append(
                f"  {'prio':>5} {'commits':>8} {'grants':>7} {'denies':>7} "
                f"{'waits':>6} {'wait total':>11} {'wait max':>9} {'wait p95':>9}"
            )
            for band in self.bands:
                lines.append(
                    f"  {band.priority:>5} {band.commits:>8} {band.grants:>7} "
                    f"{band.denials:>7} {band.wait_hist.total:>6} "
                    f"{_fmt_s(band.blocking_total_s):>11} "
                    f"{_fmt_s(band.blocking_max_s):>9} "
                    f"{_fmt_s(band.wait_hist.percentile(95)):>9}"
                )
        return "\n".join(lines)


@dataclass
class ShardingStats:
    """Coordinator-level counters of a sharded deployment.

    Everything lock-level lives in the per-shard :class:`ServiceStats`;
    this bag counts what only the coordinator can see: span
    classification, cross-shard commits, how often the merged constraint
    graph was computed, and the waits/aborts the global gate, guard, and
    deadlock detector caused.  Shipped under the ``coordinator`` key of
    the sharded ``stats`` document.
    """

    #: Sessions whose declared access set spans exactly one shard.
    local_sessions: int = 0
    #: Sessions whose declared access set spans two or more shards.
    cross_shard_sessions: int = 0
    #: Commits that installed on more than one shard (atomic loop path).
    cross_shard_commits: int = 0
    #: Commits parked at the global gate at least once.
    gate_waits: int = 0
    #: Reads held back by the merged-graph order guard at least once.
    guard_waits: int = 0
    #: Merged-constraint-closure computations (gate/guard evaluations).
    constraint_merges: int = 0
    #: Global sessions torn down because a shard leg died underneath them.
    cascade_aborts: int = 0
    #: Wait cycles spanning shards/coordinator, resolved by victim abort.
    cross_shard_deadlocks: int = 0
    #: Time cross-shard commits spent parked at the global commit gate —
    #: kept apart from the shards' ``lock_wait`` so coordinator overhead
    #: stays attributable (it used to be folded into the merged
    #: histogram, where gate regressions were invisible).
    gate_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Time reads spent parked at the merged-graph order guard.
    guard_wait: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def cross_shard_ratio(self) -> float:
        """Fraction of sessions classified cross-shard (0 when none)."""
        total = self.local_sessions + self.cross_shard_sessions
        return self.cross_shard_sessions / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the ``coordinator`` stats section)."""
        return {
            "local_sessions": self.local_sessions,
            "cross_shard_sessions": self.cross_shard_sessions,
            "cross_shard_ratio": self.cross_shard_ratio,
            "cross_shard_commits": self.cross_shard_commits,
            "gate_waits": self.gate_waits,
            "guard_waits": self.guard_waits,
            "constraint_merges": self.constraint_merges,
            "cascade_aborts": self.cascade_aborts,
            "cross_shard_deadlocks": self.cross_shard_deadlocks,
            "gate_wait": self.gate_wait.to_dict(),
            "guard_wait": self.guard_wait.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ShardingStats":
        """Rebuild coordinator counters shipped over the wire."""
        stats = cls()
        for name in (
            "local_sessions", "cross_shard_sessions", "cross_shard_commits",
            "gate_waits", "guard_waits", "constraint_merges",
            "cascade_aborts", "cross_shard_deadlocks",
        ):
            setattr(stats, name, int(doc[name]))
        for name in ("gate_wait", "guard_wait"):
            setattr(stats, name, LatencyHistogram.from_dict(doc[name]))
        return stats

    def render(self) -> str:
        """One-paragraph text summary for the loadgen report footer."""
        return (
            "coordinator: sessions local={0} cross-shard={1} "
            "(ratio {2:.2f}) cross_shard_commits={3}\n"
            "  gate_waits={4} guard_waits={5} constraint_merges={6} "
            "cascade_aborts={7} cross_shard_deadlocks={8}\n"
            "  gate park: n={9} total={10} p95={11} max={12}\n"
            "  guard park: n={13} total={14} p95={15} max={16}".format(
                self.local_sessions, self.cross_shard_sessions,
                self.cross_shard_ratio, self.cross_shard_commits,
                self.gate_waits, self.guard_waits, self.constraint_merges,
                self.cascade_aborts, self.cross_shard_deadlocks,
                self.gate_wait.total, _fmt_s(self.gate_wait.sum),
                _fmt_s(self.gate_wait.percentile(95)),
                _fmt_s(self.gate_wait.max),
                self.guard_wait.total, _fmt_s(self.guard_wait.sum),
                _fmt_s(self.guard_wait.percentile(95)),
                _fmt_s(self.guard_wait.max),
            )
        )
