"""Conflict-serializability checking over committed histories.

This module turns a :class:`repro.db.history.History` into ``SG(H)`` and
checks acyclicity (the paper's Theorem 3 correctness criterion).

Edge construction, with writes modelled as *installed versions*:

* ``ww`` — for each item, consecutive installs by distinct jobs are ordered
  by install sequence.  (The paper argues blind writes need not constrain
  the serialization order; with deferred updates the install order *is* the
  commit order, so these edges are automatically consistent and never create
  a cycle on their own.)
* ``wr`` — a read that observed version ``v`` is preceded by the job that
  installed ``v``.
* ``rw`` — a read that observed version ``v`` of item ``x`` precedes every
  job that installed a later version of ``x``.

Because the engine binds every read to a concrete version, this check is
exact — no approximation of "read before/after write" by timestamps.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.db.history import History
from repro.db.serialization_graph import SerializationGraph
from repro.exceptions import SerializationViolation


def build_serialization_graph(history: History) -> SerializationGraph:
    """Construct ``SG(H)`` from a committed history."""
    graph = SerializationGraph(history.committed_jobs)

    # Installed versions per item, ordered by global install sequence.
    installs_by_item: Dict[str, List[Tuple[int, str]]] = {}
    for event in history.installs():
        assert event.item is not None and event.version_seq is not None
        installs_by_item.setdefault(event.item, []).append(
            (event.version_seq, event.job)
        )
    for versions in installs_by_item.values():
        versions.sort()

    # ww edges: install order per item.
    for item, versions in installs_by_item.items():
        for (_, earlier), (_, later) in zip(versions, versions[1:]):
            graph.add_edge(earlier, later, "ww")

    # wr and rw edges.
    committed = set(history.committed_jobs)
    for event in history.committed_reads():
        item = event.item
        assert item is not None and event.version_seq is not None
        observed_seq = event.version_seq
        for seq, writer in installs_by_item.get(item, ()):
            if writer not in committed:
                continue
            if seq == observed_seq:
                graph.add_edge(writer, event.job, "wr")
            elif seq > observed_seq:
                graph.add_edge(event.job, writer, "rw")
    return graph


def build_sparse_serialization_graph(history: History) -> SerializationGraph:
    """Construct a reachability-equivalent sparse variant of ``SG(H)``.

    :func:`build_serialization_graph` materialises every ``rw`` edge — a
    read that observed version ``v`` points at *every* later installer —
    which is quadratic per item and prohibitive for the stress harness's
    100k-transaction histories.  This variant keeps only:

    * ``ww`` — consecutive installs per item (identical to the dense
      graph's edges);
    * ``wr`` — installer of the observed version → reader (found by
      binary search instead of a scan);
    * ``rw`` — reader → the *first committed* later installer only.

    The dropped ``rw`` edges are redundant for acyclicity: the kept
    edges are a subset of the dense graph's (so a sparse cycle is a
    dense cycle), and every dropped edge reader → ``w`` is covered by
    the kept ``rw`` edge to the first committed later installer followed
    by the ``ww`` chain up to ``w`` (so a dense cycle maps to a sparse
    one) — the two checks render identical verdicts on any history.
    Construction is ``O(events · log versions)`` with ``O(events)`` edges.
    """
    import bisect

    graph = SerializationGraph(history.committed_jobs)

    installs_by_item: Dict[str, List[Tuple[int, str]]] = {}
    for event in history.installs():
        assert event.item is not None and event.version_seq is not None
        installs_by_item.setdefault(event.item, []).append(
            (event.version_seq, event.job)
        )
    committed = set(history.committed_jobs)
    # item -> its install sequence numbers, ascending: built once per
    # item, binary-searched once per read.
    seqs_by_item: Dict[str, List[int]] = {}
    for item, versions in installs_by_item.items():
        versions.sort()
        seqs_by_item[item] = [seq for seq, _ in versions]
        # ww chain between consecutive installers — exactly the dense
        # graph's ww edges (uncommitted installers included), so any rw
        # target can reach every later installer along the chain.
        for (_, earlier), (_, later) in zip(versions, versions[1:]):
            graph.add_edge(earlier, later, "ww")

    for event in history.committed_reads():
        item = event.item
        assert item is not None and event.version_seq is not None
        versions = installs_by_item.get(item, [])
        index = bisect.bisect_left(
            seqs_by_item.get(item, ()), event.version_seq
        )
        if index < len(versions) and versions[index][0] == event.version_seq:
            writer = versions[index][1]
            if writer in committed:
                graph.add_edge(writer, event.job, "wr")
            index += 1
        # First *committed* installer of a later version; uncommitted
        # installers never carry wr/rw edges, so skipping them preserves
        # reachability among the committed jobs.
        while index < len(versions):
            writer = versions[index][1]
            if writer in committed:
                graph.add_edge(event.job, writer, "rw")
                break
            index += 1
    return graph


def check_serializable(history: History) -> SerializationGraph:
    """Assert that ``history`` is conflict serializable.

    Returns:
        The serialization graph, for further inspection.

    Raises:
        SerializationViolation: carrying a witness cycle, when ``SG(H)``
        is cyclic.
    """
    graph = build_serialization_graph(history)
    cycle = graph.find_cycle()
    if cycle is not None:
        raise SerializationViolation(cycle)
    return graph


def check_serializable_fast(history: History) -> SerializationGraph:
    """Acyclicity check via the sparse graph — for very large histories.

    Same verdict as :func:`check_serializable` on any history (see
    :func:`build_sparse_serialization_graph`), but edge construction and
    cycle detection stay near-linear in the number of history events, so
    the stress harness can replay 100k-transaction overload traces in
    seconds.  The witness cycle may name a different (equally valid)
    cycle than the dense check would.

    Raises:
        SerializationViolation: carrying a witness cycle when cyclic.
    """
    graph = build_sparse_serialization_graph(history)
    cycle = graph.find_cycle()
    if cycle is not None:
        raise SerializationViolation(cycle)
    return graph


def serialization_order(history: History) -> Tuple[str, ...]:
    """Return one equivalent serial order of the committed jobs.

    Raises:
        SerializationViolation: when the history is not serializable.
    """
    graph = check_serializable(history)
    order = graph.topological_order()
    assert order is not None  # check_serializable guarantees acyclicity
    return order
