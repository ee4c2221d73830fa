"""Property test: :class:`~repro.service.constraints.ConstraintGraph`
against a brute-force reference, over random edit sequences.

The graph is the one ``reader ≺ writer`` registry of the service (manager
over jobs, coordinator over global sessions, proxy over mirror jobs), so
its contract is pinned once, here: the memoised closure is never stale,
``drop`` leaves no incident edge and no empty bucket behind, and ``add``
reports ``False`` exactly on a repeat.  Cycles and self-loops are legal
inputs — edges recorded on different shards can cross.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.constraints import ConstraintGraph

_NODES = st.integers(min_value=0, max_value=5)

_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _NODES, _NODES),
        st.tuples(st.just("drop"), _NODES),
        st.tuples(st.just("query"), _NODES),
    ),
    max_size=40,
)


def _closure(edges, node):
    """Nodes with a path to ``node`` (itself excluded), by fixpoint."""
    reach = set()
    grew = True
    while grew:
        grew = False
        for pred, succ in edges:
            if (succ == node or succ in reach) and pred != node \
                    and pred not in reach:
                reach.add(pred)
                grew = True
    return reach


def _assert_matches(graph, edges):
    assert bool(graph) == bool(edges)
    for node in range(6):
        assert graph.direct_preds(node) == {p for p, s in edges if s == node}
        assert graph.preds(node) == _closure(edges, node)
    # No empty bucket, and forward and reverse adjacency agree.
    assert all(graph._pred.values()) and all(graph._succ.values())
    assert {(p, s) for s, ps in graph._pred.items() for p in ps} == edges
    assert {(p, s) for p, ss in graph._succ.items() for s in ss} == edges


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS)
def test_graph_equals_brute_force_after_every_edit(edits):
    graph = ConstraintGraph()
    edges = set()
    for edit in edits:
        if edit[0] == "add":
            _, pred, succ = edit
            assert graph.add(pred, succ) == ((pred, succ) not in edges)
            edges.add((pred, succ))
        elif edit[0] == "drop":
            node = edit[1]
            graph.drop(node)
            edges = {e for e in edges if node not in e}
        else:
            # A query primes the memo; the edits that follow must dirty it.
            assert graph.preds(edit[1]) == _closure(edges, edit[1])
            continue
        _assert_matches(graph, edges)


def test_closure_is_memoised_until_an_edge_changes():
    graph = ConstraintGraph()
    graph.add("r", "w")
    graph.add("q", "r")
    memo = graph.preds("w")
    assert memo == {"r", "q"}
    assert graph.preds("w") is memo
    assert not graph.add("r", "w")          # a repeat changes nothing …
    assert graph.preds("w") is memo         # … so the memo survives it
    graph.drop("bystander")                 # so does dropping a non-node
    assert graph.preds("w") is memo
    assert graph.add("p", "q")
    assert graph.preds("w") == {"r", "q", "p"}
    graph.drop("q")
    assert graph.preds("w") == {"r"}


def test_a_cycle_is_recorded_and_never_makes_a_node_its_own_predecessor():
    graph = ConstraintGraph()
    assert graph.add("a", "b") and graph.add("b", "a")
    assert graph.preds("a") == {"b"} and graph.preds("b") == {"a"}
    graph.drop("a")
    assert not graph and graph.preds("b") == set()
