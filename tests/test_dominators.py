"""Dominator analysis: parsing, the fixpoint, stats, and the generator.

The reference implementation here computes dominator sets over plain
integer bitmasks (one bit per vertex) with the classic iterate-until-
stable dataflow loop; the multimap-backed analysis must agree with it
exactly on every reachable vertex.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leantrie import PersistentMultiMap, PersistentSet, multimap
from leantrie.dominators import (
    DOMINATOR_COLUMNS,
    CfgGraph,
    GraphError,
    _dominator_fixpoint,
    _reverse_postorder,
    analyze_graph,
    compute_dominators,
    compute_preds,
    parse_edge_list,
    random_cfg,
)


def reachable_from_entry(graph):
    succs = {}
    for s, d in graph.edges:
        succs.setdefault(s, set()).add(d)
    seen = {graph.entry}
    stack = [graph.entry]
    while stack:
        for nxt in succs.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def bitmask_dominators(graph):
    """Reference dominator sets, as {vertex: frozenset} over reachable
    vertices.  Unreachable vertices hold the all-ones top element and
    never constrain anything, mirroring an absent entry."""
    n = graph.vertex_count
    preds = {}
    for s, d in graph.edges:
        preds.setdefault(d, set()).add(s)
    full = (1 << n) - 1
    dom = [full] * n
    dom[graph.entry] = 1 << graph.entry
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if v == graph.entry:
                continue
            acc = full
            for p in preds.get(v, ()):
                acc &= dom[p]
            acc |= 1 << v
            if acc != dom[v]:
                dom[v] = acc
                changed = True
    return {
        v: frozenset(i for i in range(n) if dom[v] >> i & 1)
        for v in reachable_from_entry(graph)
    }


def full_pass_fixpoint(graph):
    """Reference ``(dominator multimap, iterations)`` from the fixpoint that
    recomputes every reachable vertex on every pass."""
    order, _ = _reverse_postorder(graph)
    entry = graph.entry
    pred_lists = {}
    for d, s in compute_preds(graph).items():
        pred_lists.setdefault(d, []).append(s)
    dom = multimap([(entry, entry)])
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for n in order:
            if n == entry:
                continue
            operands = [s for p in pred_lists[n] if (s := dom.get(p))]
            acc = operands[0]
            for other in operands[1:]:
                acc = acc & other
            rewritten = dom.put_all(n, acc.add(n))
            if rewritten is not dom:
                changed = True
                dom = rewritten
    return dom, iterations


def dominator_sets(graph):
    dom = compute_dominators(graph)
    return {v: frozenset(dom.get(v)) for v in dom.keys()}


DIAMOND = CfgGraph(
    name="diamond",
    entry=0,
    vertex_names=("a", "b", "c", "d"),
    edges=((0, 1), (0, 2), (1, 3), (2, 3)),
)


# -- hand-checked fixpoints ------------------------------------------------------------


def test_diamond_join_is_dominated_only_by_the_entry():
    assert dominator_sets(DIAMOND) == {
        0: frozenset({0}),
        1: frozenset({0, 1}),
        2: frozenset({0, 2}),
        3: frozenset({0, 3}),
    }


def test_chain_dominators_accumulate():
    chain = parse_edge_list("entry a\na b\nb c\nc d\n", name="chain")
    assert dominator_sets(chain) == {
        0: frozenset({0}),
        1: frozenset({0, 1}),
        2: frozenset({0, 1, 2}),
        3: frozenset({0, 1, 2, 3}),
    }


def test_single_vertex_graph():
    lone = parse_edge_list("entry only\n")
    assert dominator_sets(lone) == {0: frozenset({0})}


def test_loop_back_edge_does_not_disturb_dominators():
    looped = parse_edge_list(
        "entry a\na b\nb c\nc b\nc d\n", name="loop"
    )
    assert dominator_sets(looped) == {
        0: frozenset({0}),
        1: frozenset({0, 1}),
        2: frozenset({0, 1, 2}),
        3: frozenset({0, 1, 2, 3}),
    }


def test_iteration_count_includes_the_confirming_pass():
    cases = [(DIAMOND, 2)]  # one changing pass, one stable pass
    # pinned from the fixpoint that re-read preds.get(n) on every visit:
    # reading the predecessor relation once keeps the pass structure
    cases += [(random_cfg(512, s), p) for s, p in enumerate([3, 2, 3, 2, 3, 3, 2, 3])]
    for graph, passes in cases:
        result = analyze_graph(graph)
        assert result.dom_iterations == passes, graph.name
        assert result.runtime_ns > 0


def test_fixpoint_reads_the_predecessor_relation_once(monkeypatch):
    calls = {"get": [], "items": []}
    for name in calls:
        original = getattr(PersistentMultiMap, name)

        def recording(self, *args, _name=name, _original=original):
            calls[_name].append(self)
            return _original(self, *args)

        monkeypatch.setattr(PersistentMultiMap, name, recording)
    _, _, preds = _dominator_fixpoint(random_cfg(128, 3))
    assert calls["get"]  # the dominator sets are still read with get
    assert not any(m is preds for m in calls["get"])
    assert sum(m is preds for m in calls["items"]) == 1


def _recorded_put_all(monkeypatch):
    keys = []
    original = PersistentMultiMap.put_all

    def recording(self, key, values):
        keys.append(key)
        return original(self, key, values)

    monkeypatch.setattr(PersistentMultiMap, "put_all", recording)
    return keys


@pytest.mark.parametrize(
    "graph",
    [parse_edge_list("entry a\na b\nb c\nc d\n", name="chain"), DIAMOND],
    ids=["chain", "diamond"],
)
def test_acyclic_graphs_compute_each_vertex_once_over_all_passes(graph, monkeypatch):
    keys = _recorded_put_all(monkeypatch)
    _, iterations, _ = _dominator_fixpoint(graph)
    assert iterations == 2  # the confirming pass still runs
    assert sorted(keys) == [1, 2, 3]  # every vertex but the entry, once


def test_a_one_predecessor_vertex_reads_one_set(monkeypatch):
    # a chain's every vertex but the entry has one predecessor, whose set
    # it reads with one get: no other set is read, and no set is tested
    # for emptiness
    gets = []
    original = PersistentMultiMap.get

    def recording(self, key):
        gets.append(key)
        return original(self, key)

    monkeypatch.setattr(PersistentMultiMap, "get", recording)
    tests = []
    monkeypatch.setattr(PersistentSet, "__bool__", lambda self: tests.append(self) or True)
    keys = _recorded_put_all(monkeypatch)
    chain = parse_edge_list("entry a\na b\nb c\nc d\nd e\n", name="chain")
    dom, _, _ = _dominator_fixpoint(chain)
    assert keys == [1, 2, 3, 4]
    assert gets == [0, 1, 2, 3]  # each evaluation's one predecessor
    assert tests == []
    assert {v: set(original(dom, v)) for v in range(5)} == {
        v: set(range(v + 1)) for v in range(5)
    }


def test_second_pass_recomputes_only_the_back_edge_target(monkeypatch):
    looped = parse_edge_list("entry a\na b\nb c\nc b\nc d\n", name="loop")
    keys = _recorded_put_all(monkeypatch)
    _, iterations, _ = _dominator_fixpoint(looped)
    assert iterations == 2
    # pass 1 computes b, c, d; c's new set marks b stale again, and b's
    # unchanged recomputation leaves nothing stale
    assert keys == [1, 2, 3, 1]


def _assert_matches_the_full_pass_fixpoint(graph):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dom, iterations, _ = _dominator_fixpoint(graph)
        want, want_iterations = full_pass_fixpoint(graph)
    assert iterations == want_iterations, graph.name
    assert dom._root.equals(dom._cfg, want._root), graph.name


def test_stale_only_passes_match_the_full_pass_fixpoint_on_random_cfgs():
    for seed in range(24):
        _assert_matches_the_full_pass_fixpoint(random_cfg(512, seed))


@st.composite
def digraphs(draw):
    """Entry 0 and up to 24 vertices; self-loops, back edges into the
    entry and vertices unreachable from it are all allowed."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    # at least n edges: sparser graphs almost never need a third pass
    edges = draw(
        st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n, unique=True)
    )
    return CfgGraph(
        name="hypothesis",
        entry=0,
        vertex_names=tuple(f"v{i}" for i in range(n)),
        edges=tuple(edges),
    )


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_stale_only_passes_match_the_full_pass_fixpoint_on_digraphs(graph):
    _assert_matches_the_full_pass_fixpoint(graph)


def test_unreachable_vertices_are_excluded_with_a_warning():
    graph = parse_edge_list("entry a\na b\nx y\n", name="islands")
    with pytest.warns(UserWarning, match="islands.*2 unreachable"):
        dom = compute_dominators(graph)
    assert set(dom.keys()) == {0, 1}


def test_entry_outside_the_vertex_set_is_rejected():
    bogus = CfgGraph(name="bogus", entry=5, vertex_names=("a",), edges=())
    with pytest.raises(GraphError):
        compute_dominators(bogus)


# -- agreement with the bitmask reference ----------------------------------------------


@pytest.mark.parametrize("size", [2, 5, 16, 48, 112])
def test_random_cfgs_match_the_bitmask_reference(size):
    for seed in range(6):
        graph = random_cfg(size, seed)
        assert dominator_sets(graph) == bitmask_dominators(graph)


def test_arbitrary_digraphs_match_the_bitmask_reference():
    # unlike the CFG generator these graphs may strand vertices, so the
    # unreachable-vertex warning is expected noise here
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 24)
        edges = set()
        for _ in range(rng.randrange(0, 3 * n)):
            edges.add((rng.randrange(n), rng.randrange(n)))
        graph = CfgGraph(
            name="arb",
            entry=0,
            vertex_names=tuple(f"v{i}" for i in range(n)),
            edges=tuple(sorted(edges)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = dominator_sets(graph)
        assert got == bitmask_dominators(graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20), st.integers(2, 40))
def test_edge_order_does_not_change_dominators(seed, size):
    graph = random_cfg(size, seed % 7)
    shuffled = list(graph.edges)
    random.Random(seed).shuffle(shuffled)
    permuted = CfgGraph(
        name=graph.name,
        entry=graph.entry,
        vertex_names=graph.vertex_names,
        edges=tuple(shuffled),
    )
    assert dominator_sets(permuted) == dominator_sets(graph)


# -- parsing and serialization -----------------------------------------------------------


def test_parser_strips_comments_and_blank_lines():
    graph = parse_edge_list(
        "# a control-flow graph\n"
        "\n"
        "entry start   # the function prologue\n"
        "start body\n"
        "body exit # fallthrough\n",
        name="commented",
    )
    assert graph.vertex_names == ("start", "body", "exit")
    assert graph.edges == ((0, 1), (1, 2))
    assert graph.entry == 0


def test_parser_collapses_duplicate_edges_and_keeps_first_seen_order():
    graph = parse_edge_list("entry a\na b\na b\nb a\n")
    assert graph.edges == ((0, 1), (1, 0))


def test_parser_reports_the_offending_line():
    with pytest.raises(GraphError, match=r"bad\.cfg:1: expected 'entry"):
        parse_edge_list("a b\n", name="bad.cfg")
    with pytest.raises(GraphError, match=r"bad\.cfg:3: expected 'src dst'"):
        parse_edge_list("entry a\na b\na b c\n", name="bad.cfg")
    with pytest.raises(GraphError, match=r"empty\.cfg: missing 'entry"):
        parse_edge_list("# nothing here\n", name="empty.cfg")


# -- relation statistics --------------------------------------------------------------


def test_diamond_predecessor_stats():
    result = analyze_graph(DIAMOND)
    assert result.preds_keys == 3  # the entry has no predecessors
    assert result.preds_tuples == 4
    assert result.preds_pct_1to1 == round(100.0 * 2 / 3, 2)


def test_empty_relation_is_vacuously_one_to_one():
    lone = parse_edge_list("entry only\n")
    result = analyze_graph(lone)
    assert (result.preds_keys, result.preds_tuples, result.preds_pct_1to1) == (0, 0, 100.0)


def test_generated_cfgs_are_mostly_single_predecessor():
    results = [analyze_graph(random_cfg(128, seed)) for seed in range(10)]
    assert all(r.preds_pct_1to1 >= 80.0 for r in results)


# -- the generator ----------------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 7, 64, 200])
def test_random_cfg_shape_guarantees(size):
    graph = random_cfg(size, seed=5)
    assert graph.vertex_count == size
    assert graph.entry == 0
    assert len(set(graph.edges)) == len(graph.edges)
    out_deg = {}
    for s, _ in graph.edges:
        out_deg[s] = out_deg.get(s, 0) + 1
    assert all(d <= 2 for d in out_deg.values())
    assert reachable_from_entry(graph) == set(range(size))
    assert random_cfg(size, seed=5) == graph  # seeded determinism


def test_random_cfg_rejects_empty_graphs():
    with pytest.raises(GraphError):
        random_cfg(0, seed=0)


def test_result_rows_expose_the_report_columns():
    result = analyze_graph(DIAMOND)
    row = {c: getattr(result, c) for c in DOMINATOR_COLUMNS}
    assert row["graph_name"] == "diamond"
    assert row["vertices"] == 4
    assert row["edges"] == 4
    assert row["preds_keys"] == 3
    assert row["preds_tuples"] == 4
    assert row["preds_pct_1to1"] == 66.67
