"""Control-flow dominator analysis driven by the persistent multimap.

The predecessor relation and the dominator sets are both held in
:class:`~leantrie.PersistentMultiMap` instances.  The predecessor
relation never changes, so it is read once per analysis, by one
``items()`` walk grouped into a list per vertex; the fixpoint passes
exercise ``get`` of each predecessor's dominator set, set intersection
over those sets, and ``put_all``, which stores a vertex's new dominator
set as is.  A pass re-evaluates only the vertices with a predecessor
whose set changed since they were last computed; the first pass
computes every vertex.  A vertex with one predecessor reads that
predecessor's set with one ``get``.  A vertex with one computed
predecessor grows its set from that predecessor's by ``add``, so the two
sets share every node off the copied path.  The intersection of two
dominator sets, which share one hash function, is structural: it walks
both tries node by node, shares the left operand's subtrees that the
right one holds whole and keeps its element objects, and is the left
operand itself when that is a subset; only the other set operators, and
``&`` with a foreign operand, build their result through
``build_root``.

Graphs are ingested from an edge-list format::

    # comment
    entry A
    A B
    B C

The first non-comment line declares the entry vertex; every following
line is one ``src dst`` edge.  Vertices receive dense indices in
first-seen order; duplicate edge lines collapse.  A seeded random
control-flow-graph generator (out-degree at most 2, every vertex
reachable) stands in for real compiler corpora.
"""

import random
import warnings
from dataclasses import dataclass, fields
from time import perf_counter_ns

from .maps import multimap, structure_stats


class GraphError(ValueError):
    """Malformed edge-list input; message carries the line number."""


@dataclass(frozen=True)
class CfgGraph:
    """Directed graph with dense integer vertices and one entry vertex."""

    name: str
    entry: int
    vertex_names: tuple
    edges: tuple

    @property
    def vertex_count(self):
        return len(self.vertex_names)

    @property
    def edge_count(self):
        return len(self.edges)


@dataclass(frozen=True)
class DomResult:
    """One analyzed graph: the report row's fields, then the dominator
    multimap."""

    graph_name: str
    vertices: int
    edges: int
    dom_iterations: int
    runtime_ns: int
    preds_keys: int
    preds_tuples: int
    preds_pct_1to1: float  # percentage of predecessor keys with one value
    dominators: object  # PersistentMultiMap vertex -> dominator set


DOMINATOR_COLUMNS = tuple(f.name for f in fields(DomResult) if f.name != "dominators")


def parse_edge_list(text, name="<edges>"):
    """Parse edge-list ``text`` into a :class:`CfgGraph`.

    Raises :class:`GraphError` with the offending line number on
    malformed input or a missing entry declaration.
    """
    indices = {}  # vertex name -> dense index, in first-seen order
    edges = {}  # (src, dst) -> None, in first-occurrence order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not indices:
            if len(tokens) != 2 or tokens[0] != "entry":
                raise GraphError(
                    f"{name}:{lineno}: expected 'entry <vertex>', got {raw.strip()!r}"
                )
            indices[tokens[1]] = 0  # the entry is the first vertex seen
            continue
        if len(tokens) != 2:
            raise GraphError(
                f"{name}:{lineno}: expected 'src dst', got {raw.strip()!r}"
            )
        src, dst = (indices.setdefault(vertex, len(indices)) for vertex in tokens)
        edges[src, dst] = None
    if not indices:
        raise GraphError(f"{name}: missing 'entry <vertex>' declaration")
    return CfgGraph(name=name, entry=0, vertex_names=tuple(indices), edges=tuple(edges))


def compute_preds(graph):
    """The predecessor relation as a multimap: one (dst, src) per edge."""
    return multimap([(d, s) for s, d in graph.edges])


def _reverse_postorder(graph):
    """``(order, succs)``: the vertices reachable from the entry in
    reverse postorder of one depth-first walk, and the successor lists it
    built."""
    succs = {}
    for s, d in graph.edges:
        succs.setdefault(s, []).append(d)
    order = []
    visited = {graph.entry}
    stack = [(graph.entry, iter(succs.get(graph.entry, ())))]
    while stack:
        vertex, children = stack[-1]
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(succs.get(child, ()))))
                break
        else:
            order.append(vertex)
            stack.pop()
    order.reverse()
    return order, succs


def compute_dominators(graph):
    """Dominator sets of every reachable vertex, as a multimap.

    Iterates Dom(n) = (intersection of Dom(p) over predecessors p) plus
    {n}, from Dom(entry) = {entry}, until a pass changes nothing.  After
    the first pass, a pass re-evaluates only vertices with a predecessor
    whose set changed since their last evaluation.  Vertices not yet
    visited stand for the all-reachable set, so the intersection skips
    them; reverse-postorder guarantees a computed predecessor on the
    first pass.  Unreachable vertices are excluded with a warning.
    """
    return _dominator_fixpoint(graph)[0]


def _dominator_fixpoint(graph):
    """``(dominator multimap, iterations, predecessor multimap)``."""
    if graph.entry >= graph.vertex_count:
        raise GraphError(f"{graph.name}: entry vertex is not in the graph")
    order, succs = _reverse_postorder(graph)
    if len(order) < graph.vertex_count:
        dropped = graph.vertex_count - len(order)
        warnings.warn(
            f"{graph.name}: excluded {dropped} unreachable "
            f"vert{'ex' if dropped == 1 else 'ices'}",
            stacklevel=3,
        )
    preds = compute_preds(graph)
    entry = graph.entry
    # the predecessor relation never changes, so one items() walk reads
    # it for every pass; a key's values come in the order get(n) gives
    pred_lists = {}
    for d, s in preds.items():
        pred_lists.setdefault(d, []).append(s)

    dom = multimap([(entry, entry)])
    # Dom(n) can only change after a predecessor's set has, so a pass
    # skips a vertex that no changed set has marked stale since it last
    # ran: recomputing it would rebuild the set it holds
    stale = set(order)
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for n in order[1:]:  # the entry comes first
            if n not in stale:
                continue
            stale.discard(n)
            ps = pred_lists[n]
            if len(ps) == 1:
                # a one-predecessor vertex was reached through its
                # predecessor, which comes earlier in reverse postorder:
                # its set is computed, and never empty
                acc = dom.get(ps[0])
            else:
                # stage the big intersection as a set of predecessor Dom
                # sets, folded pairwise; not-yet-computed Doms stand for
                # "all" and drop out of the intersection, as do unreachable
                # predecessors: an absent key's set is empty, and a
                # computed Dom never is.  A reachable vertex other than the
                # entry has a predecessor
                operands = [s for p in ps if (s := dom.get(p))]
                acc = operands[0]
                for other in operands[1:]:
                    acc = acc & other
            # stores the new set's root as is; the receiver comes back
            # when Dom(n) is unchanged
            rewritten = dom.put_all(n, acc.add(n))
            if rewritten is not dom:
                changed = True
                dom = rewritten
                stale.update(succs.get(n, ()))
    return dom, iterations, preds


def analyze_graph(graph):
    """Run the full analysis and fill one report row.  The 1:1 share is
    100.0 for an empty predecessor relation, vacuously."""
    start = perf_counter_ns()
    dom, iterations, preds = _dominator_fixpoint(graph)
    runtime = perf_counter_ns() - start
    keys = preds.key_count
    ones = structure_stats(preds)["inline_entries"]  # one value <=> stored inline
    return DomResult(
        graph_name=graph.name,
        vertices=graph.vertex_count,
        edges=graph.edge_count,
        dom_iterations=iterations,
        runtime_ns=runtime,
        preds_keys=keys,
        preds_tuples=preds.tuple_count,
        preds_pct_1to1=round(100.0 * ones / keys, 2) if keys else 100.0,
        dominators=dom,
    )


def random_cfg(size, seed):
    """Seeded random control-flow graph: ``size`` vertices, entry 0,
    everything reachable, out-degree at most 2.

    A spanning structure keeps most vertices single-predecessor (the
    shape compiler CFGs show); roughly one vertex in ten gains a second
    incoming edge (joins, loop back-edges).
    """
    if size < 1:
        raise GraphError("graph size must be at least 1")
    rng = random.Random((seed << 20) ^ size)
    out_degree = [0] * size
    edges = []
    spare = [0]  # vertices that can still grow an out-edge
    for v in range(1, size):
        i = rng.randrange(len(spare))
        parent = spare[i]
        edges.append((parent, v))
        out_degree[parent] += 1
        if out_degree[parent] >= 2:
            spare[i] = spare[-1]
            spare.pop()
        spare.append(v)
    edge_set = set(edges)
    extra_target = max(1, size // 10)
    added = 0
    for _ in range(4 * extra_target):
        if added >= extra_target or not spare:
            break
        u = spare[rng.randrange(len(spare))]
        w = rng.randrange(size)
        if (u, w) in edge_set:
            continue
        edge_set.add((u, w))
        edges.append((u, w))
        out_degree[u] += 1
        if out_degree[u] >= 2:
            spare.remove(u)
        added += 1
    return CfgGraph(
        name=f"random-{size}-s{seed}",
        entry=0,
        vertex_names=tuple(f"n{i}" for i in range(size)),
        edges=tuple(edges),
    )
