"""Windowed co-authorship networks and distances over them.

A network for year ``y`` connects two authors iff they co-authored at
least one paper published in ``[y - window_length + 1, y]``.  Edges are
undirected and unweighted; collaboration multiplicity is ignored.  The
node set contains every author of a window paper, including authors of
single-author papers (degree 0).

Adjacency is one list indexed directly by interned author id that holds
each author's sorted neighbours as a tuple; authors outside the window
share one empty tuple, so a window costs one list slot per corpus author
plus one tuple per window node.  Networks are immutable after
construction; queries are read-only.

Windows of consecutive years share most of their authors, so
:func:`build_window` given the previous year's network slides it: it
rebuilds only the authors of the papers that enter or leave the window
and shares every other neighbour tuple with the previous network.  A
fresh window is the same rebuild, of every author of the window's
papers, on an empty adjacency.  ``run`` passes each window to the next
year's build, so it slides through every year it computes.

Each network labels its connected components once, on first use.  The
distance kernel, :meth:`BFSSearcher.distances_from`, measures one
author set against many target sets: targets outside every source's
component are dropped, so a set with no path answers INF_CODE without
searching; every other set is searched against one ball around the
sources that the whole call shares and grows only as far as some set
needs, meeting each set's own search from the targets' side.  A
distance is an int code (see ``codec``): a hop count, INF_CODE (no
path exists, proven by the component labels or by the search), or
EXCEEDS_CODE (a path exists and is longer than the cap the call was
given).  ``run`` makes one such call per citing paper, with its
references' author tuples, and the repeated-citation heatmap one per
scholar, with its partners.
:meth:`BFSSearcher.pair_distance` is a call with one target set, and
:meth:`BFSSearcher.distances_to` is the one-to-many kernel behind
``diameter`` alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .distances import EXCEEDS_CODE, INF_CODE

if TYPE_CHECKING:
    from .corpus import CorpusStore


def _check_id(author: int, num_slots: int) -> None:
    if not (0 <= author < num_slots):
        raise ValueError(f"author id {author} outside the network's id space")


class CollabNetwork:
    def __init__(self, year: int, window_length: int, num_slots: int,
                 nodes: frozenset[int], adj: list[tuple[int, ...]], edge_count: int,
                 store: CorpusStore | None = None):
        self.year = year
        self.window_length = window_length
        self.num_slots = num_slots
        self.nodes = nodes
        self.edge_count = edge_count
        self.store = store  # the store a window was built from; None from edges
        self._adj = adj
        self._labels: list[int] | None = None

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]],
                   year: int = 0, window_length: int = 1,
                   num_slots: int | None = None) -> "CollabNetwork":
        """Build a network directly from node/edge lists (tests, debugging)."""
        nodes = set(nodes)
        neighbours: dict[int, set[int]] = {}
        for a, b in edges:
            if a != b:
                neighbours.setdefault(a, set()).add(b)
                neighbours.setdefault(b, set()).add(a)
        nodes.update(neighbours)
        if num_slots is None:
            num_slots = max(nodes) + 1 if nodes else 0
        for a in nodes:
            _check_id(a, num_slots)
        adj: list[tuple[int, ...]] = [()] * num_slots
        for u, neigh in neighbours.items():
            adj[u] = tuple(sorted(neigh))
        degree_sum = sum(map(len, neighbours.values()))
        return cls(year, window_length, num_slots, frozenset(nodes), adj, degree_sum // 2)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def has_node(self, author: int) -> bool:
        return author in self.nodes

    def degree(self, author: int) -> int:
        _check_id(author, self.num_slots)
        return len(self._adj[author])

    def neighbors(self, author: int) -> list[int]:
        _check_id(author, self.num_slots)
        return list(self._adj[author])

    def edges(self) -> Iterator[tuple[int, int]]:
        adj = self._adj
        for u in sorted(self.nodes):
            for v in adj[u]:
                if u < v:
                    yield u, v

    @property
    def average_degree(self) -> float:
        return 2.0 * self.edge_count / self.node_count if self.node_count else 0.0

    def component_labels(self) -> list[int]:
        """Component label per author slot, -1 for authors outside the window.

        Labels count up from 0 in order of each component's smallest
        author id.  Computed by one iterative DFS on first use and cached.
        """
        labels = self._labels
        if labels is None:
            labels = [-1] * self.num_slots
            adj = self._adj
            label = 0
            for start in sorted(self.nodes):
                if labels[start] >= 0:
                    continue
                labels[start] = label
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in adj[u]:
                        if labels[v] < 0:
                            labels[v] = label
                            stack.append(v)
                label += 1
            self._labels = labels
        return labels


def build_window(store: CorpusStore, year: int, window_length: int = 5,
                 previous: CollabNetwork | None = None) -> CollabNetwork:
    """Co-authorship network over papers published in the closed window
    ``[year - window_length + 1, year]`` (truncated at the corpus start).

    Authors are rebuilt in one loop, each from their own papers inside
    the window, and the node set and the degree sum follow the rebuilt
    authors.  When ``previous`` is the window of ``store`` for
    ``year - 1`` with the same length, the new window starts from a copy
    of its adjacency list and rebuilds only the authors of papers in the
    year that enters the window and in the year that leaves it: every
    other author keeps the same papers in the window, hence the same
    neighbours.  Any other ``previous`` (another store or length, a gap,
    a step backwards, or a network built from edges) gives a fresh
    window: every author of the window's papers is rebuilt on an empty
    adjacency list.  Either way the network is the same; ``previous`` is
    never changed, and the new window shares only the neighbour tuples
    that stay.
    """
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    paper_authors = store.paper_authors
    paper_year = store.paper_year
    author_papers = store.author_papers
    lo = year - window_length + 1
    if (previous is not None and previous.store is store and previous.year == year - 1
            and previous.window_length == window_length):
        adj = previous._adj.copy()
        nodes = set(previous.nodes)
        degree_sum = 2 * previous.edge_count
        years: Iterable[int] = (year, lo - 1)
    else:
        adj = [()] * store.num_authors
        nodes = set()
        degree_sum = 0
        years = range(lo, year + 1)
    changed: set[int] = set()
    for yy in years:
        for pid in store.papers_in_year(yy):
            changed.update(paper_authors[pid])
    for a in changed:
        neigh: set[int] = set()
        for p in author_papers[a]:
            if lo <= paper_year[p] <= year:
                neigh.update(paper_authors[p])
        degree_sum -= len(adj[a])
        if neigh:
            neigh.discard(a)
            adj[a] = tuple(sorted(neigh))
            degree_sum += len(neigh)
            nodes.add(a)
        else:  # the author's last paper left the window
            adj[a] = ()
            nodes.discard(a)
    return CollabNetwork(year, window_length, store.num_authors,
                         frozenset(nodes), adj, degree_sum // 2, store)


class BFSSearcher:
    """Breadth-first searches with reusable stamp buffers.

    One searcher serves many queries on the same network without
    reallocating visit lists (epoch stamping); the lists are allocated
    on the first search.  :meth:`distances_from` is the distance kernel
    (one set to many sets, :meth:`pair_distance` being one of them);
    :meth:`distances_to` (one set to many targets, found or not) serves
    ``diameter``.  Not thread-safe: the stamp lists belong to one
    searcher, so concurrent searches each need their own.
    """

    def __init__(self, net: CollabNetwork):
        self.net = net
        self._seen: list[int] | None = None
        self._hops: list[int] | None = None
        self._tgt: list[int] | None = None
        self._epoch = 0
        self._tgt_epoch = 0

    def _stamps(self) -> tuple[list[int], list[int], list[int]]:
        """The visit stamps, hop counts and target stamps, one slot per
        author, allocated on the first search."""
        if self._seen is None:
            n = self.net.num_slots
            self._seen, self._hops, self._tgt = [0] * n, [0] * n, [0] * n
        return self._seen, self._hops, self._tgt

    def pair_distance(self, sources: Iterable[int], targets: Iterable[int],
                      cap: int | None = None) -> int:
        """Distance code between two author sets: one
        :meth:`distances_from` query with a single target set."""
        return self.distances_from(sources, (targets,), cap)[0]

    def distances_from(self, sources: Iterable[int],
                       target_sets: Iterable[Iterable[int]],
                       cap: int | None = None) -> list[int]:
        """Distance code from one author set to each target set.

        0 when a target set shares an author with the sources.  Targets
        outside every source's component are dropped, and a set with
        none left is INF_CODE without a search.  Every other set is
        searched against one source ball that all sets of the call
        share: a set with an author inside the ball answers with the
        smallest ball level among its authors; otherwise the ball and
        the set's own side grow level by level, each step expanding the
        whole level of the side whose frontier has the smaller total
        degree (ties go to the ball), until they meet.  Returns hop
        counts, or EXCEEDS_CODE once the levels of the two sides add up
        to ``cap`` before meeting (a path exists, longer than cap).  A
        side whose next level is empty before the two meet ends the
        search as INF_CODE, so the search ends even when the component
        labels and the adjacency disagree.

        Every id must lie in ``[0, net.num_slots)``.  This kernel does not
        check it: a negative id would silently read another author's slot.
        :func:`shortest_distance` is the checked entry point.
        """
        net = self.net
        labels = net.component_labels()
        src = set(sources)
        src_comps = {labels[s] for s in src}
        src_comps.discard(-1)
        codes: list[int] = []
        pending: list[tuple[int, list[int]]] = []  # (index into codes, targets)
        for targets in target_sets:
            kept = []
            for t in targets:
                if t in src:
                    codes.append(0)
                    break
                if labels[t] in src_comps:
                    kept.append(t)
            else:
                if kept:
                    pending.append((len(codes), kept))
                codes.append(INF_CODE)
        if not pending:
            return codes
        adj = net._adj
        seen, hops, tmark = self._stamps()
        # The ball holds every node within ``radius`` of the sources in
        # the targets' components; ``frontier`` is its outermost level.
        self._epoch += 1
        ball = self._epoch
        comps = {labels[t] for _, kept in pending for t in kept}
        frontier = [s for s in src if labels[s] in comps]
        deg_ball = 0
        for s in frontier:
            seen[s] = ball
            hops[s] = 0
            deg_ball += len(adj[s])
        radius = 0
        for i, kept in pending:
            inside = [hops[t] for t in kept if seen[t] == ball]
            if inside:
                codes[i] = min(inside)
                continue
            self._tgt_epoch += 1
            mark = self._tgt_epoch
            back = kept
            deg_back = 0
            for t in back:
                tmark[t] = mark
                deg_back += len(adj[t])
            level = 0
            met = False
            # Neither side has met the other, so the distance exceeds
            # radius + level; any meeting found while one side expands a
            # whole level is one hop longer than that, and exact.
            while not met:
                if cap is not None and radius + level >= cap:
                    codes[i] = EXCEEDS_CODE
                    break
                if deg_ball <= deg_back:
                    radius += 1
                    nxt = []
                    deg_ball = 0
                    for u in frontier:  # the whole level, so the ball stays complete
                        for v in adj[u]:
                            if seen[v] != ball:
                                seen[v] = ball
                                hops[v] = radius
                                nxt.append(v)
                                deg_ball += len(adj[v])
                                if tmark[v] == mark:
                                    met = True
                    frontier = nxt
                else:
                    level += 1
                    nxt = []
                    deg_back = 0
                    for u in back:
                        for v in adj[u]:
                            if seen[v] == ball:
                                met = True
                                break
                            if tmark[v] != mark:
                                tmark[v] = mark
                                nxt.append(v)
                                deg_back += len(adj[v])
                        if met:
                            break
                    back = nxt
                if not nxt and not met:  # that side is exhausted: no path
                    codes[i] = INF_CODE
                    break
            else:
                codes[i] = radius + level
        return codes

    def distances_to(self, sources: Iterable[int], targets: Iterable[int],
                     cap: int | None = None) -> tuple[dict[int, int], bool]:
        """Hop distance from the source set to each reachable target.

        The one-to-many kernel behind ``diameter``, which takes the
        largest hop count found; every other distance is a
        :meth:`distances_from` query.

        Returns ``(found, exhausted)``.  The search stops once every
        target is found, the cap is hit, or the frontier dies; targets
        missing from ``found`` are unreachable when ``exhausted`` is
        True, otherwise only known to be farther than explored.
        """
        adj = self.net._adj
        seen, _, tgt = self._stamps()
        self._tgt_epoch += 1
        tepoch = self._tgt_epoch
        remaining = 0
        for t in targets:
            if tgt[t] != tepoch:
                tgt[t] = tepoch
                remaining += 1
        self._epoch += 1
        epoch = self._epoch
        found: dict[int, int] = {}
        frontier: list[int] = []
        for s in sources:
            if seen[s] != epoch:
                seen[s] = epoch
                frontier.append(s)
                if tgt[s] == tepoch:
                    found[s] = 0
                    remaining -= 1
        level = 0
        while frontier and remaining:
            if cap is not None and level >= cap:
                return found, False
            nxt: list[int] = []
            for u in frontier:
                for v in adj[u]:
                    if seen[v] == epoch:
                        continue
                    seen[v] = epoch
                    nxt.append(v)
                    if tgt[v] == tepoch:
                        found[v] = level + 1
                        remaining -= 1
            frontier = nxt
            level += 1
        return found, not frontier


def shortest_distance(net: CollabNetwork, source_set: Iterable[int],
                      target_set: Iterable[int], cap: int | None = None) -> int:
    """Minimum collaboration distance between two author sets.

    0 when the sets share an author (an author is at distance 0 from
    themself, network membership notwithstanding); authors absent from
    the window behave as isolated nodes.  Returns the code of
    :meth:`BFSSearcher.pair_distance`, after checking that both sets
    are non-empty and every id is in range: a hop count, INF_CODE, or
    EXCEEDS_CODE when a path exists and is longer than ``cap``.
    """
    sources = set(source_set)
    targets = set(target_set)
    if not sources or not targets:
        raise ValueError("author sets must be non-empty")
    for a in sources | targets:
        _check_id(a, net.num_slots)
    return BFSSearcher(net).pair_distance(sources, targets, cap)


# -- network statistics ----------------------------------------------------


def assortativity(net: CollabNetwork) -> float | None:
    """Pearson correlation of remaining degrees across edge endpoints.

    Computed over both orientations of every edge with integer sums, so
    the zero-variance case is detected exactly and reported as None
    (UNDEFINED) rather than dividing by zero.
    """
    if net.edge_count == 0:
        raise ValueError("assortativity needs at least one edge")
    adj = net._adj
    sum_xy = 0
    sum_x = 0
    sum_x2 = 0
    for u, v in net.edges():
        x = len(adj[u]) - 1
        y = len(adj[v]) - 1
        sum_xy += x * y
        sum_x += x + y
        sum_x2 += x * x + y * y
    m = 2 * net.edge_count
    num = m * 2 * sum_xy - sum_x * sum_x
    den = m * sum_x2 - sum_x * sum_x
    if den == 0:
        return None
    return num / den


def avg_clustering(net: CollabNetwork) -> float:
    """Mean over all nodes of (triangles through the node) / (pairs of
    neighbours); nodes of degree < 2 contribute 0."""
    if net.node_count == 0:
        raise ValueError("clustering needs at least one node")
    adj = net._adj
    neighbor_sets: dict[int, set[int]] = {}
    total = 0.0
    for u in net.nodes:
        l = len(adj[u])
        if l < 2:
            continue
        su = neighbor_sets.get(u)
        if su is None:
            su = neighbor_sets[u] = set(adj[u])
        closed2 = 0  # twice the number of edges among u's neighbours
        for v in su:
            sv = neighbor_sets.get(v)
            if sv is None:
                sv = neighbor_sets[v] = set(adj[v])
            closed2 += len(su & sv)
        total += closed2 / (l * (l - 1))
    return total / net.node_count


class ComponentStats(NamedTuple):
    members: frozenset[int]
    node_count: int
    edge_count: int
    node_pct: float
    edge_pct: float


def connected_components(net: CollabNetwork) -> list[ComponentStats]:
    """Components sorted by node count descending, ties broken by the
    smallest contained author id (grouped from the cached labels)."""
    adj = net._adj
    labels = net.component_labels()
    groups: list[list[int]] = []  # ascending members, one list per label
    for u in sorted(net.nodes):
        if labels[u] == len(groups):  # labels count up in order of smallest member
            groups.append([])
        groups[labels[u]].append(u)
    groups.sort(key=lambda members: (-len(members), members[0]))
    total_nodes = net.node_count
    total_edges = net.edge_count
    out = []
    for members in groups:
        edge_count = sum(len(adj[u]) for u in members) // 2
        out.append(
            ComponentStats(
                members=frozenset(members),
                node_count=len(members),
                edge_count=edge_count,
                node_pct=100.0 * len(members) / total_nodes if total_nodes else 0.0,
                edge_pct=100.0 * edge_count / total_edges if total_edges else 0.0,
            )
        )
    return out


def diameter(net: CollabNetwork, members: Iterable[int]) -> int:
    """Longest shortest path within one component (quadratic; desk scale)."""
    members = list(members)
    searcher = BFSSearcher(net)
    best = 0
    for source in members:
        found, _ = searcher.distances_to([source], members)
        best = max(best, max(found.values()))
    return best


class NetworkStats(NamedTuple):
    node_count: int
    edge_count: int
    average_degree: float
    assortativity: float | None
    avg_clustering: float | None
    first_component: ComponentStats | None
    second_component: ComponentStats | None
    diameter: int | None

    CSV_HEADER = (
        "year,nodes,edges,avg_degree,assortativity,avg_clustering,"
        "c1_nodes,c1_nodes_pct,c1_edges,c1_edges_pct,"
        "c2_nodes,c2_nodes_pct,c2_edges,c2_edges_pct,diameter"
    )

    def csv_row(self, year: int | str = "") -> str:
        def num(x, fmt="{:.4f}"):
            return "" if x is None else (fmt.format(x) if isinstance(x, float) else str(x))

        def comp(c: ComponentStats | None):
            if c is None:
                return ["", "", "", ""]
            return [
                str(c.node_count),
                f"{c.node_pct:.2f}",
                str(c.edge_count),
                f"{c.edge_pct:.2f}",
            ]

        cells = [
            str(year),
            str(self.node_count),
            str(self.edge_count),
            f"{self.average_degree:.4f}",
            num(self.assortativity),
            num(self.avg_clustering),
            *comp(self.first_component),
            *comp(self.second_component),
            num(self.diameter),
        ]
        return ",".join(cells)


def network_report(net: CollabNetwork, with_diameter: bool = False) -> NetworkStats:
    """Assemble the summary statistics row for one window network.

    Undefined assortativity propagates as None.  The diameter of the
    largest component is opt-in: it is quadratic in component size.
    """
    comps = connected_components(net)
    r = assortativity(net) if net.edge_count else None
    cbar = avg_clustering(net) if net.node_count else None
    diam = None
    if with_diameter and comps:
        diam = diameter(net, comps[0].members)
    return NetworkStats(
        node_count=net.node_count,
        edge_count=net.edge_count,
        average_degree=net.average_degree,
        assortativity=r,
        avg_clustering=cbar,
        first_component=comps[0] if comps else None,
        second_component=comps[1] if len(comps) > 1 else None,
        diameter=diam,
    )
