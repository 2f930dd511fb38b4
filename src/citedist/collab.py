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
:class:`WindowSlider` builds each window from the previous one: it
rebuilds only the authors of the papers that enter or leave the window
and shares every other neighbour tuple with the previous network.
``run`` slides one window through its years; :func:`build_window` is a
single fresh window of a new slider.

Each network labels its connected components once, on first use.  A
set-to-set distance (:meth:`BFSSearcher.pair_distance`) first drops the
targets outside every source's component, so a query with no path
answers INFINITE without searching; otherwise a bidirectional BFS runs
until the two sides meet.  Hop distances come in three flavours: a
finite count, INFINITE (no path exists, proven by the component labels
or by the search), or "exceeds cap" (a path exists and is longer than
the cap).  Every citation event of ``run`` and every scholar pair of
the repeated-citation heatmap is one such query.
:meth:`BFSSearcher.distances_to` is the one-to-many kernel behind
``diameter`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import CorpusStore


@dataclass(frozen=True)
class Distance:
    """Result of a shortest-path query.

    ``hops`` is set for finite results.  ``cap`` is set when a path
    exists but is longer than the cap.  Neither set means INFINITE: no
    path exists.
    """

    hops: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if self.hops is not None and self.cap is not None:
            raise ValueError("a distance is finite or capped, not both")
        if self.hops is not None and self.hops < 0:
            raise ValueError("hop count must be >= 0")

    @classmethod
    def finite(cls, hops: int) -> "Distance":
        return cls(hops=hops)

    @classmethod
    def exceeds(cls, cap: int) -> "Distance":
        return cls(cap=cap)

    @property
    def is_finite(self) -> bool:
        return self.hops is not None

    @property
    def is_infinite(self) -> bool:
        return self.hops is None and self.cap is None

    @property
    def exceeds_cap(self) -> bool:
        return self.cap is not None

    def label(self) -> str:
        if self.is_finite:
            return str(self.hops)
        if self.exceeds_cap:
            return f">{self.cap}"
        return "INF"


INFINITE = Distance()

# Integer distance codes: hop counts are >= 0.
INF_CODE = -1
EXCEEDS_CODE = -2


def _check_id(author: int, num_slots: int) -> None:
    if not (0 <= author < num_slots):
        raise ValueError(f"author id {author} outside the network's id space")


class CollabNetwork:
    def __init__(self, year: int, window_length: int, num_slots: int,
                 nodes: frozenset[int], adj: list[tuple[int, ...]], edge_count: int):
        self.year = year
        self.window_length = window_length
        self.num_slots = num_slots
        self.nodes = nodes
        self.edge_count = edge_count
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


class WindowSlider:
    """The window networks of one store, each built from the last.

    :meth:`window` for the year after the previous call copies the
    previous adjacency list and rebuilds only the authors of papers in
    the year that enters the window and in the year that leaves it, each
    from their own papers inside the window: every other author keeps
    the same papers in the window, hence the same neighbours.  The node
    set and the degree sum follow the rebuilt authors.  Any other year
    (the first call, a gap, or a step backwards) is built from scratch.
    A network once returned is never changed: the next window works on a
    copy of its list and shares only the neighbour tuples that stay.
    """

    def __init__(self, store: CorpusStore, window_length: int = 5):
        if window_length < 1:
            raise ValueError("window_length must be >= 1")
        self.store = store
        self.window_length = window_length
        self._last: CollabNetwork | None = None

    def window(self, year: int) -> CollabNetwork:
        """Co-authorship network over papers published in the closed
        window ``[year - window_length + 1, year]``."""
        store = self.store
        paper_authors = store.paper_authors
        lo = year - self.window_length + 1
        last = self._last
        if last is not None and year == last.year + 1:
            adj = last._adj.copy()
            nodes = set(last.nodes)
            degree_sum = 2 * last.edge_count
            changed: set[int] = set()
            for yy in (year, lo - 1):
                for pid in store.papers_in_year(yy):
                    changed.update(paper_authors[pid])
            coauthors = self._coauthors(changed, lo, year)
        else:
            adj = [()] * store.num_authors
            nodes = set()
            degree_sum = 0
            coauthor_lists: dict[int, list[int]] = {}
            for yy in range(lo, year + 1):
                for pid in store.papers_in_year(yy):
                    authors = paper_authors[pid]
                    for a in authors:
                        coauthor_lists.setdefault(a, []).extend(authors)
            coauthors = ((a, set(authors)) for a, authors in coauthor_lists.items())
        for a, neigh in coauthors:
            degree_sum -= len(adj[a])
            if neigh:
                neigh.discard(a)
                adj[a] = tuple(sorted(neigh))
                degree_sum += len(neigh)
                nodes.add(a)
            else:  # the author's last paper left the window
                adj[a] = ()
                nodes.discard(a)
        net = CollabNetwork(year, self.window_length, store.num_authors,
                            frozenset(nodes), adj, degree_sum // 2)
        self._last = net
        return net

    def _coauthors(self, authors: Iterable[int], lo: int,
                   hi: int) -> Iterator[tuple[int, set[int]]]:
        """Each author with the set of all authors of their papers
        published in ``[lo, hi]`` (empty when there is none), made one
        at a time so that only one set is alive."""
        author_papers = self.store.author_papers
        paper_year = self.store.paper_year
        paper_authors = self.store.paper_authors
        for a in authors:
            neigh: set[int] = set()
            for p in author_papers[a]:
                if lo <= paper_year[p] <= hi:
                    neigh.update(paper_authors[p])
            yield a, neigh


def build_window(store: CorpusStore, year: int, window_length: int = 5) -> CollabNetwork:
    """Co-authorship network over papers published in the closed window
    ``[year - window_length + 1, year]`` (truncated at the corpus start):
    one :meth:`WindowSlider.window` call."""
    return WindowSlider(store, window_length).window(year)


class BFSSearcher:
    """Breadth-first searches with reusable stamp buffers.

    One searcher serves many queries on the same network without
    reallocating visit lists (epoch stamping); the lists are allocated
    on the first search.  There is one kernel per query shape:
    :meth:`pair_distance` (set to set) and :meth:`distances_to` (one set
    to many targets).  Not thread-safe: the stamp lists belong to one
    searcher, so concurrent searches each need their own.
    """

    def __init__(self, net: CollabNetwork):
        self.net = net
        self._seen: list[int] | None = None
        self._hops: list[int] | None = None
        self._tgt: list[int] | None = None
        self._epoch = 0
        self._tgt_epoch = 0

    def pair_distance(self, sources: Iterable[int], targets: Iterable[int],
                      cap: int | None = None) -> int:
        """Distance code between two author sets.

        0 when the sets share an author.  Targets outside every source's
        component are dropped, and when none is left the answer is
        INF_CODE without a search.  Otherwise both sides grow level by
        level, each step expanding the whole level of the side whose
        frontier has the smaller total degree, until they meet.  Returns
        the hop count, or EXCEEDS_CODE once the levels of the two sides
        add up to ``cap`` before meeting (a path exists, longer than cap).

        Every id must lie in ``[0, net.num_slots)``.  This kernel does not
        check it: a negative id would silently read another author's slot.
        :func:`shortest_distance` is the checked entry point.
        """
        net = self.net
        labels = net.component_labels()
        src = set(sources)
        src_comps = {labels[s] for s in src}
        tgt = set()
        for t in targets:
            if t in src:
                return 0
            if labels[t] >= 0 and labels[t] in src_comps:
                tgt.add(t)
        if not tgt:
            return INF_CODE
        tgt_comps = {labels[t] for t in tgt}
        src = [s for s in src if labels[s] in tgt_comps]
        adj = net._adj
        seen, hops = self._seen, self._hops
        if hops is None:
            if seen is None:
                seen = self._seen = [0] * net.num_slots
            hops = self._hops = [0] * net.num_slots
        # Each side stamps the nodes it reaches with its own epoch.
        self._epoch += 2
        mine, other = self._epoch - 1, self._epoch
        front, back = [], list(tgt)
        deg_front = deg_back = 0
        for s in src:
            seen[s] = mine
            hops[s] = 0
            front.append(s)
            deg_front += len(adj[s])
        for t in back:
            seen[t] = other
            hops[t] = 0
            deg_back += len(adj[t])
        level_front = level_back = 0
        while front:
            if cap is not None and level_front + level_back >= cap:
                return EXCEEDS_CODE
            if deg_back < deg_front:
                front, back = back, front
                deg_front, deg_back = deg_back, deg_front
                level_front, level_back = level_back, level_front
                mine, other = other, mine
            # Neither side has met the other, so the distance exceeds
            # level_front + level_back; the first meeting found while
            # expanding this level is one hop longer than that, and exact.
            level_front += 1
            nxt = []
            deg_front = 0
            for u in front:
                for v in adj[u]:
                    mark = seen[v]
                    if mark == mine:
                        continue
                    if mark == other:
                        return level_front + hops[v]
                    seen[v] = mine
                    hops[v] = level_front
                    nxt.append(v)
                    deg_front += len(adj[v])
            front = nxt
        return INF_CODE  # not reached: both sides share a component

    def distances_to(self, sources: Iterable[int], targets: Iterable[int],
                     cap: int | None = None) -> tuple[dict[int, int], bool]:
        """Hop distance from the source set to each reachable target.

        The one-to-many kernel behind ``diameter``, which takes the
        largest hop count found; every other distance is a
        :meth:`pair_distance` query.

        Returns ``(found, exhausted)``.  The search stops once every
        target is found, the cap is hit, or the frontier dies; targets
        missing from ``found`` are unreachable when ``exhausted`` is
        True, otherwise only known to be farther than explored.
        """
        net = self.net
        adj = net._adj
        seen, tgt = self._seen, self._tgt
        if tgt is None:
            if seen is None:
                seen = self._seen = [0] * net.num_slots
            tgt = self._tgt = [0] * net.num_slots
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
                      target_set: Iterable[int], cap: int | None = None) -> Distance:
    """Minimum collaboration distance between two author sets.

    0 when the sets share an author (an author is at distance 0 from
    themself, network membership notwithstanding); authors absent from
    the window behave as isolated nodes.  A thin wrapper over
    :meth:`BFSSearcher.pair_distance`.
    """
    sources = set(source_set)
    targets = set(target_set)
    if not sources or not targets:
        raise ValueError("author sets must be non-empty")
    for a in sources | targets:
        _check_id(a, net.num_slots)
    code = BFSSearcher(net).pair_distance(sources, targets, cap)
    if code >= 0:
        return Distance.finite(code)
    return INFINITE if code == INF_CODE else Distance.exceeds(cap)


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


@dataclass(frozen=True)
class ComponentStats:
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


@dataclass(frozen=True)
class NetworkStats:
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
