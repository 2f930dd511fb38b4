"""Window construction and set-to-set shortest distances."""

import math
import random
import signal
import warnings
from itertools import combinations
from pathlib import Path

import pytest

from citedist.collab import (
    EXCEEDS_CODE,
    INF_CODE,
    BFSSearcher,
    CollabNetwork,
    build_window,
    connected_components,
    shortest_distance,
)
from citedist.config import Config
from citedist.corpus import parse_records

from synthcorpus import (
    expected_code,
    floyd_warshall,
    oracle_set_distance,
    random_corpus_lines,
    random_graph,
    record_line,
    table1_lines,
    table1_store,
)


def edge_labels(store, net):
    lab = store.author_labels
    return {tuple(sorted((lab[u], lab[v]))) for u, v in net.edges()}


def node_labels(store, net):
    return {store.author_labels[n] for n in net.nodes}


# Expected window contents derived from the seven-paper fixture under the
# construction rule: an edge iff the two authors share a paper published
# in [y-4, y].
WINDOW_2016_EDGES = {
    ("1", "8"), ("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4"),
    ("5", "6"), ("5", "7"), ("6", "7"),
}
WINDOW_2017_EDGES = {
    ("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4"),
    ("4", "6"), ("5", "6"), ("5", "7"), ("6", "7"),
}
WINDOW_2018_EDGES = {
    ("2", "3"), ("2", "4"), ("3", "4"), ("5", "6"), ("5", "7"), ("6", "7"),
    ("4", "6"), ("2", "9"),
}


def test_window_2018_golden():
    store = table1_store()
    net = build_window(store, 2018, 5)
    assert node_labels(store, net) == {"2", "3", "4", "5", "6", "7", "9"}
    assert edge_labels(store, net) == WINDOW_2018_EDGES
    assert net.edge_count == 8


def test_window_2017_golden():
    store = table1_store()
    net = build_window(store, 2017, 5)
    assert node_labels(store, net) == {"1", "2", "3", "4", "5", "6", "7"}
    assert edge_labels(store, net) == WINDOW_2017_EDGES


def test_window_2016_golden():
    store = table1_store()
    net = build_window(store, 2016, 5)
    # p1 (2012) is inside [2012, 2016], so author 8 and edge 1-8 are present;
    # author 9 only appears in 2018.
    assert node_labels(store, net) == {"1", "2", "3", "4", "5", "6", "7", "8"}
    assert edge_labels(store, net) == WINDOW_2016_EDGES
    assert "9" not in node_labels(store, net)


def test_single_author_paper_gives_isolated_node():
    from citedist.config import Config
    from citedist.corpus import parse_records

    store = parse_records([record_line("p", 2000, ["solo"])], Config())
    net = build_window(store, 2000, 5)
    assert net.node_count == 1 and net.edge_count == 0


def test_window_semantics_outside_papers_ignored():
    from citedist.config import Config
    from citedist.corpus import parse_records

    base = [record_line("p1", 2010, ["a", "b"]), record_line("p2", 2012, ["b", "c"])]
    extra = base + [record_line("p3", 2004, ["c", "d"]), record_line("p4", 2013, ["d", "e"])]
    s1 = parse_records(base, Config())
    s2 = parse_records(extra, Config())
    n1 = build_window(s1, 2012, 5)
    n2 = build_window(s2, 2012, 5)
    assert edge_labels(s1, n1) == edge_labels(s2, n2)
    assert node_labels(s1, n1) == node_labels(s2, n2)


def test_readme_library_example(tmp_path, monkeypatch):
    """The README's "Library use" snippet runs as written on the table-1
    corpus: 9-2-4-6-5 is the shortest route in the 2018 window."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("## Library use")) + len("```python\n")
    snippet = readme[start:readme.index("```", start)]
    (tmp_path / "corpus.jsonl").write_text("\n".join(table1_lines()) + "\n")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)  # the snippet leaves its file open
        exec(snippet, names)
    assert names["d"] == 4
    assert names["near"] == EXCEEDS_CODE
    assert names["ledger"].year == 2018


def test_distance_fixture_paths():
    store = table1_store()
    a = store.author_index
    net18 = build_window(store, 2018, 5)
    # 9-2-4-6-5 is the shortest route in the 2018 window
    assert shortest_distance(net18, {a["9"]}, {a["5"]}) == 4
    assert shortest_distance(net18, {a["2"]}, {a["2"]}) == 0
    net16 = build_window(store, 2016, 5)
    assert shortest_distance(net16, {a["1"]}, {a["5"]}) == INF_CODE


def test_empty_set_is_an_error():
    net = CollabNetwork.from_edges([0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        shortest_distance(net, set(), {1})


def test_cap_results():
    net = CollabNetwork.from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert shortest_distance(net, {0}, {4}, cap=4) == 4
    assert shortest_distance(net, {0}, {4}, cap=3) == EXCEEDS_CODE
    assert shortest_distance(net, {0}, {4}, cap=0) == EXCEEDS_CODE
    # with an unreachable node the search proves exhaustion despite the cap
    net2 = CollabNetwork.from_edges(range(4), [(0, 1)])
    assert shortest_distance(net2, {0}, {3}, cap=2) == INF_CODE
    # the source's component reaches past the cap and the target lies in
    # another one: the component labels prove INF (a frontier-only search
    # gave exceeds(2) here)
    net3 = CollabNetwork.from_edges(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
    assert shortest_distance(net3, {0}, {5}, cap=2) == INF_CODE
    assert shortest_distance(net3, {5}, {0}, cap=2) == INF_CODE


def test_absent_authors_behave_as_isolated():
    net = CollabNetwork.from_edges([0, 1], [(0, 1)], num_slots=5)
    assert shortest_distance(net, {4}, {4}) == 0
    assert shortest_distance(net, {4}, {0}) == INF_CODE


def test_random_graphs_match_brute_force():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 60)
        p = rng.choice([0.02, 0.05, 0.1, 0.3])
        nodes, edges = random_graph(rng, n, p)
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        dist = floyd_warshall(n, edges)
        for _ in range(12):
            sources = set(rng.sample(nodes, rng.randint(1, min(3, n))))
            targets = set(rng.sample(nodes, rng.randint(1, min(3, n))))
            expected = oracle_set_distance(dist, sources, targets)
            got = shortest_distance(net, sources, targets)
            assert got == expected_code(expected, None)
            # symmetry
            back = shortest_distance(net, targets, sources)
            assert back == got


def test_set_min_consistency_and_triangle_inequality():
    rng = random.Random(5)
    nodes, edges = random_graph(rng, 30, 0.1)
    net = CollabNetwork.from_edges(nodes, edges, num_slots=30)
    dist = floyd_warshall(30, edges)
    sources = {1, 5, 9}
    targets = {2, 7}
    got = shortest_distance(net, sources, targets)
    singles = [
        shortest_distance(net, {s}, {t}) for s in sources for t in targets
    ]
    finite = [d for d in singles if d >= 0]
    if finite:
        assert got == min(finite)
    else:
        assert got == INF_CODE
    # triangle inequality over the oracle matrix
    for a in range(30):
        for b in range(30):
            for c in (3, 11):
                if dist[a, c] != math.inf and dist[c, b] != math.inf:
                    assert dist[a, b] <= dist[a, c] + dist[c, b]


def test_cap_soundness_random():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(4, 40)
        nodes, edges = random_graph(rng, n, 0.08)
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        dist = floyd_warshall(n, edges)
        for _ in range(10):
            s = {rng.randrange(n)}
            t = {rng.randrange(n)}
            cap = rng.randint(0, 5)
            exact = oracle_set_distance(dist, s, t)
            capped = shortest_distance(net, s, t, cap=cap)
            assert capped == expected_code(exact, cap)  # EXCEEDS_CODE: a path longer than cap


def test_pair_distance_matches_floyd_warshall():
    rng = random.Random(7070)
    at_cap = exceeds = infinite = 0
    for _ in range(40):
        n = rng.randint(2, 50)
        nodes, edges = random_graph(rng, n, rng.choice([0.03, 0.06, 0.1, 0.25]))
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        dist = floyd_warshall(n, edges)
        searcher = BFSSearcher(net)  # one searcher: stamps are reused across queries
        for _ in range(15):
            a = set(rng.sample(nodes, rng.randint(1, min(3, n))))
            b = set(rng.sample(nodes, rng.randint(1, min(3, n))))
            exact = oracle_set_distance(dist, a, b)
            for cap in (None, *range(7)):
                want = expected_code(exact, cap)
                assert searcher.pair_distance(a, b, cap) == want
                assert searcher.pair_distance(b, a, cap) == want
                at_cap += cap is not None and exact == cap
                exceeds += want == EXCEEDS_CODE
                infinite += want == INF_CODE
            # the one-to-many kernel shares the stamp list
            found, _ = searcher.distances_to(a, b)
            assert min(found.values(), default=math.inf) == exact
    assert at_cap > 20 and exceeds > 20 and infinite > 20


def test_pair_distance_deep_source_component_target_elsewhere():
    # a path 0-1-...-9 deeper than every cap, and a target component {10, 11};
    # slot 12 is an author outside the window
    path = [(i, i + 1) for i in range(9)]
    net = CollabNetwork.from_edges(range(12), path + [(10, 11)], num_slots=13)
    searcher = BFSSearcher(net)
    for cap in (None, *range(7)):
        for src, tgt in (({0}, {10}), ({0, 5}, {11, 12}), ({12}, {0})):
            assert searcher.pair_distance(src, tgt, cap) == INF_CODE
            assert searcher.pair_distance(tgt, src, cap) == INF_CODE
        # a cited author in the source's component is still found, or
        # proven farther than the cap
        assert searcher.pair_distance({0}, {10, 9}, cap) == expected_code(9, cap)
    assert searcher.pair_distance({12}, {12, 10}) == 0  # a shared author, even off the window


def test_distances_from_path_far_and_near_sets_in_either_order():
    # a path 0-1-...-9, a component {10, 11} and slot 12 outside the window
    path = [(i, i + 1) for i in range(9)]
    net = CollabNetwork.from_edges(range(12), path + [(10, 11)], num_slots=13)
    searcher = BFSSearcher(net)
    sets = [{9}, {2, 11}, (), {12}, {5, 8}, {0, 7}, [1]]
    for cap in (None, *range(10)):
        want = [expected_code(d, cap) for d in (9, 2, math.inf, math.inf, 5, 0, 1)]
        assert searcher.distances_from({0}, sets, cap) == want
        assert searcher.distances_from({0}, sets[::-1], cap) == want[::-1]
        assert searcher.distances_from([0, 0], iter(sets), cap) == want
    assert searcher.distances_from({0}, []) == []
    assert searcher.distances_from({10, 12}, [{11}, {12}, {0}, {10, 3}]) == [1, 0, INF_CODE, 0]


def test_distances_from_ends_when_a_side_runs_out():
    """A target that the component labels put in the sources' component
    but the adjacency does not reach is INF_CODE, not an endless search
    over empty levels.  Both sides run out: the ball (an asymmetric
    adjacency, and sources {3} below) and the targets' side (sources
    {0}).  An alarm turns a hang into a failure."""
    def hang(signum, frame):
        raise TimeoutError("distances_from did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        net = CollabNetwork(2000, 1, 3, frozenset({0, 1, 2}), [(1,), (), ()], 1)
        assert BFSSearcher(net).distances_from({1}, [(0,)]) == [INF_CODE]
        two = CollabNetwork.from_edges(range(5), [(0, 1), (1, 2), (3, 4)])
        two._labels = [0] * 5  # labels that join the two components
        searcher = BFSSearcher(two)
        for cap in (None, 10):
            assert searcher.distances_from({0}, [{3}, {2}], cap) == [INF_CODE, 2]
            assert searcher.distances_from({3}, [{0}, {4}], cap) == [INF_CODE, 1]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_distances_from_matches_floyd_warshall():
    """Several target sets per call against all-pairs distances, in
    shuffled, near-first and far-first order, so that a set is often
    answered from a ball grown for an earlier one.  The sets include
    ones that share a source author, lie outside the window, lie in
    another component, or are empty.  One searcher serves every call,
    interleaved with ``distances_to`` and ``pair_distance``."""
    rng = random.Random(9191)
    filled = {"reused": 0, "exceeds": 0, "other_component": 0, "deep": 0}
    for _ in range(40):
        n = rng.randint(4, 60)
        nodes, edges = random_graph(rng, n, rng.uniform(0.8, 3.0) / n)
        num_slots = n + 3  # slots n.. are authors outside the window
        net = CollabNetwork.from_edges(nodes, edges, num_slots=num_slots)
        dist = floyd_warshall(num_slots, edges)
        labels = net.component_labels()
        searcher = BFSSearcher(net)
        for _ in range(8):
            sources = set(rng.sample(range(num_slots), rng.randint(1, 3)))
            sets = [set(rng.sample(range(num_slots), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 6))]
            sets += [set(), {rng.choice(sorted(sources)), rng.randrange(num_slots)},
                     {rng.randrange(n, num_slots)}]
            others = [u for u in nodes if labels[u] not in {labels[s] for s in sources}]
            if others:
                sets.append(set(rng.sample(others, min(2, len(others)))))
                filled["other_component"] += 1
            exact = [oracle_set_distance(dist, sources, t) for t in sets]
            shuffled = rng.sample(range(len(sets)), len(sets))
            near_first = sorted(shuffled, key=lambda i: exact[i])
            finite = sorted({d for d in exact if 0 < d < math.inf})
            filled["reused"] += len(finite) > 1
            filled["deep"] += bool(finite and finite[-1] >= 4)
            for order in (shuffled, near_first, near_first[::-1]):
                for cap in (None, 0, 1, 2, 3):
                    want = [expected_code(exact[i], cap) for i in order]
                    got = searcher.distances_from(sources, [sets[i] for i in order], cap)
                    assert got == want, (sources, [sets[i] for i in order], cap)
                    filled["exceeds"] += want.count(EXCEEDS_CODE)
                # the other kernels share the stamp lists with this one
                found, _ = searcher.distances_to(sources, set().union(*sets))
                assert min(found.values(), default=math.inf) == min(exact)
                i = order[0]
                assert searcher.pair_distance(sources, sets[i]) == expected_code(exact[i], None)
    assert all(v > 20 for v in filled.values()), filled


def test_from_edges_rejects_ids_outside_num_slots():
    with pytest.raises(ValueError, match="author id 3 outside"):
        CollabNetwork.from_edges([0, 1, 2, 3], [(0, 1), (1, 3), (2, 3)], num_slots=3)
    with pytest.raises(ValueError, match="author id 5 outside"):
        CollabNetwork.from_edges([0, 1], [(1, 5)], num_slots=5)
    with pytest.raises(ValueError, match="author id -1 outside"):
        CollabNetwork.from_edges([-1, 0], [])


def test_edges_of_a_few_nodes_among_many_slots():
    net = CollabNetwork.from_edges([3, 500_000], [(900_000, 7), (7, 3), (900_000, 3)],
                                   num_slots=1_000_000)
    assert list(net.edges()) == [(3, 7), (3, 900_000), (7, 900_000)]
    assert net.degree(500_000) == 0 and net.degree(999_999) == 0


@pytest.mark.parametrize("author", [-1, -3, 3, 10])
def test_degree_and_neighbors_reject_ids_outside_num_slots(author):
    """A negative id must not wrap around to the last slots."""
    net = CollabNetwork.from_edges([0, 1, 2], [(1, 2)])
    with pytest.raises(ValueError, match=f"author id {author} outside"):
        net.degree(author)
    with pytest.raises(ValueError, match=f"author id {author} outside"):
        net.neighbors(author)
    assert (net.degree(2), net.neighbors(2)) == (1, [1])
    assert (net.degree(0), net.neighbors(0)) == (0, [])


def reference_window(store, year, window_length):
    """Nodes and edges of a window from each paper's year and authors,
    built without ``papers_in_year`` or any network code."""
    lo = year - window_length + 1
    nodes, edges = set(), set()
    for pid, paper_year in enumerate(store.paper_year):
        if lo <= paper_year <= year:
            authors = store.paper_authors[pid]
            nodes.update(authors)
            edges.update(combinations(sorted(authors), 2))
    return nodes, edges


def union_find_partition(nodes, edges):
    parent = {u: u for u in nodes}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for u in nodes:
        groups.setdefault(find(u), set()).add(u)
    return {frozenset(g) for g in groups.values()}


def window_cases():
    yield table1_store(), ((2018, 5), (2016, 5), (2013, 5), (2012, 3))
    for seed in range(8):
        rng = random.Random(300 + seed)
        lines = random_corpus_lines(rng, rng.randint(30, 90), rng.randint(10, 40), 2000, 2010)
        yield parse_records(lines, Config()), ((2010, 5), (2006, 3), (2002, 5), (2000, 1))


def test_build_window_matches_reference_from_papers():
    """Differential test of the adjacency layout: every query on a built
    window against a reference made from the papers alone, then the
    pair query, capped and exact, against all-pairs distances over the
    reference edges.  Windows cover the table 1 fixture and seeded random
    corpora, some truncated at the corpus start."""
    rng = random.Random(4242)
    truncated = single_author = outside = 0
    for store, windows in window_cases():
        n = store.num_authors
        for year, window_length in windows:
            nodes, edges = reference_window(store, year, window_length)
            net = build_window(store, year, window_length)
            truncated += year - window_length + 1 < min(store.paper_year)
            single_author += any(not any(u in e for e in edges) for u in nodes)
            outside += n - len(nodes)
            assert net.nodes == nodes
            assert net.edge_count == len(edges)
            assert list(net.edges()) == sorted(edges)
            for u in range(n):
                want = sorted({b for a, b in edges if a == u} | {a for a, b in edges if b == u})
                assert sorted(net.neighbors(u)) == want
                assert net.degree(u) == len(want)
            partition = union_find_partition(nodes, edges)
            labels = net.component_labels()
            groups = {}
            for u in nodes:
                groups.setdefault(labels[u], set()).add(u)
            assert {frozenset(g) for g in groups.values()} == partition
            assert all(labels[u] == -1 for u in range(n) if u not in nodes)
            assert {c.members: c.edge_count for c in connected_components(net)} == {
                members: sum(1 for a, _ in edges if a in members) for members in partition
            }
            dist = floyd_warshall(n, edges)
            searcher = BFSSearcher(net)
            for _ in range(25):
                a = set(rng.sample(range(n), rng.randint(1, min(3, n))))
                b = set(rng.sample(range(n), rng.randint(1, min(3, n))))
                exact = oracle_set_distance(dist, a, b)
                for cap in (None, 0, 1, 2, 3):
                    assert searcher.pair_distance(a, b, cap) == expected_code(exact, cap)
    assert truncated >= 9 and single_author > 10 and outside > 10


def assert_window(store, net, year, window_length):
    """``net`` equals a fresh ``build_window`` and the papers-only reference."""
    fresh = build_window(store, year, window_length)
    assert (net.year, net.window_length, net.num_slots) == (year, window_length, store.num_authors)
    assert net.nodes == fresh.nodes and net.edge_count == fresh.edge_count
    assert net._adj == fresh._adj
    assert net.component_labels() == fresh.component_labels()
    nodes, edges = reference_window(store, year, window_length)
    assert net.nodes == nodes and net.edge_count == len(edges)
    assert list(net.edges()) == sorted(edges)
    assert sum(net.degree(u) for u in range(store.num_authors)) == 2 * len(edges)


def frozen_copy(net):
    return net.year, net.nodes, net.edge_count, list(net._adj), net.component_labels()[:]


def slider_cases():
    """(store, window length) pairs: seeded random corpora, half of them
    with their lines shuffled so that paper ids are not in year order,
    and a corpus with single-author papers, a year without papers and
    authors whose only paper leaves the window."""
    for seed in range(6):
        rng = random.Random(500 + seed)
        lines = random_corpus_lines(rng, rng.randint(30, 90), rng.randint(8, 30), 2000, 2010)
        if seed % 2:
            rng.shuffle(lines)
        store = parse_records(lines, Config())
        for window_length in (1, 2, 3, 5):
            yield store, window_length
    lines = [
        record_line("p0", 2000, ["a", "b"]),  # a's only paper
        record_line("p1", 2000, ["s"]),
        record_line("p2", 2001, ["b", "c"]),
        record_line("p3", 2002, ["c", "d", "s"]),
        record_line("p4", 2003, ["s"]),
        record_line("p5", 2005, ["d", "e"]),  # no paper in 2004
        record_line("p6", 2005, ["lone"]),  # lone's only paper, single-author
    ]
    store = parse_records(lines, Config())
    for window_length in (1, 2, 3):
        yield store, window_length


def shares_tuples(net, previous):
    return any(t and t is u for t, u in zip(net._adj, previous._adj))


def test_window_slider_matches_fresh_windows():
    """Differential test of the slide: each window built from the last,
    over consecutive years from before the corpus start (the truncated
    first windows) to past its end, then a gap and a backward jump, each
    window against a fresh ``build_window`` and the papers-only
    reference.  A network handed out never changes when it is slid
    from, and a slide shares the neighbour tuples of authors it did not
    rebuild."""
    slid = shared = 0
    for store, window_length in slider_cases():
        lo, hi = store.year_span()
        years = list(range(lo - 2, hi + 3)) + [hi - 1, hi + 1, lo, lo + 1, hi + 10, lo]
        prev = None
        for year in years:
            net = build_window(store, year, window_length, prev and prev[0])
            assert_window(store, net, year, window_length)
            if prev is not None:
                assert frozen_copy(prev[0]) == prev[1]
                if year == prev[0].year + 1:
                    slid += 1
                    shared += shares_tuples(net, prev[0])
            prev = net, frozen_copy(net)
    assert slid > 200 and shared > 100


def test_window_slider_drops_authors_whose_papers_left():
    store = parse_records([
        record_line("p0", 2000, ["a", "b"]),
        record_line("p1", 2000, ["s"]),
        record_line("p2", 2001, ["b", "c"]),
        record_line("p3", 2003, ["s"]),
    ], Config())
    a, b, c, solo = (store.author_index[x] for x in ("a", "b", "c", "s"))
    net = build_window(store, 2000, 2)
    assert net.node_count == 3
    net = build_window(store, 2001, 2, net)
    assert net.node_count == 4
    net = build_window(store, 2002, 2, net)  # window 2001-2002: p0 and p1 have left
    assert net.nodes == {b, c} and net.edge_count == 1
    assert net.neighbors(b) == [c] and net.degree(a) == 0
    net = build_window(store, 2003, 2, net)
    assert net.nodes == {solo} and net.edge_count == 0
    net = build_window(store, 2004, 2, net)
    assert net.nodes == {solo} and net.degree(solo) == 0
    assert build_window(store, 2005, 2, net).node_count == 0


def test_window_slider_rejects_empty_window_length():
    store = table1_store()
    with pytest.raises(ValueError):
        build_window(store, 2018, 0, build_window(store, 2017, 1))
    with pytest.raises(ValueError):
        build_window(store, 2018, 0)


def test_build_window_slides_only_from_its_own_store_and_length():
    """A ``previous`` for the year before is not slid from when another
    store or window length built it, or when it was built from edges:
    the window is fresh, equal to one built without ``previous``, and
    shares no neighbour tuple with it."""
    stores = [store for store, window_length in slider_cases() if window_length == 3]
    for store, other in zip(stores, stores[1:] + stores[:1]):
        lo, hi = store.year_span()
        for year in range(lo, hi + 2):
            fresh = build_window(store, year, 3)
            others = [
                build_window(other, year - 1, 3),
                build_window(store, year - 1, 2),
                CollabNetwork.from_edges(fresh.nodes, fresh.edges(), year - 1, 3,
                                         store.num_authors),
            ]
            for previous in others:
                kept = frozen_copy(previous)
                net = build_window(store, year, 3, previous)
                assert_window(store, net, year, 3)
                assert net._adj == fresh._adj and not shares_tuples(net, previous)
                assert frozen_copy(previous) == kept
