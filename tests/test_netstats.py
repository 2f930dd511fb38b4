"""Network statistics: assortativity, clustering, components, report row."""

import random

import pytest

from citedist.collab import (
    CollabNetwork,
    assortativity,
    avg_clustering,
    build_window,
    connected_components,
    diameter,
    network_report,
)

from synthcorpus import (
    assortativity_oracle,
    clustering_oracle,
    floyd_warshall,
    random_graph,
    table1_store,
)


def star(leaves: int) -> CollabNetwork:
    return CollabNetwork.from_edges(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def test_star_assortativity_is_minus_one():
    assert assortativity(star(3)) == pytest.approx(-1.0, abs=1e-9)


def test_triangle_assortativity_undefined():
    net = CollabNetwork.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
    assert assortativity(net) is None


def test_disjoint_edges_assortativity_undefined():
    net = CollabNetwork.from_edges(range(4), [(0, 1), (2, 3)])
    assert assortativity(net) is None


def test_assortativity_needs_an_edge():
    net = CollabNetwork.from_edges([0, 1], [])
    with pytest.raises(ValueError):
        assortativity(net)


def test_clustering_examples():
    triangle = CollabNetwork.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
    assert avg_clustering(triangle) == pytest.approx(1.0)
    path = CollabNetwork.from_edges(range(3), [(0, 1), (1, 2)])
    assert avg_clustering(path) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        avg_clustering(CollabNetwork.from_edges([], []))


def test_random_graphs_match_oracles():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 20)
        nodes, edges = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        cbar = avg_clustering(net)
        assert 0.0 <= cbar <= 1.0
        assert cbar == pytest.approx(clustering_oracle(nodes, edges), abs=1e-9)
        if edges:
            degrees = {u: net.degree(u) for u in nodes}
            expected = assortativity_oracle(degrees, edges)
            got = assortativity(net)
            if expected is None:
                assert got is None
            else:
                assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9
                assert got == pytest.approx(expected, abs=1e-9)


def test_networkx_cross_check():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(4, 30)
        nodes, edges = random_graph(rng, n, 0.2)
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        g = nx.Graph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        assert avg_clustering(net) == pytest.approx(nx.average_clustering(g), abs=1e-9)
        r = assortativity(net) if edges else None
        if r is not None:
            assert r == pytest.approx(nx.degree_assortativity_coefficient(g), abs=1e-6)
        sizes = sorted((len(c) for c in nx.connected_components(g)), reverse=True)
        assert sorted((c.node_count for c in connected_components(net)), reverse=True) == sizes


def test_components_on_fixture_windows():
    store = table1_store()
    net16 = build_window(store, 2016, 5)
    comps = connected_components(net16)
    lab = store.author_labels
    members = [sorted(lab[m] for m in c.members) for c in comps]
    assert members == [["1", "2", "3", "4", "8"], ["5", "6", "7"]]
    assert [c.edge_count for c in comps] == [6, 3]
    net18 = build_window(store, 2018, 5)
    comps18 = connected_components(net18)
    assert len(comps18) == 1 and comps18[0].node_count == 7
    assert comps18[0].node_pct == pytest.approx(100.0)


def test_components_edgeless_and_ties():
    net = CollabNetwork.from_edges([0, 1, 2], [])
    comps = connected_components(net)
    assert [c.node_count for c in comps] == [1, 1, 1]
    # equal sizes order by smallest member id
    assert [min(c.members) for c in comps] == [0, 1, 2]
    assert sum(c.node_count for c in comps) == net.node_count


def test_diameter():
    net = CollabNetwork.from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    comp = connected_components(net)[0]
    assert diameter(net, comp.members) == 4


def test_diameter_matches_floyd_warshall():
    rng = random.Random(4242)
    multi_component = 0
    for _ in range(50):
        n = rng.randint(2, 40)
        nodes, edges = random_graph(rng, n, rng.choice([0.03, 0.06, 0.1, 0.3]))
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        dist = floyd_warshall(n, edges)
        comps = connected_components(net)
        multi_component += len(comps) > 1
        for comp in comps:
            members = sorted(comp.members)
            expected = max(int(dist[u, v]) for u in members for v in members)
            assert diameter(net, comp.members) == expected
    assert multi_component >= 25


def test_network_report_fixture():
    store = table1_store()
    net = build_window(store, 2018, 5)
    stats = network_report(net, with_diameter=True)
    assert stats.node_count == 7
    assert stats.edge_count == 8
    assert stats.average_degree == pytest.approx(16 / 7)
    assert stats.first_component.node_count == 7
    assert stats.second_component is None
    assert stats.diameter == 4  # 9 to 5 spans the graph
    row = stats.csv_row(2018)
    assert row.startswith("2018,7,8,")


def test_network_report_triangle():
    net = CollabNetwork.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
    stats = network_report(net)
    assert stats.avg_clustering == pytest.approx(1.0)
    assert stats.assortativity is None  # zero remaining-degree variance
    assert stats.first_component.node_pct == pytest.approx(100.0)
    assert stats.first_component.edge_pct == pytest.approx(100.0)


def test_network_report_random_against_recount():
    rng = random.Random(41)
    nodes, edges = random_graph(rng, 200, 0.012)
    net = CollabNetwork.from_edges(nodes, edges, num_slots=200)
    stats = network_report(net)
    assert stats.node_count == 200
    assert stats.edge_count == len({tuple(sorted(e)) for e in edges})
    assert stats.average_degree == pytest.approx(2 * stats.edge_count / 200)
    assert stats.avg_clustering == pytest.approx(clustering_oracle(nodes, edges), abs=1e-9)
    degrees = {u: net.degree(u) for u in nodes}
    expected_r = assortativity_oracle(degrees, edges)
    if expected_r is None:
        assert stats.assortativity is None
    else:
        assert stats.assortativity == pytest.approx(expected_r, abs=1e-9)
    comps = connected_components(net)
    assert sum(c.node_count for c in comps) == 200
    assert sum(c.edge_count for c in comps) == stats.edge_count
