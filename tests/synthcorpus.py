"""Shared builders for test corpora, graphs, and oracles."""

from __future__ import annotations

import json
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

from citedist.config import Config
from citedist.corpus import parse_records

TABLE1_PAPERS = [
    ("p1", 2012, ["1", "8"]),
    ("p2", 2013, ["1", "2", "3"]),
    ("p3", 2014, ["2", "3", "4"]),
    ("p4", 2015, ["5", "6"]),
    ("p5", 2016, ["5", "6", "7"]),
    ("p6", 2017, ["4", "6"]),
    ("p7", 2018, ["9", "2"]),
]


# Citations added to the table-1 papers for the end-to-end golden: one
# event per distance kind in each citing year (0, finite, INF).
TABLE1_REFERENCES = {"p5": ["p3"], "p6": ["p1", "p5"], "p7": ["p1", "p2", "p4"]}


def table1_lines(references: dict[str, list[str]] | None = None) -> list[str]:
    references = references or {}
    return [
        json.dumps({"id": p, "year": y, "authors": a, "references": references.get(p, [])})
        for p, y, a in TABLE1_PAPERS
    ]


def table1_store():
    return parse_records(table1_lines(), Config())


def record_line(paper_id, year, authors, references=()) -> str:
    return json.dumps(
        {"id": paper_id, "year": year, "authors": list(authors), "references": list(references)}
    )


def random_corpus_lines(rng: random.Random, n_papers: int, n_authors: int,
                        year_lo: int, year_hi: int,
                        max_authors: int = 4, max_refs: int = 4) -> list[str]:
    """Random corpus: every reference resolves to an earlier paper."""
    lines = []
    years = sorted(rng.randint(year_lo, year_hi) for _ in range(n_papers))
    for k in range(n_papers):
        n_auth = rng.randint(1, max_authors)
        authors = rng.sample(range(n_authors), min(n_auth, n_authors))
        refs = []
        if k > 0:
            for _ in range(rng.randint(0, max_refs)):
                refs.append(f"p{rng.randrange(k)}")
        refs = sorted(set(refs))
        lines.append(record_line(f"p{k}", years[k], [f"a{i}" for i in authors], refs))
    return lines


def write_scale_corpus(path, n_papers: int, n_authors: int, n_citations: int,
                       year_lo: int, year_hi: int, seed: int = 0) -> None:
    """Stream a large synthetic corpus to ``path``.

    Exactly ``n_papers`` papers and ``n_citations`` resolvable references;
    every author id in the pool appears at least once.  Papers are spread
    evenly over the year span and cite uniformly among earlier papers.
    """
    rng = random.Random(seed)
    pool = list(range(n_authors))
    rng.shuffle(pool)
    pool_cursor = 0
    years = year_hi - year_lo + 1
    need = n_citations
    with open(path, "w", encoding="utf-8") as fp:
        for k in range(n_papers):
            year = year_lo + (k * years) // n_papers
            n_auth = rng.randint(1, 3)
            if pool_cursor < n_authors:
                take = min(n_auth, n_authors - pool_cursor)
                authors = pool[pool_cursor:pool_cursor + take]
                pool_cursor += take
            else:
                authors = rng.sample(range(n_authors), n_auth)
            remaining = n_papers - k
            want = -(-need // remaining)  # ceil
            take_refs = min(want, k, 15)
            refs = rng.sample(range(k), take_refs) if take_refs else []
            need -= take_refs
            fp.write(json.dumps({
                "id": f"p{k}",
                "year": year,
                "authors": [f"a{i}" for i in authors],
                "references": [f"p{r}" for r in refs],
            }, separators=(",", ":")) + "\n")
    if need:
        raise AssertionError(f"could not place {need} citations")


def random_graph(rng: random.Random, n: int, p: float):
    """(nodes, edges) of an Erdos-Renyi style graph on 0..n-1."""
    nodes = list(range(n))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return nodes, edges


def floyd_warshall(num_slots: int, edges) -> "object":
    """All-pairs hop distances by repeated relaxation (numpy min-plus)."""
    import numpy as np

    d = np.full((num_slots, num_slots), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(num_slots):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    return d


def reference_event_distances(store, net, year, cap=None):
    """The per-paper engine that ``compute_event_distances`` replaced,
    kept as a differential reference.

    One multi-target BFS per citing paper (``BFSSearcher.distances_to``)
    runs until every needed cited author is found, the cap is hit, or
    the frontier dies; a reference with no author found is INF when the
    search was exhausted and EXCEEDS (-2) otherwise.  Codes come out
    self-citations first, then the rest, per citing paper.
    """
    from citedist.collab import BFSSearcher

    searcher = BFSSearcher(net)
    out = []
    paper_authors = store.paper_authors
    for pid in store.papers_in_year(year):
        refs = store.paper_refs[pid]
        if not refs:
            continue
        citing = paper_authors[pid]
        jset = set(citing)
        pending = []
        targets = set()
        for ref in refs:
            cited = paper_authors[ref]
            if jset.intersection(cited):
                out.append((ref, pid, 0))
            else:
                pending.append((ref, cited))
                targets.update(cited)
        if not pending:
            continue
        found, exhausted = searcher.distances_to(citing, targets, cap)
        for ref, cited in pending:
            best = -1
            for author in cited:
                hops = found.get(author)
                if hops is not None and (best < 0 or hops < best):
                    best = hops
            if best >= 0:
                out.append((ref, pid, best))
            elif exhausted:
                out.append((ref, pid, -1))
            else:
                out.append((ref, pid, -2))
    return out


def reference_repeat_cells(store, year_range, net, max_repeat=10, max_distance=12):
    """The per-source engine that ``repeated_citation_matrix`` replaced,
    kept as a differential reference: ``(cells, total_citations,
    pair_count)``.

    Pairs are grouped by their smaller author, and one uncapped
    ``BFSSearcher.distances_to`` from that author finds all its
    partners; a partner not found is INF, one farther than
    ``max_distance`` goes to the "(max+1)+" bin.
    """
    from citedist.collab import BFSSearcher

    lo, hi = year_range
    pair_counts = {}
    total_citations = 0
    for year in range(lo, hi + 1):
        for cited_pid, citing_pid in store.iter_citations(year):
            seen_pairs = set()
            for m in store.paper_authors[cited_pid]:
                for n in store.paper_authors[citing_pid]:
                    if m != n:
                        seen_pairs.add((m, n) if m < n else (n, m))
            for pair in seen_pairs:
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
                total_citations += 1
    width = max_distance + 3  # 0..max, "(max+1)+", "INF"
    cells = [[0] * width for _ in range(max_repeat + 1)]
    by_source = {}
    for (a, b), count in pair_counts.items():
        by_source.setdefault(a, []).append((b, count))
    searcher = BFSSearcher(net)
    for a, partners in sorted(by_source.items()):
        found, _ = searcher.distances_to([a], [b for b, _ in partners], cap=None)
        for b, count in partners:
            hops = found.get(b)
            if hops is None:
                col = width - 1
            elif hops > max_distance:
                col = width - 2
            else:
                col = hops
            cells[min(count - 1, max_repeat)][col] += 1
    return cells, total_citations, len(pair_counts)


def oracle_set_distance(dist_matrix, sources, targets) -> float:
    """Brute-force min over all (source, target) pairs; math.inf if none."""
    best = float("inf")
    for s in sources:
        for t in targets:
            if s == t:
                return 0.0
            if dist_matrix[s, t] < best:
                best = dist_matrix[s, t]
    return best


def oracle_index_run(lines, cfg: Config,
                     year: int | None = None) -> tuple[str, dict[int, Counter]]:
    """The ``report index-table --year year`` CSV text (the last corpus
    year by default) that ingest and an exact run of ``cfg`` (with its
    default year range) over the corpus ``lines`` give, and each planned
    year's event distances (a Counter; ``math.inf`` for no path), from
    the definitions alone, calling no engine code.

    Each planned year's window network joins every two authors of a paper
    from the last ``window_length`` years; hop distances come from
    :func:`floyd_warshall`, and an event's distance is the minimum over
    (citing author, cited author) pairs, 0 for a shared author.  Every
    distinct author of the cited paper is credited the whole citation;
    crediting by cited paper instead must give each scholar the sum over
    their papers.  At the report year, per scholar credited in a planned
    year up to it: Q; h and g over the citations from every year up to
    it; c = max_v min(alpha v, d_v) over the distances in decreasing
    order (INF first); N_w = #INF; and x = sum of min(d, n) / n (INF, and
    every citation when n = 0, weigh 1), printed as
    ``IndexRecord.csv_row`` does and sorted by label.
    """
    papers = {}
    for line in lines:
        rec = json.loads(line)
        papers.setdefault(rec["id"], rec)  # the first of a repeated id
    published = {pid: rec["year"] for pid, rec in papers.items()}
    authors = {pid: list(dict.fromkeys(rec["authors"])) for pid, rec in papers.items()}
    refs = {pid: [r for r in dict.fromkeys(rec.get("references", [])) if r != pid and r in papers]
            for pid, rec in papers.items()}
    slot = {a: i for i, a in enumerate(dict.fromkeys(a for names in authors.values() for a in names))}
    lo, hi = min(published.values()), max(published.values())
    report_year = hi if year is None else year
    w = cfg.window_length

    events: dict[int, Counter] = {}
    by_scholar: dict[str, Counter] = defaultdict(Counter)
    by_paper: dict[str, Counter] = defaultdict(Counter)
    for y in range(lo + w - 1 if cfg.strict_window else lo, hi + 1):
        edges = [(slot[a], slot[b]) for pid in papers if y - w < published[pid] <= y
                 for a, b in combinations(authors[pid], 2)]
        dist = floyd_warshall(len(slot), edges)
        events[y] = Counter()
        for pid in (pid for pid in papers if published[pid] == y):
            for ref in refs[pid]:
                d = oracle_set_distance(dist, [slot[a] for a in authors[pid]],
                                        [slot[a] for a in authors[ref]])
                d = int(d) if d < math.inf else math.inf
                events[y][d] += 1
                if y <= report_year:
                    by_paper[ref][d] += 1
                    for a in authors[ref]:
                        by_scholar[a][d] += 1

    papers_of = defaultdict(list)
    for pid, names in authors.items():
        for a in names:
            papers_of[a].append(pid)
    for a, tally in by_scholar.items():
        assert tally == sum((by_paper[p] for p in papers_of[a]), Counter()), a
    cites = Counter(ref for pid in papers if published[pid] <= report_year for ref in refs[pid])

    n, alpha = cfg.n, Fraction(cfg.alpha)
    rows = ["scholar,year,Q,h,g,c,N_w,x"]
    for a in sorted(by_scholar):
        ds = sorted(by_scholar[a].elements(), reverse=True)
        counts = sorted((cites[p] for p in papers_of[a]), reverse=True)
        h = max(k for k in range(len(counts) + 1) if sum(c >= k for c in counts) >= k)
        g = max(k for k in range(len(counts) + 1) if sum(counts[:k]) >= k * k)
        c = max((min(alpha * v, d) for v, d in enumerate(ds, 1)), default=0)
        x = sum(Fraction(1) if d == math.inf or n == 0 else Fraction(min(d, n), n) for d in ds)
        shown_c = str(int(c)) if c == int(c) else f"{float(c):.2f}"
        rows.append(f"{a},{report_year},{len(ds)},{h},{g},{shown_c},"
                    f"{ds.count(math.inf)},{float(x):.2f}")
    return "\n".join(rows) + "\n", events


def expected_code(exact: float, cap: int | None) -> int:
    """The distance code of an exact oracle distance under ``cap``."""
    from citedist.collab import EXCEEDS_CODE, INF_CODE

    if exact == float("inf"):
        return INF_CODE
    if cap is not None and exact > cap:
        return EXCEEDS_CODE
    return int(exact)


def fraction_c_oracle(finite, infinite, alpha):
    """max over ranks v of min(alpha * v, d_v), evaluated in alpha's own
    arithmetic (int or Fraction), walking the distinct distances
    downwards; the tie between alpha * v and d goes to alpha * v."""
    best = 0
    v = infinite
    if v:
        best = alpha * v
    for d in sorted((d for d, c in finite.items() if c), reverse=True):
        v += finite[d]
        candidate = min(alpha * v, d)
        if candidate > best:
            best = candidate
    return best


def assortativity_oracle(degrees: dict[int, int], edges) -> float | None:
    """Literal evaluation of the remaining-degree Pearson formula via the
    explicit joint distribution of edge-end degrees."""
    import numpy as np

    if not edges:
        return None
    top = max(degrees[u] for e in edges for u in e)
    e_ok = np.zeros((top, top))
    for u, v in edges:
        e_ok[degrees[u] - 1, degrees[v] - 1] += 1.0
        e_ok[degrees[v] - 1, degrees[u] - 1] += 1.0
    e_ok /= e_ok.sum()
    q = e_ok.sum(axis=0)
    ks = np.arange(top)
    sigma2 = float((ks * ks * q).sum() - (ks * q).sum() ** 2)
    if sigma2 == 0.0:
        return None
    r = 0.0
    for o in range(top):
        for k in range(top):
            r += o * k * (e_ok[o, k] - q[o] * q[k])
    return r / sigma2


def clustering_oracle(nodes, edges) -> float:
    """Average clustering by brute-force triangle enumeration."""
    from itertools import combinations

    nodes = list(nodes)
    edge_set = {frozenset(e) for e in edges}
    neigh = {u: set() for u in nodes}
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    total = 0.0
    for u in nodes:
        l = len(neigh[u])
        if l < 2:
            continue
        triangles = sum(
            1 for v, w in combinations(sorted(neigh[u]), 2) if frozenset((v, w)) in edge_set
        )
        total += 2.0 * triangles / (l * (l - 1))
    return total / len(nodes)
