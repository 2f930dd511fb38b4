"""Ingestion: parsing, interning, year slices, and the event stream."""

import hashlib
import io
import json
import random

import pytest

from citedist.config import Config
from citedist.corpus import (
    _SNAPSHOT_BLOCK,
    canonical_from_dblp_v12,
    load_corpus,
    parse_records,
    parse_snapshot,
    yearly_counts,
)
from citedist.errors import EmptyCorpusError, IngestError
from citedist.workspace import Workspace

from synthcorpus import (
    random_corpus_lines,
    record_line,
    table1_lines,
    table1_store,
    write_scale_corpus,
)


def test_table1_counts():
    store = table1_store()
    s = store.summary
    assert (s.papers, s.authors, s.citations) == (7, 9, 0)
    assert s.dangling_references == 0 and s.duplicates == 0 and s.skipped_lines == 0


def test_empty_stream_is_an_error():
    with pytest.raises(EmptyCorpusError):
        parse_records([], Config())


def test_duplicate_paper_keeps_first():
    lines = [
        record_line("p1", 2000, ["a"]),
        record_line("p1", 2005, ["b"]),
    ]
    store = parse_records(lines, Config())
    assert store.summary.duplicates == 1
    assert store.num_papers == 1
    assert store.paper_year[0] == 2000


def test_malformed_lines_are_counted_by_reason():
    lines = [
        "not json at all",
        json.dumps({"id": "p1", "year": 2000, "authors": []}),
        json.dumps({"id": "p2", "year": "2000", "authors": ["a"]}),
        json.dumps({"id": "p3", "authors": ["a"]}),
        record_line("ok", 2000, ["a"]),
    ]
    store = parse_records(lines, Config())
    assert store.num_papers == 1
    assert store.summary.skipped_lines == 4
    assert store.summary.skipped_reasons["bad_json"] == 1


def test_bad_json_is_exactly_what_json_loads_rejects():
    """Each stripped line is decoded on its own: trailing garbage, a BOM,
    two values on one line, and an object split over two lines are each
    one bad_json line, and whitespace-only lines are skipped uncounted.
    The split object would decode as two valid records if its two lines
    were joined."""
    ok = '{"id":"a","year":1,"authors":["x"],"references":[]}'
    lines = [
        ok + " x",
        "\ufeff" + ok,
        b"\xef\xbb\xbf" + ok.encode(),
        "1, 2",
        "   ",
        " \t\r\n",
        "",
        ok + ', {"id":"b","year":1,"authors":["y"]',
        '"references":[]}',
        record_line("c", 1, ["z"]),
    ]
    store = parse_records(lines, Config(year_start=1))
    assert store.paper_labels == ["c"]
    assert store.summary.skipped_lines == 6
    assert store.summary.skipped_reasons == {"bad_json": 6}

    def rejected(line):  # the per-line rule of json.loads, as the oracle
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        try:
            json.loads(line.strip())
        except ValueError:
            return bool(line.strip())
        return False

    assert sum(map(rejected, lines)) == 6
    # joined as the snapshot loader joins a block, the two bad lines pass
    # its one-value-per-line check as two records
    split = lines[-3:-1]
    assert len(json.loads("[" + ",".join(split) + "]")) == len(split)


def test_year_range_filter():
    lines = [record_line("p1", 1950, ["a"]), record_line("p2", 2000, ["a"])]
    store = parse_records(lines, Config(year_start=1990, year_end=2010))
    assert store.num_papers == 1
    assert store.summary.skipped_reasons["year_out_of_range"] == 1


def test_duplicate_authors_collapse_and_self_refs_drop():
    lines = [record_line("p1", 2000, ["a", "b", "a"], ["p1", "p0", "p0"])]
    store = parse_records(lines, Config())
    assert store.paper_authors[0] == (0, 1)
    # the two p0 mentions collapse to one dangling reference
    assert store.summary.dangling_references == 1
    assert store.paper_refs[0] == ()


def test_dangling_references_excluded_from_events():
    lines = [
        record_line("p0", 2000, ["a"]),
        record_line("p1", 2001, ["b"], ["p0", "ghost"]),
    ]
    store = parse_records(lines, Config())
    assert store.summary.citations == 1
    assert store.summary.dangling_references == 1
    assert list(store.iter_citations(2001)) == [(store.paper_index["p0"], store.paper_index["p1"])]


def test_yearly_counts_table1():
    store = table1_store()
    series = yearly_counts(store, range(2012, 2019))
    assert [row[1] for row in series] == [1] * 7
    assert all(row[2] == 0 for row in series)
    assert yearly_counts(store, range(0)) == []


def test_yearly_counts_single_edge():
    lines = [record_line("A", 2000, ["x"]), record_line("B", 2001, ["y"], ["A"])]
    store = parse_records(lines, Config())
    assert yearly_counts(store, [2001]) == [(2001, 1, 1)]


def test_citations_in_year_examples():
    lines = [record_line("A", 2000, ["x"]), record_line("B", 2001, ["y"], ["A"])]
    store = parse_records(lines, Config())
    [(cited, citing)] = store.iter_citations(2001)
    assert store.paper_year[citing] == 2001
    assert store.paper_authors[cited] == (store.author_index["x"],)
    assert list(store.iter_citations(1999)) == []


def test_citation_partition_over_years():
    import random

    rng = random.Random(7)
    store = parse_records(random_corpus_lines(rng, 300, 60, 1990, 2005), Config())
    lo, hi = store.year_span()
    total = sum(len(list(store.iter_citations(y))) for y in range(lo, hi + 1))
    assert total == store.summary.citations
    # yearly paper totals cover the interned papers
    assert sum(n for _, n, _ in yearly_counts(store, range(lo, hi + 1))) == store.num_papers


def test_yearly_counts_match_direct_scan():
    import random

    rng = random.Random(11)
    store = parse_records(random_corpus_lines(rng, 200, 40, 1995, 2003), Config())
    lo, hi = store.year_span()
    for year, n_papers, n_cites in yearly_counts(store, range(lo, hi + 1)):
        assert n_papers == len(store.papers_in_year(year))
        assert n_cites == sum(len(store.paper_refs[p]) for p in store.papers_in_year(year))


def test_dump_round_trip():
    import random

    rng = random.Random(3)
    store = parse_records(random_corpus_lines(rng, 150, 30, 1990, 2000), Config())
    buf = io.StringIO()
    store.dump(buf)
    again = parse_records(buf.getvalue().splitlines(), Config())
    assert again.paper_labels == store.paper_labels
    assert again.author_labels == store.author_labels
    assert again.paper_year == store.paper_year
    assert again.paper_authors == store.paper_authors
    assert again.paper_refs == store.paper_refs
    assert again.years_index == store.years_index
    assert again.summary.citations == store.summary.citations


def test_dump_lines_equal_json_dumps(tmp_path):
    """Each snapshot line is byte-identical to the compact ``json.dumps``
    of its record, for labels that need escapes, non-ASCII and astral
    labels, digit-only ids and papers without references; and the meta
    records the sha256 of the snapshot's bytes."""
    odd = ['q"uote', "back\\slash", "tab\tnl\nnul\x00bell\x07", "caf\u00e9",
           "\u6f22\u5b57", "astral\U0001f600", "\u2028", "0", "007", "42"]
    lines = [record_line("0", 2000, odd[:3])]
    for k, label in enumerate(odd):
        refs = [] if k % 3 else ["0", *odd[max(0, k - 2):k]]
        lines.append(record_line(label, 2000 + k, [label, odd[-1 - k]], refs))
    lines.append(record_line("dangling", 2011, ["a"], ["nowhere", "0"]))
    store = parse_records(lines, Config())
    buf = io.StringIO()
    store.dump(buf)
    oracle = "".join(
        json.dumps({"id": store.paper_labels[pid],
                    "year": store.paper_year[pid],
                    "authors": [store.author_labels[a] for a in store.paper_authors[pid]],
                    "references": [store.paper_labels[r] for r in store.paper_refs[pid]]},
                   separators=(",", ":")) + "\n"
        for pid in range(store.num_papers))
    assert buf.getvalue() == oracle
    assert oracle.isascii() and '"references":[]}' in oracle
    meta = Workspace(tmp_path).write_corpus(store, Config())
    data = (tmp_path / "corpus.jsonl").read_bytes()
    assert data == oracle.encode("ascii")
    assert meta["corpus_sha256"] == hashlib.sha256(data).hexdigest()
    assert json.loads((tmp_path / "corpus.meta.json").read_text()) == meta


def test_snapshot_blocks_match_parse_records():
    """The block decoder builds the store the validating parser builds,
    whether the snapshot fills its last block or not, and a garbled line
    in the second block raises ValueError."""
    lines = random_corpus_lines(random.Random(53), 2 * _SNAPSHOT_BLOCK + 1, 40, 1990, 2000)
    snapshot = io.StringIO()
    parse_records(lines, Config()).dump(snapshot)
    snapshot = snapshot.getvalue().splitlines(keepends=True)
    for size in (1, _SNAPSHOT_BLOCK - 1, _SNAPSHOT_BLOCK, _SNAPSHOT_BLOCK + 1,
                 2 * _SNAPSHOT_BLOCK + 1):
        head = snapshot[:size]
        for cfg in (Config(), Config(year_end=1996)):
            loaded, parsed = parse_snapshot(head, cfg), parse_records(head, cfg)
            for table in STORE_TABLES:
                assert getattr(loaded, table) == getattr(parsed, table), (size, cfg, table)
    k = _SNAPSHOT_BLOCK + 3
    line = snapshot[k]
    for garbled in (line[:-4] + "\n", "\n", line[:20] + "\n", line.replace(":", "", 1),
                    line[:-1] + "," + line):
        with pytest.raises(ValueError):
            parse_snapshot([*snapshot[:k], garbled, *snapshot[k + 1:]], Config())
    comma = line.index(',"authors"')
    with pytest.raises(ValueError):  # the join restores the comma: one value, two lines
        parse_snapshot([*snapshot[:k], line[:comma] + "\n", line[comma + 1:],
                        *snapshot[k + 1:]], Config())


def test_table1_round_trip():
    store = table1_store()
    buf = io.StringIO()
    store.dump(buf)
    again = parse_records(buf.getvalue().splitlines(), Config())
    assert again.paper_labels == store.paper_labels
    assert again.paper_authors == store.paper_authors


STORE_TABLES = ("author_labels", "author_index", "paper_labels", "paper_index",
                "paper_year", "paper_authors", "paper_refs", "years_index",
                "author_papers", "summary")


def test_snapshot_loader_matches_parse_records(tmp_path):
    """The workspace loader builds the same store from a snapshot as the
    validating parser does from the same bytes, and the meta gives the
    same year span, for configs whose year range cuts references."""
    corpora = [random_corpus_lines(random.Random(seed), 150, 30, 2000, 2011)
               for seed in (31, 37, 41)]
    scale = tmp_path / "scale.jsonl"
    write_scale_corpus(scale, 3000, 1000, 12000, 1990, 2009, seed=43)
    corpora.append(scale.read_text().splitlines())
    configs = [Config(), Config(strict_window=True),
               Config(year_start=2003, year_end=2007),
               Config(year_start=2003, year_end=2007, strict_window=True),
               Config(year_start=2006, window_length=3, strict_window=True)]
    for k, lines in enumerate(corpora):
        root = tmp_path / f"ws{k}"
        Workspace(root).write_corpus(parse_records(lines, Config()), Config())
        snapshot = (root / "corpus.jsonl").read_bytes()
        for cfg in configs:
            ws = Workspace(root)
            loaded = ws.load_store(cfg)
            parsed = parse_records(snapshot.splitlines(), cfg)
            for table in STORE_TABLES:
                assert getattr(loaded, table) == getattr(parsed, table), (k, cfg, table)
            assert ws.year_span(cfg) == parsed.year_span()
        cut = parse_records(snapshot.splitlines(), configs[2]).summary
        assert cut.dangling_references > 0 and cut.skipped_reasons["year_out_of_range"] > 0


def test_missing_file_is_ingest_error(tmp_path):
    with pytest.raises(IngestError):
        load_corpus(tmp_path / "nope.jsonl", Config())


def test_dblp_v12_adapter():
    obj = {
        "id": 101,
        "year": 2015,
        "authors": [{"id": 7, "name": "A"}, {"id": 9, "name": "B"}],
        "references": [55, 66],
    }
    assert canonical_from_dblp_v12(obj) == {
        "id": "101",
        "year": 2015,
        "authors": ["7", "9"],
        "references": ["55", "66"],
    }
    assert canonical_from_dblp_v12({"id": 1, "year": 2000, "authors": []}) is None
