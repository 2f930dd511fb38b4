"""Citation distances, yearly ledgers, and distributions."""

import json
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from citedist.codec import (
    decode_indices,
    decode_ledger,
    decode_states,
    indices_artifact,
    json_line,
    ledger_head,
    split_header,
    states_artifact,
)
from citedist.config import Config
from citedist.corpus import parse_records
from citedist.collab import Distance, build_window, connected_components, shortest_distance
from citedist.distances import (
    EXCEEDS_CODE,
    INF_CODE,
    YearLedger,
    batch_year_distances,
    compute_event_distances,
    counted_ledger,
    distance_histogram,
)
from citedist.indices import IndexRecord, x_from_slices, x_increment, x_increment_scaled, x_scale
from citedist.pipeline import run_pipeline
from citedist.workspace import Workspace

from synthcorpus import (
    expected_code,
    floyd_warshall,
    oracle_index_run,
    oracle_set_distance,
    random_corpus_lines,
    record_line,
    reference_event_distances,
    table1_store,
)


def event_distance(store, net, citing_labels, cited_labels):
    """Distance from the citing to the cited author labels on ``net``."""
    ids = store.author_index
    return shortest_distance(net, [ids[x] for x in citing_labels], [ids[x] for x in cited_labels])


def test_citation_distance_on_2018_window():
    store = table1_store()
    net = build_window(store, 2018, 5)
    # cited by {5}, citing by {9, 2}: min(d(9,5)=4, d(2,5)=3) = 3
    assert event_distance(store, net, ["9", "2"], ["5"]) == Distance.finite(3)


def test_self_citation_is_zero_even_off_network():
    store = table1_store()
    net = build_window(store, 2018, 5)
    # author 8 is not in the window
    assert event_distance(store, net, ["3", "8"], ["2", "3"]) == Distance.finite(0)


def test_disconnected_event_is_infinite():
    store = table1_store()
    net = build_window(store, 2016, 5)
    assert event_distance(store, net, ["7"], ["1"]).is_infinite


def test_batch_empty_year():
    store = table1_store()
    ledger = batch_year_distances(store, 2018, Config())
    assert ledger.scholars == {}
    assert ledger.events == {}


def test_batch_self_citing_pair_credits_every_coauthor():
    lines = [
        record_line("p0", 2000, ["a", "b", "c"]),
        record_line("p1", 2001, ["a"], ["p0"]),
    ]
    store = parse_records(lines, Config())
    ledger = batch_year_distances(store, 2001, Config())
    assert ledger.events == {0: 1}
    for label in ("a", "b", "c"):
        assert ledger.scholars[store.author_index[label]] == {0: 1}


def test_batch_matches_per_event_recomputation():
    rng = random.Random(31)
    store = parse_records(random_corpus_lines(rng, 250, 50, 1995, 2005), Config())
    cfg = Config(exact_distances=True)
    lo, hi = store.year_span()
    paper_authors = store.paper_authors
    for year in range(lo, hi + 1):
        net = build_window(store, year, cfg.window_length)
        ledger = batch_year_distances(store, year, cfg, net=net)
        # recount the ledger event by event, one set distance per reference
        events = Counter()
        credit = defaultdict(Counter)
        for pid in store.papers_in_year(year):
            for ref in store.paper_refs[pid]:
                d = shortest_distance(net, paper_authors[pid], paper_authors[ref])
                code = d.hops if d.is_finite else INF_CODE
                events[code] += 1
                for author in paper_authors[ref]:
                    credit[author][code] += 1
        assert tally_codes(ledger.events) == events
        assert {a: tally_codes(t) for a, t in ledger.scholars.items()} == credit


def test_batch_capped_consistent_with_exact():
    rng = random.Random(77)
    store = parse_records(random_corpus_lines(rng, 300, 40, 1990, 2002), Config())
    exact_cfg = Config(exact_distances=True)
    capped_cfg = Config(exact_distances=False, n=3)
    lo, hi = store.year_span()
    for year in range(lo, hi + 1):
        exact = batch_year_distances(store, year, exact_cfg)
        capped = batch_year_distances(store, year, capped_cfg)
        assert sum(capped.events.values()) == sum(exact.events.values())
        for d, count in capped.events.items():
            if d >= 0:
                assert d <= 3
                assert exact.events.get(d) == count
        # everything beyond the cap is either far or infinite
        far_exact = sum(c for d, c in exact.events.items() if d > 3) + exact.events.get(INF_CODE, 0)
        assert capped.events.get(EXCEEDS_CODE, 0) + capped.events.get(INF_CODE, 0) == far_exact
        assert capped.events.get(INF_CODE, 0) <= exact.events.get(INF_CODE, 0)


def test_ledger_conservation():
    rng = random.Random(13)
    store = parse_records(random_corpus_lines(rng, 200, 30, 1990, 2000), Config())
    cfg = Config()
    lo, hi = store.year_span()
    total_credited = 0
    total_events = 0
    for year in range(lo, hi + 1):
        ledger = batch_year_distances(store, year, cfg)
        total_events += sum(ledger.events.values())
        total_credited += sum(sum(t.values()) for t in ledger.scholars.values())
    assert total_events == store.summary.citations
    # every author of a cited paper is credited each citation of it
    expected_credit = sum(
        len(store.paper_authors[ref]) for refs in store.paper_refs for ref in refs
    )
    assert total_credited == expected_credit


def test_histogram_normalization():
    ledger = reference_ledger(2000, None, [([1], 0), ([2], 0), ([3], 3), ([4], -1)])
    result = distance_histogram({2000: ledger}, [2000], max_bin=12)
    hist = result.per_year[2000]
    assert dict(hist.bins) == {"0": 0.5, "3": 0.25, "INF": 0.25}
    assert hist.within_max == pytest.approx(0.75)
    assert sum(p for _, p in hist.bins) == pytest.approx(1.0)


def test_histogram_flat_and_notice():
    ledger = reference_ledger(1999, None, [([d], d) for d in range(26)])
    result = distance_histogram({1999: ledger}, [1999, 2001], max_bin=12)
    hist = result.per_year[1999]
    assert all(p == pytest.approx(1 / 26) for _, p in hist.bins)
    assert hist.within_max == pytest.approx(13 / 26)
    assert result.notices == ["year 2001: no citations; omitted"]
    assert 2001 not in result.per_year


def test_histogram_empty():
    result = distance_histogram({}, [2000])
    assert result.per_year == {}
    assert result.notices


def test_paper_tallies_match_scholar_ledgers():
    rng = random.Random(53)
    store = parse_records(random_corpus_lines(rng, 150, 25, 1990, 1999), Config())
    cfg = Config(exact_distances=True)
    lo, hi = store.year_span()
    ledgers = {}
    by_paper = defaultdict(Counter)  # the codes of every year's events, by cited paper
    for year in range(lo, hi + 1):
        net = build_window(store, year, cfg.window_length)
        ledgers[year] = batch_year_distances(store, year, cfg, net)
        for cited, _citing, code in compute_event_distances(store, net, year):
            by_paper[cited][code] += 1
    for scholar in range(store.num_authors):
        slices = [(y, ledger.scholars[scholar]) for y, ledger in ledgers.items()
                  if scholar in ledger.scholars]
        pooled = Counter()
        for _, tally in slices:
            pooled.update(tally)
        merged = Counter()
        for pid in store.author_papers[scholar]:
            if pid in by_paper:
                merged.update(by_paper[pid])
        assert merged == pooled
        assert x_from_slices(slices, 6) == sum(
            (x_increment(tally_of(by_paper[p]), 6)
             for p in store.author_papers[scholar] if p in by_paper),
            Fraction(0))


def test_event_distances_match_replaced_engine():
    """Per-reference search against the per-paper engine it replaced:
    identical in exact mode; with a cap every finite code is identical,
    and the only change is exceeds -> INF where no path exists."""
    rng = random.Random(3030)
    several_components = proven_inf = 0
    for _ in range(30):
        n_authors = rng.choice([12, 40, 100])
        lines = random_corpus_lines(rng, rng.randint(40, 150), n_authors, 2000, 2009,
                                    max_authors=rng.choice([2, 3, 4]))
        store = parse_records(lines, Config())
        window = rng.choice([1, 3, 5])
        lo, hi = store.year_span()
        for year in range(lo, hi + 1):
            net = build_window(store, year, window)
            several_components += len(connected_components(net)) > 1
            dist = floyd_warshall(store.num_authors, list(net.edges()))
            got = compute_event_distances(store, net, year)
            assert sorted(got) == sorted(reference_event_distances(store, net, year))
            for cap in range(5):
                new = {(r, p): c for r, p, c in compute_event_distances(store, net, year, cap)}
                old = {(r, p): c for r, p, c in reference_event_distances(store, net, year, cap)}
                assert new.keys() == old.keys()
                for (ref, pid), code in new.items():
                    exact = oracle_set_distance(
                        dist, store.paper_authors[pid], store.paper_authors[ref]
                    )
                    if code != old[ref, pid]:
                        assert (old[ref, pid], code) == (EXCEEDS_CODE, INF_CODE)
                        assert exact == math.inf
                        proven_inf += 1
                    if code == EXCEEDS_CODE:
                        assert cap < exact < math.inf
    assert several_components > 100
    assert proven_inf > 0  # the exceeds -> INF change was exercised


def test_event_distances_on_giant_components():
    """Seeded corpora with a giant component (few authors, many papers of
    one or two authors, window 5), where a citing paper's ball grows deep
    and serves references at several depths: every code, capped and
    exact, against all-pairs distances and the per-paper engine."""
    rng = random.Random(5151)
    giant = deep = exceeds = 0
    for _ in range(6):
        n_authors = rng.randint(40, 80)
        lines = random_corpus_lines(rng, 5 * n_authors, n_authors, 2000, 2009, max_authors=2)
        store = parse_records(lines, Config())
        for year in range(2004, 2010):
            net = build_window(store, year, 5)
            giant += connected_components(net)[0].node_count >= 0.75 * net.node_count
            dist = floyd_warshall(store.num_authors, list(net.edges()))
            events = [(r, p) for p in store.papers_in_year(year) for r in store.paper_refs[p]]
            for cap in (None, 0, 1, 2, 3, 6):
                got = compute_event_distances(store, net, year, cap)
                old = {(r, p): c for r, p, c in reference_event_distances(store, net, year, cap)}
                assert [(r, p) for r, p, _ in got] == events
                assert old.keys() == set(events)
                for ref, pid, code in got:
                    exact = oracle_set_distance(
                        dist, store.paper_authors[pid], store.paper_authors[ref]
                    )
                    assert code == expected_code(exact, cap)
                    if code != old[ref, pid]:  # the per-paper engine could not prove INF
                        assert (old[ref, pid], code) == (EXCEEDS_CODE, INF_CODE)
                    deep += cap is None and 5 <= exact < math.inf
                    exceeds += code == EXCEEDS_CODE
    assert giant >= 30 and deep > 100 and exceeds > 1000, (giant, deep, exceeds)


# -- artifact line codec -------------------------------------------------------


def _dumps_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _tally_obj(kind, tally):
    return {
        "kind": kind,
        "counts": {str(d): c for d, c in sorted(tally.items()) if d >= 0},
        "infinite": tally.get(INF_CODE, 0),
        "exceeds": tally.get(EXCEEDS_CODE, 0),
    }


def reference_ledger_text(ledger, store, config_hash):
    """A ledger artifact written one ``json.dumps`` per line (the oracle)."""
    out = [
        _dumps_line({"kind": "header", "year": ledger.year, "cap": ledger.cap,
                     "config": config_hash}),
        _dumps_line(_tally_obj("events", ledger.events)),
    ]
    for author in sorted(ledger.scholars):
        obj = _tally_obj("scholar", ledger.scholars[author])
        obj["id"] = store.author_labels[author]
        out.append(_dumps_line(obj))
    return "".join(out)


def reference_states_text(year, states, store, n, config_hash):
    """A state artifact written one ``json.dumps`` per line (the oracle)."""
    head = {"kind": "header", "year": year, "n": n, "scale": n if n > 0 else 1,
            "config": config_hash}
    out = [_dumps_line(head)]
    for author in sorted(states):
        if states[author]:
            out.append(_dumps_line({"kind": "state", "id": store.author_labels[author],
                                    "xn": states[author]}))
    return "".join(out)


ODD_LABELS = [
    "plain", "café", "日本語", "😀", 'say "hi"', "back\\slash", "tab\tnew\nline\rend",
    "nul\x00bell\x07esc\x1b", "\u2028sep\u2029", "del\x7f", "/slash", "1",
]


@pytest.mark.parametrize("cap", [None, 6])
def test_codec_matches_json_dumps_and_round_trips(cap):
    lines = [record_line(f"p{k}", 2000, [label]) for k, label in enumerate(ODD_LABELS)]
    store = parse_records(lines, Config())
    assert store.author_labels == ODD_LABELS
    rng = random.Random(31 if cap is None else 37)
    codes = [INF_CODE] + ([EXCEEDS_CODE] if cap else []) + list(range(25))
    seen_infinite = seen_exceeds = 0
    for trial in range(40):
        events = []
        if trial == 1:  # keys 1, 10, 2 sort as strings
            events = [(0, 0, code) for code in (2, 10, 1, INF_CODE)]
        for _ in range(0 if trial < 2 else rng.randint(1, 60)):
            events.append((rng.randrange(len(ODD_LABELS)), 0, rng.choice(codes)))
        ledger = reference_ledger(2000, cap, event_credits(store, events))
        seen_infinite += ledger.events.get(INF_CODE, 0)
        seen_exceeds += ledger.events.get(EXCEEDS_CODE, 0)
        text = ledger_text(store, events, cap)
        assert text == reference_ledger_text(ledger, store, "cfg")
        body, head = records_of(text)
        back = decode_ledger(body, store, head)
        assert (back.year, back.cap) == (2000, cap)
        assert back.events == ledger.events and back.scholars == ledger.scholars
        if trial == 0:
            assert text.count("\n") == 2  # header and events, no scholars
        if trial == 1:
            assert text.endswith('{"counts":{"1":1,"10":1,"2":1},"exceeds":0,'
                                 '"id":"plain","infinite":1,"kind":"scholar"}\n')

        n = rng.choice([0, 1, 6])
        states = {a: rng.choice([0, 0, 1, 5, 123456789012]) for a in
                  rng.sample(range(len(ODD_LABELS)), rng.randint(0, len(ODD_LABELS)))}
        text = joined(*states_artifact(2000 + trial, states, store, n, "cfg"))
        assert text == reference_states_text(2000 + trial, states, store, n, "cfg")
        assert decode_states(records_of(text)[0], store) == {
            a: v for a, v in states.items() if v}
    assert seen_infinite and (seen_exceeds or cap is None)


def event_credits(store, events):
    """The (cited authors, code) pair of each (cited, citing, code) event."""
    return [(store.paper_authors[cited], code) for cited, _citing, code in events]


def reference_credit(credits):
    """The codes of a year's events, and of each author's credits, counted
    one event and one cited author at a time; ``credits`` holds each
    event's (cited authors, code) pair."""
    per_event = Counter()
    per_author = defaultdict(Counter)
    for authors, code in credits:
        per_event[code] += 1
        for author in authors:
            per_author[author][code] += 1
    return per_event, per_author


def tally_codes(tally):
    """A tally as a Counter of distance codes."""
    return Counter(tally)


def tally_of(codes):
    """The tally of a Counter of distance codes: a dict, zero counts dropped."""
    return {d: c for d, c in codes.items() if c}


def reference_ledger(year, cap, credits):
    """The ledger of ``credits`` (see ``reference_credit``)."""
    per_event, per_author = reference_credit(credits)
    ledger = YearLedger(year, cap)
    ledger.events = tally_of(per_event)
    ledger.scholars = {a: tally_of(codes) for a, codes in per_author.items()}
    return ledger


def joined(head, records):
    """An unstamped artifact text: its header line, then its records."""
    return json_line(head) + records


def records_of(text):
    """The record lines and the parsed header of an artifact text, as
    ``Workspace._read`` hands them to a decoder."""
    head, start = split_header(text)
    return text[start:], head


def ledger_text(store, events, cap, n=6):
    """The unstamped ledger text of ``events`` as ``run`` credits them."""
    counted = counted_ledger(store, 2000, events, cap, n)
    return joined(ledger_head(2000, cap, "cfg"), counted.records)


def scaled_weight(code, n):
    """The weight of one citation in units of 1/x_scale(n), by definition."""
    if n == 0:
        return 1
    return min(code, n) if code >= 0 else n


@pytest.mark.parametrize("window", [1, 5])
@pytest.mark.parametrize("n", [0, 1, 6])
@pytest.mark.parametrize("exact", [False, True], ids=["capped", "exact"])
def test_counted_sweep_matches_event_by_event_credit(tmp_path, exact, n, window):
    """Every ledger a run writes decodes to the credit of its year's events
    made one event and one cited author at a time, and the run's x
    snapshot holds the x of those credits, which is the x of the
    end-to-end oracle (with cap = n, capped x is exact x)."""
    lines = random_corpus_lines(random.Random(40 + 3 * n + window), 120, 30, 2000, 2007)
    cfg = Config(n=n, window_length=window, exact_distances=exact)
    store = parse_records(lines, cfg)
    ws = Workspace(tmp_path / "ws")
    ws.write_corpus(store, cfg)
    years = run_pipeline(ws, cfg).years_processed
    assert years == list(range(2000, 2008))
    x = Counter()
    credits = 0
    for year in years:
        net = build_window(store, year, window)
        per_event, per_author = reference_credit(event_credits(
            store, compute_event_distances(store, net, year, cfg.distance_cap)))
        ledger = ws.read_ledger(year, store, cfg)
        assert (ledger.year, ledger.cap) == (year, cfg.distance_cap)
        assert tally_codes(ledger.events) == per_event
        assert {a: tally_codes(t) for a, t in ledger.scholars.items()} == per_author
        for author, codes in per_author.items():
            x[author] += sum(scaled_weight(code, n) * count for code, count in codes.items())
            credits += codes.total()
    assert credits > 200
    assert ws.read_states(years[-1], store, cfg) == {a: v for a, v in x.items() if v}
    csv, _ = oracle_index_run(lines, cfg)
    oracle_x = {row.split(",", 1)[0]: row.rsplit(",", 1)[1] for row in csv.splitlines()[1:]}
    mine = {store.author_labels[a]: f"{float(Fraction(v, x_scale(n))):.2f}" for a, v in x.items()}
    assert mine.keys() <= oracle_x.keys()
    assert {a: mine.get(a, "0.00") for a in oracle_x} == oracle_x


def test_counted_sweep_refuses_distances_capped_below_n():
    """The sweep refuses a citation that only exceeds a cap below n,
    whose weight it cannot know; a tally carries no cap, so
    ``x_increment_scaled`` weighs each capped citation n."""
    store = parse_records([record_line("p0", 2000, ["a", "b"])], Config())
    events = [(0, 0, 1), (0, 0, EXCEEDS_CODE)]
    with pytest.raises(ValueError, match="capped below n=6"):
        counted_ledger(store, 2000, events, 4, 6)
    assert x_increment_scaled({1: 1, EXCEEDS_CODE: 1}, 6) == 7
    assert counted_ledger(store, 2000, events, 6, 6).increments == {0: 7, 1: 7}
    assert counted_ledger(store, 2000, events[:1], 4, 6).increments == {0: 1, 1: 1}


@pytest.mark.parametrize("cap", [None, 30])
def test_counted_sweep_writes_json_dumps_lines(cap):
    """The record lines of the sweep, odd labels and distances of two
    digits included, are those of ``json.dumps`` over the ledger credited
    event by event."""
    store = parse_records([record_line(f"p{k}", 2000, [label, ODD_LABELS[k - 1]])
                           for k, label in enumerate(ODD_LABELS)], Config())
    rng = random.Random(41)
    codes = [INF_CODE] + ([EXCEEDS_CODE] if cap else []) + list(range(25))
    for trial in range(30):
        events = [(rng.randrange(len(ODD_LABELS)), 0, rng.choice(codes))
                  for _ in range(rng.randint(0, 80))]
        ledger = reference_ledger(2000, cap, event_credits(store, events))
        counted = counted_ledger(store, 2000, events, cap, 6)
        head = {"kind": "header", "year": 2000, "cap": cap, "config": "cfg"}
        assert _dumps_line(head) + counted.records == reference_ledger_text(ledger, store, "cfg")
        assert (counted.events, counted.credited) == (ledger.events, len(ledger.scholars))


@pytest.mark.parametrize("exact", [False, True], ids=["capped", "exact"])
def test_year_ledgers_round_trip(exact):
    """Every year's ledger of a seeded corpus, as ``batch_year_distances``
    decodes it from the counted sweep's lines, is the ledger credited
    event by event, tally by tally, with the config's cap."""
    store = parse_records(random_corpus_lines(random.Random(3), 120, 40, 2000, 2008), Config())
    cfg = Config(n=2, exact_distances=exact)
    scholars = exceeds = 0
    for year in range(2000, 2009):
        back = batch_year_distances(store, year, cfg)
        net = build_window(store, year, cfg.window_length)
        events = compute_event_distances(store, net, year, cfg.distance_cap)
        ledger = reference_ledger(year, cfg.distance_cap, event_credits(store, events))
        assert (back.year, back.cap) == (year, cfg.distance_cap)
        assert back.events == ledger.events
        assert back.scholars.keys() == ledger.scholars.keys()
        for author, tally in ledger.scholars.items():
            assert back.scholars[author] == tally, (year, author)
        scholars += len(ledger.scholars)
        exceeds += ledger.events.get(EXCEEDS_CODE, 0)
    assert scholars > 100 and (exceeds > 0) != exact


@pytest.mark.parametrize("damage", [
    lambda lines: lines[:-1] + [lines[-1][:-5]],  # truncated
    lambda lines: lines[:2] + [""] + lines[2:],  # blank line in the middle
    lambda lines: lines + [""],  # blank line at the end
    lambda lines: lines[:-1] + [lines[-1] + "x"],  # trailing garbage
    lambda lines: lines[:-1] + [lines[-1] + ", " + lines[-1]],  # two values on a line
    lambda lines: lines[:1] + [lines[1] + lines[2]] + lines[3:],  # lost newline
    lambda lines: lines[1:],  # header line dropped
], ids=["truncated", "blank-middle", "blank-end", "garbage", "two-values", "joined",
        "no-header"])
def test_codec_rejects_damaged_lines(damage):
    """Every artifact decoder (ledger, states, index snapshot) raises
    ValueError on the same table of damaged lines."""
    store = parse_records([record_line("p0", 2000, ["a", "b", "c"])], Config())
    states = {0: 1, 1: 2, 2: 3}
    records = [IndexRecord(label, 2000, 1, 1, 1, Fraction(1, 2), 0, Fraction(k, 6))
               for k, label in enumerate("abc", 1)]
    for text, decode in (
        (ledger_text(store, [(0, 0, 3)], None),
         lambda body, head: decode_ledger(body, store, head)),
        (joined(*states_artifact(2000, states, store, 6, "cfg")),
         lambda body, head: decode_states(body, store)),
        (joined(*indices_artifact(records, 2000, 6, "cfg", ["l"])),
         lambda body, head: decode_indices(body, 1, ["l"], head)),
    ):
        decode(*records_of(text))
        lines = text.split("\n")[:-1]
        with pytest.raises(ValueError):
            decode(*records_of("\n".join(damage(lines)) + "\n"))


def test_decode_ledger_needs_its_events_line():
    """``decode_ledger`` raises on record lines without an events line,
    with a store or without one (then a scholar line raises KeyError
    first); without a store, given the first record line alone, as
    ``Workspace.read_ledger_events`` reads it, it gives the events tally
    of the full decode and no scholars."""
    store = parse_records([record_line("p0", 2000, ["a", "b"]), record_line("p1", 2000, ["c"]),
                           record_line("p2", 2000, ["b"])], Config())
    for cap in (None, 6):
        text = ledger_text(store, [(0, 0, 3), (1, 0, INF_CODE),
                                   (2, 0, 0 if cap is None else EXCEEDS_CODE)], cap)
        body, head = records_of(text)
        events, rest = body.split("\n", 1)
        full = decode_ledger(body, store, head)
        assert full.scholars
        part = decode_ledger(events, None, head)
        assert (part.year, part.cap) == (2000, cap)
        assert part.events == full.events and not part.scholars
        for dropped, without_store in ((rest, KeyError), ("", ValueError)):
            with pytest.raises(ValueError, match="events line"):
                decode_ledger(dropped, store, head)
            with pytest.raises(without_store):
                decode_ledger(dropped.split("\n", 1)[0], None, head)
