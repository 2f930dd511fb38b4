"""Metamorphic relations at a size the oracles cannot reach (Chen, Cheung
and Yiu, "Metamorphic testing", 1998): two ways to build the same
workspace from a team-assembly corpus of 2,000 papers, or a corpus and
its extension by later papers up to the last year they leave alone,
must give the same bytes.  The corpus comes from the benchmark's
generator, loaded read-only by path."""

import json
import random

from citedist.cli import main
from citedist.workspace import Workspace

from test_benchmark_hooks import load_perfbench
from test_cli import tree_bytes, write_config

PLANNED = list(range(2010, 2020))
INDEX_REPORTS = (
    ["index-table"],
    ["rank", "--index", "c"],
    ["c-eq-nw", "--bins", "0,5,20,80"],
    ["scatter", "--q-max", "60", "--size", "20"],
    ["closeness", "--q-min", "10", "--q-max", "30", "--size", "6"],
)
REPORTS = (
    *INDEX_REPORTS,
    ["distance-histogram"],
    ["network-stats", "--with-diameter"],
    ["edges"],
    ["heatmap"],
)


def corpus_lines(seed):
    corpora = load_perfbench("corpora")
    records = corpora.team_corpus(seed, 2000, PLANNED[0], PLANNED[-1],
                                  min_team=2, max_team=5, p_new=0.35, refs=5)
    return [json.dumps(r, separators=(",", ":")) for r in records]


def ingested(root, lines, cfg):
    src = root.with_suffix(".jsonl")
    src.write_text("\n".join(lines) + "\n")
    assert main(["ingest", str(src), "--workspace", str(root), "--config", str(cfg)]) == 0
    return root


def reports_of(ws, cfg, reports):
    """Each report's exit code, CSV bytes and manifest, parsed and without
    the corpus hash (the hash of the snapshot, which keeps the line order)."""
    out = []
    for report in reports:
        path = ws / "reports" / f"{report[0]}.csv"
        path.unlink(missing_ok=True)
        code = main(["report", *report, "--workspace", str(ws), "--config", str(cfg)])
        manifest = json.loads(path.with_suffix(".manifest.json").read_text()) if code == 0 else {}
        manifest.pop("corpus_sha256", None)
        out.append((code, path.read_bytes() if code == 0 else None, manifest))
    return out


def test_year_ranges_in_any_order_build_the_workspace_of_one_run(tmp_path, capsys):
    """The planned years cut into ranges, run in a random order with
    ``--jobs`` 1 or 2: a range that ends at the last planned year before
    the earlier ledgers exist exits 3, and between ranges a report at a
    year with missing earlier ledgers exits 3 naming them, never 0.  After
    a plain ``run``, the ledgers, the x snapshot and every index and
    histogram report are byte-identical to those of one ``run --jobs 1``."""
    rng = random.Random(27)  # an order that reaches each case below and forks
    lines = corpus_lines(27)
    cfg = write_config(tmp_path, exact_distances=True)
    one = ingested(tmp_path / "one", lines, cfg)
    pieces = ingested(tmp_path / "pieces", lines, cfg)
    common = ["--workspace", str(pieces), "--config", str(cfg)]
    assert main(["run", "--jobs", "1", "--workspace", str(one), "--config", str(cfg)]) == 0

    cuts = sorted(rng.sample(range(1, len(PLANNED)), 3))
    ranges = [PLANNED[a:b] for a, b in zip([0, *cuts], [*cuts, len(PLANNED)])]
    rng.shuffle(ranges)
    seen = set()
    for block in ranges:
        done = set(Workspace(pieces).completed_years())
        capsys.readouterr()
        code = main(["run", "--years", f"{block[0]}:{block[-1]}",
                     "--jobs", str(rng.choice((1, 2))), *common])
        if block[-1] == PLANNED[-1] and any(y not in done for y in PLANNED if y < block[0]):
            assert code == 3 and "run the preceding years first" in capsys.readouterr().err
            seen.add("refused")
        else:
            assert code == 0
        done = set(Workspace(pieces).completed_years())
        year = block[-1]
        missing = [y for y in PLANNED if y <= year and y not in done]
        error = (f"missing ledger years: {missing}" if done
                 else "no ledgers in workspace; run the pipeline first")
        for report in ("index-table", "distance-histogram"):
            capsys.readouterr()
            code = main(["report", report, "--year", str(year), *common])
            if missing:
                assert code == 3 and capsys.readouterr().err == f"error: {error}\n"
                seen.add("gap" if done else "none")
            else:
                assert code == 0
                seen.add("reported")
    assert {"refused", "gap", "reported"} <= seen  # the order reaches each case

    assert main(["run", *common]) == 0
    for artifacts in ("ledgers", "states"):
        assert tree_bytes(pieces / artifacts) == tree_bytes(one / artifacts)
    reports = [*INDEX_REPORTS, ["distance-histogram"],
               *(["index-table", "--year", str(block[-1])] for block in ranges)]
    expected = reports_of(one, cfg, reports)
    assert reports_of(pieces, cfg, reports) == expected
    assert all(code == 0 for code, _, _ in expected)


def test_permuted_corpus_lines_give_the_same_reports(tmp_path):
    """Ingesting the corpus lines in another order leaves every report
    byte-identical; only the corpus hash in the manifests differs."""
    lines = corpus_lines(31)
    shuffled = lines[:]
    random.Random(31).shuffle(shuffled)
    cfg = write_config(tmp_path, exact_distances=True)
    outputs = []
    for name, order in (("given", lines), ("shuffled", shuffled)):
        ws = ingested(tmp_path / name, order, cfg)
        assert main(["run", "--workspace", str(ws), "--config", str(cfg)]) == 0
        outputs.append(reports_of(ws, cfg, REPORTS))
    assert outputs[0] == outputs[1]
    assert all(code == 0 for code, _, _ in outputs[0])


def later_papers(lines, after, last, count, seed):
    """``count`` new papers dated in ``(after, last]``, each citing up to
    five papers of earlier years, with teams of the corpus's authors and
    newcomers: corpus lines to append."""
    rng = random.Random(seed)
    records = [json.loads(line) for line in lines]
    authors = sorted({a for r in records for a in r["authors"]})
    new = []
    for k in range(count):
        year = rng.randint(after + 1, last)
        earlier = [r["id"] for r in records + new if r["year"] < year]
        team = {rng.choice(authors) if rng.random() < 0.7 else f"new{k}-{i}"
                for i in range(rng.randint(2, 5))}
        new.append({"id": f"late{k}", "year": year, "authors": sorted(team),
                    "references": rng.sample(earlier, min(5, len(earlier)))})
    return [json.dumps(r, separators=(",", ":")) for r in new]


def test_papers_after_a_year_leave_its_ledgers_and_indices(tmp_path):
    """Appending papers dated after year Y (2016) to the corpus, some in
    its later years and some past its end, leaves the record lines of
    every ledger through Y and the ``index-table --year Y`` CSV
    byte-identical: a citation of year Y and the window it is measured
    on hold papers of years <= Y alone."""
    year = 2016
    lines = corpus_lines(37)
    cfg = write_config(tmp_path, exact_distances=True)
    outputs = []
    for name, corpus in (("base", lines),
                         ("appended", lines + later_papers(lines, year, PLANNED[-1] + 2, 300, 37))):
        ws = ingested(tmp_path / name, corpus, cfg)
        assert main(["run", "--workspace", str(ws), "--config", str(cfg)]) == 0
        ledgers = {y: (ws / "ledgers" / f"{y}.jsonl").read_bytes().split(b"\n", 1)[1]
                   for y in range(PLANNED[0], year + 1)}
        outputs.append((ledgers, reports_of(ws, cfg, [["index-table", "--year", str(year)]])))
    assert Workspace(tmp_path / "appended").completed_years()[-1] == PLANNED[-1] + 2
    assert outputs[0] == outputs[1]
    assert outputs[0][1][0][0] == 0  # the index-table exit code
