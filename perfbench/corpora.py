"""Seeded, stdlib-only corpus generators for the benchmark workloads.

Two shapes:

* ``sparse``: the shape of the c10 scale corpus.  Papers are spread
  evenly over the year span, have 1-3 authors, and cite uniformly among
  earlier papers.  Every author in the pool appears at least once, and
  the window networks never form a giant component.
* ``team``: team assembly after Guimera et al. (Science 308:697, 2005).
  Each author slot of a paper is a newcomer with probability
  ``p_new``, else a preferential pick among earlier authorships.
  References are drawn uniformly among all earlier papers, so many of
  them point before the citing year's window.  The window networks
  have a giant component, as real co-authorship networks do.

A generator returns the records as plain dicts in the canonical corpus
format, plus the counts the engine's ingest summary must report.  The
same parameters and seed always give the same records.
"""

from __future__ import annotations

import json
import random


def sparse_corpus(seed: int, papers: int, authors: int, citations: int,
                  year_lo: int, year_hi: int) -> list[dict]:
    """Exactly ``papers`` papers and ``citations`` resolvable references."""
    rng = random.Random(seed)
    pool = list(range(authors))
    rng.shuffle(pool)
    cursor = 0
    span = year_hi - year_lo + 1
    need = citations
    records = []
    for k in range(papers):
        n_auth = rng.randint(1, 3)
        if cursor < authors:
            chosen = pool[cursor:cursor + n_auth]
            cursor += len(chosen)
        else:
            chosen = rng.sample(range(authors), n_auth)
        want = -(-need // (papers - k))  # ceil: spread the rest evenly
        take = min(want, k, 15)
        refs = rng.sample(range(k), take) if take else []
        need -= take
        records.append({
            "id": f"p{k}",
            "year": year_lo + (k * span) // papers,
            "authors": [f"a{i}" for i in chosen],
            "references": [f"p{r}" for r in refs],
        })
    if need:
        raise ValueError(f"could not place {need} citations")
    return records


def team_corpus(seed: int, papers: int, year_lo: int, year_hi: int,
                min_team: int, max_team: int, p_new: float, refs: int) -> list[dict]:
    """Team-assembly corpus with ``refs`` distinct references per paper
    (fewer only while fewer earlier papers exist)."""
    rng = random.Random(seed)
    span = year_hi - year_lo + 1
    authorships: list[int] = []  # one entry per earlier (paper, author) slot
    next_author = 0
    records = []
    for k in range(papers):
        team: list[int] = []
        for _ in range(rng.randint(min_team, max_team)):
            author = None
            if authorships and rng.random() >= p_new:
                pick = authorships[rng.randrange(len(authorships))]
                if pick not in team:
                    author = pick
            if author is None:  # newcomer, or a repeat pick within the team
                author = next_author
                next_author += 1
            team.append(author)
        authorships.extend(team)
        cited = rng.sample(range(k), min(refs, k))
        records.append({
            "id": f"p{k}",
            "year": year_lo + (k * span) // papers,
            "authors": [f"a{i}" for i in team],
            "references": [f"p{r}" for r in sorted(cited)],
        })
    return records


def expected_counts(records: list[dict]) -> dict:
    """Counts the ingest summary must report for generated records, which
    have unique ids, distinct authors per paper and no dangling or
    self-references."""
    return {
        "papers": len(records),
        "authors": len({a for r in records for a in r["authors"]}),
        "citations": sum(len(r["references"]) for r in records),
    }


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for r in records:
            fp.write(json.dumps(r, separators=(",", ":")) + "\n")
