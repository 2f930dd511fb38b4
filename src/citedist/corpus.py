"""Corpus ingestion, interning, and year-sliced citation access.

The canonical input is line-delimited JSON, one paper per line:

    {"id": "p1", "year": 2013, "authors": ["a1", "a2"], "references": ["p0"]}

``id`` is an opaque paper identifier, ``authors`` a non-empty list of
opaque author identifiers, ``references`` the papers this one cites
(optional, defaults to empty).  Malformed lines are skipped and counted;
a duplicated paper id keeps the first occurrence.  References to papers
that never appear in the corpus are "dangling": they are reported but
excluded from every distance and index computation, because the author
sets of both endpoints must be known.

A workspace snapshot, written by :meth:`CorpusStore.dump`, is read back
with :func:`parse_snapshot`, which trusts its lines instead of validating
them.  Both front ends hand their records to one store builder, which
applies the config's year filter, interns ids and resolves references.

Aminer/DBLP V12 records can be converted with :func:`canonical_from_dblp_v12`.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .codec import json_lines
from .config import Config
from .errors import EmptyCorpusError, IngestError


class PaperRecord(NamedTuple):
    """One normalized paper as parsed from the canonical format."""

    paper_id: str
    year: int
    author_ids: tuple[str, ...]
    reference_ids: tuple[str, ...]


class _SummaryFields(NamedTuple):
    papers: int = 0
    authors: int = 0
    citations: int = 0
    dangling_references: int = 0
    duplicates: int = 0
    skipped_lines: int = 0
    skipped_reasons: dict | None = None  # None: a new empty dict


class ValidationSummary(_SummaryFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.skipped_reasons is not None else self._replace(skipped_reasons={})

    def as_text(self) -> str:
        *counts, reasons = self
        lines = [f"{name} = {value}" for name, value in zip(self._fields, counts)]
        lines += [f"skipped_{reason} = {reasons[reason]}" for reason in sorted(reasons)]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        *counts, (name, reasons) = self._asdict().items()
        return {**dict(counts), name: dict(sorted(reasons.items()))}


class CorpusStore:
    """Immutable interned view of a parsed corpus.

    Authors and papers get dense integer ids in first-seen order, which
    makes the store deterministic for a given input.  After construction
    the store is never mutated and is safe for concurrent reads.
    """

    def __init__(self):
        self.author_labels: list[str] = []
        self.author_index: dict[str, int] = {}
        self.paper_labels: list[str] = []
        self.paper_index: dict[str, int] = {}
        self.paper_year: list[int] = []
        self.paper_authors: list[tuple[int, ...]] = []
        self.paper_refs: list[tuple[int, ...]] = []
        self.years_index: dict[int, list[int]] = {}
        self.author_papers: list[list[int]] = []
        self.summary = ValidationSummary()

    # -- basic access --------------------------------------------------

    @property
    def num_papers(self) -> int:
        return len(self.paper_labels)

    @property
    def num_authors(self) -> int:
        return len(self.author_labels)

    def papers_in_year(self, year: int) -> list[int]:
        return self.years_index.get(year, [])

    def year_span(self) -> tuple[int, int]:
        years = self.years_index.keys()
        return min(years), max(years)

    def author_id(self, label: str) -> int:
        return self.author_index[label]

    @cached_property
    def json_labels(self) -> list[str]:
        """Each author label as ``json.dumps`` writes it, built on first use."""
        return [json.dumps(label) for label in self.author_labels]

    def iter_citations(self, year: int) -> Iterator[tuple[int, int]]:
        """(cited paper, citing paper) pairs with citing year = ``year``."""
        for pid in self.papers_in_year(year):
            for ref in self.paper_refs[pid]:
                yield ref, pid

    def paper_citation_counts(self, up_to_year: int) -> list[int]:
        """Citations received per paper from citing years <= ``up_to_year``."""
        counts = [0] * self.num_papers
        for year, papers in self.years_index.items():
            if year > up_to_year:
                continue
            for pid in papers:
                for ref in self.paper_refs[pid]:
                    counts[ref] += 1
        return counts

    # -- serialization -------------------------------------------------

    def dump(self, fp: IO[str]) -> None:
        """Write the normalized corpus back out in the canonical format.

        Dangling references are dropped (they carry no usable author
        information), so re-parsing the dump reproduces identical
        interned tables and indices.  Each line is formatted from the
        labels as ``json.dumps`` writes them, and is byte-identical to
        ``json.dumps(record, separators=(",", ":"))`` of the paper's
        record; like every ``json.dumps`` output, it is pure ASCII.
        """
        authors = self.json_labels
        papers = [json.dumps(label) for label in self.paper_labels]
        write = fp.write
        for pid, year in enumerate(self.paper_year):
            names = ",".join([authors[a] for a in self.paper_authors[pid]])
            refs = ",".join([papers[r] for r in self.paper_refs[pid]])
            write(f'{{"id":{papers[pid]},"year":{year},"authors":[{names}],"references":[{refs}]}}\n')


def _normalize_record(obj) -> PaperRecord:
    """Validate one decoded line; raises ValueError with a short reason."""
    if not isinstance(obj, dict):
        raise ValueError("not_an_object")
    paper_id = obj.get("id")
    if not isinstance(paper_id, str) or not paper_id:
        raise ValueError("bad_id")
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise ValueError("bad_year")
    authors = obj.get("authors")
    if not isinstance(authors, list) or not authors:
        raise ValueError("bad_authors")
    seen: dict[str, None] = {}
    for a in authors:
        if not isinstance(a, str) or not a:
            raise ValueError("bad_authors")
        seen.setdefault(a)
    refs = obj.get("references", [])
    if not isinstance(refs, list):
        raise ValueError("bad_references")
    kept: dict[str, None] = {}
    for r in refs:
        if not isinstance(r, str) or not r:
            raise ValueError("bad_references")
        if r != paper_id:  # self-references carry no information
            kept.setdefault(r)
    return PaperRecord(paper_id, year, tuple(seen), tuple(kept))


def _build_store(records: Iterable[tuple[str, int, Sequence[str], Sequence[str]]],
                 config: Config, skipped: Counter) -> CorpusStore:
    """Intern ``(id, year, authors, references)`` records into a store.

    The records must hold distinct authors and distinct references other
    than the paper itself.  A record whose year lies outside the config's
    range is skipped and counted in ``skipped``; a repeated paper id keeps
    its first record.  References are resolved once the paper table is
    complete: one to a paper not in it is counted as dangling and dropped.
    """
    store = CorpusStore()
    author_index, author_labels = store.author_index, store.author_labels
    author_papers = store.author_papers
    paper_index, paper_labels = store.paper_index, store.paper_labels
    paper_year, paper_authors = store.paper_year, store.paper_authors
    years_index = store.years_index
    year_start, year_end = config.year_start, config.year_end
    raw_refs: list[tuple[str, ...] | None] = []
    duplicates = 0

    for paper_id, year, authors, refs in records:
        if not (year_start <= year <= year_end):
            skipped["year_out_of_range"] += 1
            continue
        if paper_id in paper_index:
            duplicates += 1
            continue
        pid = len(paper_labels)
        paper_index[paper_id] = pid
        paper_labels.append(paper_id)
        paper_year.append(year)
        ids = []
        for label in authors:
            a = author_index.get(label)
            if a is None:
                a = author_index[label] = len(author_labels)
                author_labels.append(label)
                author_papers.append([])
            author_papers[a].append(pid)
            ids.append(a)
        paper_authors.append(tuple(ids))
        years_index.setdefault(year, []).append(pid)
        raw_refs.append(tuple(refs))  # smaller than a decoded JSON list

    if not paper_labels:
        raise EmptyCorpusError()

    # Resolve references now that the full paper table is known.  Each
    # raw tuple is dropped as its resolved tuple is made, which can reuse
    # its memory, so the peak stays near one table of references.
    dangling = 0
    citations = 0
    for pid, refs in enumerate(raw_refs):
        resolved = []
        for label in refs:
            target = paper_index.get(label)
            if target is None:
                dangling += 1
            else:
                resolved.append(target)
                citations += 1
        store.paper_refs.append(tuple(resolved))
        raw_refs[pid] = None

    store.summary = ValidationSummary(
        papers=store.num_papers,
        authors=store.num_authors,
        citations=citations,
        dangling_references=dangling,
        duplicates=duplicates,
        skipped_lines=sum(skipped.values()),
        skipped_reasons=dict(skipped),
    )
    return store


def parse_records(lines: Iterable[str | bytes], config: Config) -> CorpusStore:
    """Parse canonical line-delimited records into an indexed store.

    Malformed lines (bad JSON, missing fields, empty author list, year
    outside the configured range) are skipped and counted by reason.
    Duplicate paper ids keep the first occurrence.  Each stripped line
    is decoded on its own, and is bad JSON unless one value spans all of
    it: exactly the lines ``json.loads`` rejects.  Lines are never joined
    here, since two bad lines can join into one valid value.
    """
    skipped = Counter()
    decode = json.JSONDecoder().raw_decode

    def records():
        for raw in lines:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8", errors="replace")
            line = raw.strip()
            if not line:
                continue
            try:
                obj, end = decode(line)
            except ValueError:
                end = -1
            if end != len(line):
                skipped["bad_json"] += 1
                continue
            try:
                rec = _normalize_record(obj)
            except ValueError as exc:
                skipped[str(exc)] += 1
                continue
            yield rec.paper_id, rec.year, rec.author_ids, rec.reference_ids

    return _build_store(records(), config, skipped)


_SNAPSHOT_FIELDS = itemgetter("id", "year", "authors", "references")
_SNAPSHOT_BLOCK = 64  # lines per json.loads; larger blocks raise a run's peak RSS


def _snapshot_records(lines: Iterable[str]) -> Iterator[tuple]:
    """The ``(id, year, authors, references)`` of each snapshot line,
    decoded by ``codec.json_lines`` one block of lines at a time."""
    lines = iter(lines)
    while block := list(islice(lines, _SNAPSHOT_BLOCK)):
        yield from map(_SNAPSHOT_FIELDS, json_lines("".join(block)))


def parse_snapshot(lines: Iterable[str], config: Config) -> CorpusStore:
    """The store of the snapshot lines that :meth:`CorpusStore.dump`
    wrote, with ``config``'s year filter applied.

    The lines are trusted, not validated: they are decoded in blocks of
    up to ``_SNAPSHOT_BLOCK`` lines, one ``codec.json_lines`` call per
    block, which raises ValueError on a blank, truncated or garbled line,
    and each line's fields are taken as they stand.  The store equals
    ``parse_records`` of the same lines and config.
    """
    return _build_store(_snapshot_records(lines), config, Counter())


def load_corpus(path: str | Path, config: Config) -> CorpusStore:
    try:
        with open(path, "rb") as fp:
            return parse_records(fp, config)
    except OSError as exc:
        raise IngestError(f"cannot read corpus {path}: {exc}") from exc


def yearly_counts(store: CorpusStore, years: Iterable[int]) -> list[tuple[int, int, int]]:
    """(year, papers published, citations made) for each requested year."""
    out = []
    for y in years:
        papers = store.papers_in_year(y)
        cites = sum(len(store.paper_refs[p]) for p in papers)
        out.append((y, len(papers), cites))
    return out


def canonical_from_dblp_v12(obj: dict) -> dict | None:
    """Map one Aminer/DBLP V12 paper object to the canonical record shape.

    V12 stores numeric ids, ``authors`` as objects with ``id``/``name``,
    and ``references`` as numeric ids.  Returns None when the object has
    no usable id, year, or authors.
    """
    paper_id = obj.get("id")
    year = obj.get("year")
    authors = obj.get("authors") or []
    author_ids = [str(a["id"]) for a in authors if isinstance(a, dict) and a.get("id") is not None]
    if paper_id is None or year is None or not author_ids:
        return None
    return {
        "id": str(paper_id),
        "year": int(year),
        "authors": author_ids,
        "references": [str(r) for r in obj.get("references") or []],
    }
