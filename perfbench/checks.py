"""Output checks for the benchmark, independent of the ``citedist`` package.

Nothing here imports ``citedist``: the oracle rebuilds each window
network from the generated records with its own breadth-first search,
and the artifact checks read the workspace files as plain JSON lines.
Every check is one operation in :class:`Ops`; a check that does not
hold counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path


class Ops:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


# -- independent distance oracle --------------------------------------------


def _distinct(items) -> list:
    return list(dict.fromkeys(items))


def oracle_event_tally(records: list[dict], year: int, window: int,
                       cap: int | None) -> tuple[dict[int, int], int]:
    """Event tally of one citing year: (finite counts by hop, unresolved).

    ``unresolved`` counts events with no path, or, when ``cap`` is set,
    none within ``cap`` hops; the engine splits these into its infinite
    and exceeds buckets, which the caller compares as one sum.
    """
    authors_of = {}
    adj: dict[str, set[str]] = {}
    for r in records:
        authors = _distinct(r["authors"])
        authors_of.setdefault(r["id"], authors)
        if year - window + 1 <= r["year"] <= year:
            for i, a in enumerate(authors):
                adj.setdefault(a, set())
                for b in authors[i + 1:]:
                    adj[a].add(b)
                    adj.setdefault(b, set()).add(a)
    finite: Counter = Counter()
    unresolved = 0
    for r in records:
        if r["year"] != year:
            continue
        refs = [x for x in _distinct(r["references"]) if x != r["id"] and x in authors_of]
        if not refs:
            continue
        level = {a: 0 for a in authors_of[r["id"]]}
        frontier = list(level)
        depth = 0
        while frontier and (cap is None or depth < cap):
            depth += 1
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in level:
                        level[v] = depth
                        nxt.append(v)
            frontier = nxt
        for ref in refs:
            hops = [level[a] for a in authors_of[ref] if a in level]
            if hops:
                finite[min(hops)] += 1
            else:
                unresolved += 1
    return dict(finite), unresolved


def ledger_events(ws: Path, year: int) -> dict:
    """The ``events`` line of a year's ledger."""
    with open(ws / "ledgers" / f"{year}.jsonl", encoding="utf-8") as fp:
        for line in fp:
            obj = json.loads(line)
            if obj.get("kind") == "events":
                return obj
    raise ValueError(f"ledger {year} has no events line")


def check_events(ops: Ops, ws: Path, year: int, expected: tuple[dict[int, int], int]) -> None:
    """(a) the ledger's event tally equals the oracle's.  Finite buckets
    must match exactly; infinite + exceeds is compared as one sum, since
    a capped search may either prove INF or give up."""
    finite, unresolved = expected
    try:
        events = ledger_events(ws, year)
        got = {int(k): v for k, v in events["counts"].items() if v}
        got_unresolved = events["infinite"] + events["exceeds"]
    except (OSError, ValueError, KeyError) as exc:
        ops.check(False, f"events {year}: unreadable ledger ({exc})")
        return
    ops.check(got == finite and got_unresolved == unresolved,
              f"events {year}: ledger {got} + {got_unresolved} unresolved, "
              f"oracle {finite} + {unresolved} unresolved")


# -- artifact checks ----------------------------------------------------------


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp]


def check_x_states(ops: Ops, ws: Path, n: int) -> None:
    """(b) each scholar's final ``xn`` equals the sum over all ledgers of
    min(d, n) * count + n * (infinite + exceeds)."""
    try:
        expected: Counter = Counter()
        ledgers = sorted(ws.glob("ledgers/*.jsonl"), key=lambda p: int(p.stem))
        for path in ledgers:
            for obj in _jsonl(path):
                if obj.get("kind") != "scholar":
                    continue
                xn = sum(min(int(d), n) * c for d, c in obj["counts"].items())
                expected[obj["id"]] += xn + n * (obj["infinite"] + obj["exceeds"])
        final = ws / "states" / f"{ledgers[-1].stem}.jsonl"
        got = {o["id"]: o["xn"] for o in _jsonl(final) if o.get("kind") == "state"}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ops.check(False, f"x states: unreadable artifacts ({exc})")
        return
    want = {k: v for k, v in expected.items() if v}
    bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    ops.check(not bad, f"x states: {len(bad)} scholars differ, e.g. {bad[:3]}")


def tree_digests(root: Path, subdirs: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file under the given subdirectories, by relative path."""
    out = {}
    for sub in subdirs:
        for path in sorted((root / sub).glob("*")):
            if path.is_file():
                out[f"{sub}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}\0{digests[name]}\n".encode())
    return h.hexdigest()


def check_identical(ops: Ops, what: str, a: dict[str, str], b: dict[str, str]) -> None:
    """(c), (e) two artifact sets are byte-identical."""
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    ops.check(bool(a) and not differ, f"{what}: {len(differ)} files differ, e.g. {differ[:3]}")


def check_ingest_counts(ops: Ops, ws: Path, expected: dict) -> None:
    """(d) the ingest summary counts equal the generator's counts."""
    try:
        summary = json.loads((ws / "corpus.meta.json").read_text(encoding="utf-8"))["summary"]
        got = {k: summary[k] for k in expected}
    except (OSError, ValueError, KeyError) as exc:
        ops.check(False, f"ingest counts: unreadable meta ({exc})")
        return
    ops.check(got == expected, f"ingest counts: workspace {got}, generator {expected}")


# -- workload shape -------------------------------------------------------------


def network_shape(csv_path: Path) -> dict:
    """Average degree and largest-component share of a network-stats row."""
    header, row = csv_path.read_text(encoding="utf-8").splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    return {"avg_degree": float(cells["avg_degree"]),
            "giant_pct": float(cells["c1_nodes_pct"] or 0.0)}


def pre_window_share(records: list[dict], window: int) -> float:
    """Share of references that point before the citing year's window."""
    year_of = {r["id"]: r["year"] for r in records}
    total = before = 0
    for r in records:
        for ref in r["references"]:
            total += 1
            before += year_of[ref] < r["year"] - window + 1
    return before / total if total else 0.0
