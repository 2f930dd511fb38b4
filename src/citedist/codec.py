"""Line format of the per-year ledgers ``ledgers/<year>.jsonl``, of the
x snapshot ``states/<year>.jsonl``, and of the derived
``indices/<year>.jsonl``.

Each artifact is a header line followed by one line per record, and
every line is byte-identical to ``json.dumps(obj, sort_keys=True,
separators=(",", ":"))`` of the object it holds (``json_line``), the
compact style of ``corpus.jsonl``.  The encoders format the record
lines directly from the store's cached JSON-escaped author labels and
from integers; a computed year's scholar lines come from the credit
sweep of ``distances.counted_ledger``, through ``scholar_line``.  Each
decoder takes the record lines and the header that the workspace has
already parsed and checked, and parses all record lines with one
``json.loads`` (``json_lines``, which also decodes the corpus snapshot
in blocks of lines).  The decoders parse any JSON spacing, so the
spaced lines of ``json.dumps(obj, sort_keys=True)`` that older versions
wrote decode to the same objects.

Ledger::

    {"cap":6,"config":"<hash>","kind":"header","year":2000}
    {"counts":{"1":3,"10":1,"2":5},"exceeds":0,"infinite":2,"kind":"events"}
    {"counts":{"0":1},"exceeds":0,"id":"<author>","infinite":0,"kind":"scholar"}

In memory a tally is a dict from distance code to its nonzero count: a
hop count (>= 0) is a member of a line's ``counts``, and the count of
``INF_CODE`` (no path) and of ``EXCEEDS_CODE`` (a path longer than the
ledger's cap) is its ``infinite`` and ``exceeds``, 0 when absent.  This
module is the one that maps codes to those keys (``events_line``,
``scholar_line`` and ``decode_ledger``).  The cap is the header's, not
the tallies'.

State, written once per run, after the last planned year (x folded from
every ledger and scaled by ``scale``, scholars with x = 0 omitted)::

    {"config":"<hash>","kind":"header","n":6,"scale":6,"year":2000}
    {"id":"<author>","kind":"state","xn":4}

Index snapshot (every scholar's ``IndexRecord`` at ``year``, in label
order; ``ledgers`` lists the ``records_sha256`` of each ledger folded
into it, in year order; x is scaled by ``scale``, and c is an int or,
when it is a Fraction, ``[numerator, denominator]``)::

    {"config":"<hash>","kind":"header","ledgers":["<sha256>"],"scale":6,"year":2000}
    {"c":[2,1],"g":2,"h":1,"id":"<author>","n_w":0,"q":3,"xn":10}

Each artifact is built as its header object and its record text
(``ledger_head`` with ``distances.counted_ledger``'s records,
``states_artifact`` and ``indices_artifact``, whose headers are
``states_head`` and ``indices_head`` plus its ``ledgers``).  A workspace
writes each artifact through ``stamp``, which encodes the record text once, hashes
those bytes and composes the header line once, with two more keys:
``corpus_sha256``, the sha256 of the ingested corpus snapshot, and
``records_sha256``, the sha256 of every byte after the header line.
``split_header`` parses the header line alone and gives
the offset of the record bytes, so a reader can check both stamps
without copying or decoding a record; it then hands each decoder the
parsed header with the record lines alone.  No decoder checks the
config: the workspace first compares every header with the one its
writer writes for the file's year and the config.

Decoding raises ValueError, KeyError, TypeError, AttributeError or
ZeroDivisionError on damaged lines, and KeyError on an author label the
store lacks.  A header line that is not a header object
(``split_header``), and a ledger without an events line, raise
ValueError.  ``decode_ledger`` without a store takes the events line
alone, the first record line, for the reports that bin events only.

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  The decoders import the record types
of ``distances`` and ``indices`` when called, so a step that checks
artifact headers alone, such as a resume, compiles neither module.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from .corpus import CorpusStore
    from .distances import YearLedger
    from .indices import IndexRecord

CORPUS_KEY = "corpus_sha256"
RECORDS_KEY = "records_sha256"

# The distance codes that the search returns and every tally counts, the
# keys of a line's ``counts``, ``infinite`` and ``exceeds``: a hop count
# is >= 0.
INF_CODE = -1  # no path exists
EXCEEDS_CODE = -2  # a path exists and is longer than the cap


def json_line(obj) -> str:
    """``obj`` as one artifact line: compact, keys sorted, newline ended."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _fields(tally: Mapping[int, int]) -> tuple[str, int, int]:
    """The ``counts``, ``infinite`` and ``exceeds`` of a tally's line.
    ``counts`` is the members of its object, the hop-count codes, in the
    key order of ``json_line``: string order ("1" < "10" < "2").  Sorting
    the formatted '"<d>":<c>' entries gives that order, because the
    closing quote sorts below every digit."""
    counts = []
    infinite = exceeds = 0
    for code, count in tally.items():
        if code >= 0:
            counts.append(f'"{code}":{count}')
        elif code == INF_CODE:
            infinite = count
        else:
            exceeds = count
    if len(counts) > 1:
        counts.sort()
    return ",".join(counts), infinite, exceeds


def events_line(tally: Mapping[int, int]) -> str:
    """The events line of a ledger: ``tally`` counts each event once."""
    counts, infinite, exceeds = _fields(tally)
    return (f'{{"counts":{{{counts}}},"exceeds":{exceeds},'
            f'"infinite":{infinite},"kind":"events"}}\n')


def scholar_line(label: str, tally: Mapping[int, int]) -> str:
    """One scholar line of a ledger: ``label`` is the JSON-escaped author
    label and ``tally`` the scholar's credits."""
    counts, infinite, exceeds = _fields(tally)
    return (f'{{"counts":{{{counts}}},"exceeds":{exceeds},'
            f'"id":{label},"infinite":{infinite},"kind":"scholar"}}\n')


def ledger_head(year: int, cap: int | None, config_hash: str) -> dict:
    return {"kind": "header", "year": year, "cap": cap, "config": config_hash}


def x_scale(n: int) -> int:
    """Denominator of every x value under threshold n (1 when n = 0): the
    ``scale`` of the states and index snapshots."""
    return n if n > 0 else 1


def states_head(year: int, n: int, config_hash: str) -> dict:
    return {"kind": "header", "year": year, "n": n, "scale": x_scale(n), "config": config_hash}


def indices_head(year: int, scale: int, config_hash: str) -> dict:
    """The header of an index snapshot but its ``ledgers``."""
    return {"kind": "header", "year": year, "config": config_hash, "scale": scale}


def states_artifact(year: int, states: Mapping[int, int], store: CorpusStore, n: int,
                    config_hash: str) -> tuple[dict, str]:
    """The header and record text of the x snapshot of ``states`` (scaled
    x by author id) after ``year``: one line per scholar in author-id
    order, those at x = 0 left out."""
    labels = store.json_labels
    return states_head(year, n, config_hash), "".join([
        f'{{"id":{labels[author]},"kind":"state","xn":{xn}}}\n'
        for author in sorted(states) if (xn := states[author])])


def stamp(head: dict, records: str, corpus_sha256: str) -> tuple[bytes, bytes]:
    """The header line and the record lines of an artifact as bytes:
    ``records`` encoded once, and ``head`` extended by the corpus hash and
    the sha256 of those bytes."""
    data = records.encode("utf-8")
    head = {**head, CORPUS_KEY: corpus_sha256, RECORDS_KEY: hashlib.sha256(data).hexdigest()}
    return json_line(head).encode("utf-8"), data


def split_header(data: bytes | str) -> tuple[dict, int]:
    """The header object of an artifact and the offset of its record
    lines in ``data``; the header line alone is parsed and nothing is
    copied but that line.  Raises ValueError unless the first line is a
    JSON object of kind "header"."""
    end = data.find(b"\n" if isinstance(data, bytes) else "\n")
    end = len(data) if end < 0 else end
    head = json.loads(data[:end])
    if not isinstance(head, dict) or head.get("kind") != "header":
        raise ValueError("artifact missing header line")
    return head, end + 1


def json_lines(text: str) -> list:
    """The JSON value of each line of ``text``, decoded with one
    ``json.loads`` over the joined lines.

    A blank, truncated or garbled line makes that call fail, or makes
    the number of values it finds differ from the number of lines; both
    raise ValueError.  The lines hold no raw newline, since ``json.dumps``
    escapes it inside strings.
    """
    if not text:
        return []
    if text.endswith("\n"):
        text = text[:-1]
    values = json.loads("[" + text.replace("\n", ",") + "]")
    if len(values) != text.count("\n") + 1:
        raise ValueError("a line does not hold exactly one JSON value")
    return values


def decode_ledger(body: str, store: CorpusStore | None, head: dict) -> YearLedger:
    """The ledger of header ``head`` and record lines ``body``.  Raises
    ValueError when it has no events line.

    With ``store=None``, ``body`` is the events line alone and the
    ledger has no scholars: no author label resolves without a store
    (a scholar line raises KeyError).
    """
    from .distances import YearLedger

    ledger = YearLedger(year=head["year"], cap=head["cap"])
    ledger.records_sha256 = head.get(RECORDS_KEY)
    index = {} if store is None else store.author_index
    scholars = ledger.scholars
    events = None
    for obj in json_lines(body):
        tally = {int(d): c for d, c in obj["counts"].items()}
        if infinite := obj["infinite"]:
            tally[INF_CODE] = infinite
        if exceeds := obj["exceeds"]:
            tally[EXCEEDS_CODE] = exceeds
        if obj["kind"] == "events":
            ledger.events = events = tally
        else:
            scholars[index[obj["id"]]] = tally
    if events is None:
        raise ValueError("ledger file missing events line")
    return ledger


def decode_states(body: str, store: CorpusStore) -> dict[int, int]:
    """The x states in the record lines ``body``."""
    index = store.author_index
    return {index[obj["id"]]: obj["xn"] for obj in json_lines(body)}


def indices_artifact(records: Iterable[IndexRecord], year: int, scale: int,
                     config_hash: str, ledgers: Sequence[str]) -> tuple[dict, str]:
    """The header and record text of the index snapshot of ``records`` (x
    in units of ``1/scale``), folded from the ledgers whose record
    digests ``ledgers`` lists."""
    head = {**indices_head(year, scale, config_hash), "ledgers": list(ledgers)}
    lines = []
    for r in records:
        c, x = r.c, r.x
        per, rest = divmod(scale, x.denominator)
        if rest:
            raise ValueError(f"x={x} of {r.scholar} is not a multiple of 1/{scale}")
        if isinstance(c, Fraction):
            c = f"[{c.numerator},{c.denominator}]"
        lines.append(
            f'{{"c":{c},"g":{r.g},"h":{r.h},"id":{json.dumps(r.scholar)},'
            f'"n_w":{r.n_w},"q":{r.q},"xn":{x.numerator * per}}}\n'
        )
    return head, "".join(lines)


def decode_indices(body: str, alpha: Fraction, ledgers: Sequence[str],
                   head: dict) -> list[IndexRecord] | None:
    """The records of the index snapshot of header ``head`` and record
    lines ``body``, computed at slope ``alpha``; None when its header
    lists other ledgers than ``ledgers`` (it was folded from other
    ledgers and is stale)."""
    from .indices import IndexRecord

    if head["ledgers"] != list(ledgers):
        return None
    year, scale, alpha = head["year"], head["scale"], Fraction(alpha)
    # Fractions are immutable and most values repeat, so each distinct
    # one is built once.
    x_of = functools.cache(lambda xn: Fraction(xn, scale))
    c_of = functools.cache(Fraction)
    return [
        IndexRecord(obj["id"], year, obj["q"], obj["h"], obj["g"],
                    c_of(*c) if isinstance(c := obj["c"], list) else c,
                    obj["n_w"], x_of(obj["xn"]), alpha)
        for obj in json_lines(body)
    ]
