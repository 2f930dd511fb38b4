"""On-disk workspace shared by the pipeline stages.

Layout under the workspace root:

    corpus.jsonl          normalized corpus snapshot (canonical format)
    corpus.meta.json      validation summary, corpus/config hashes, paper years
    ledgers/<year>.jsonl  per-year distance ledgers
    states/<year>.jsonl   x snapshot after the last planned year (run)
    indices/<year>.jsonl  per-year index snapshots, derived from the ledgers
    reports/              CSV reports with JSON manifests
    .lock                 flock: exclusive for ingest and run, shared for report

Artifacts are written atomically (per-process temp file + rename), so an
interrupted stage never leaves a half-written year behind and re-running
a stage with the same inputs produces byte-identical files.  A year is
complete once its ledger is; the x snapshot stores x scaled by n as an
exact integer.  ``citedist.codec`` owns the line format of ledgers,
states and index snapshots, and each of the three is written through
``_write_artifact``, which stamps it: the record bytes are encoded once
and hashed, and the header line is composed once.

An index snapshot holds every scholar's indices at its year, as the
first index report of that year under a config computed them, and lists
the record digests of the ledgers it was folded from.  It is a cache:
one of another config, or folded from other ledgers, reads as absent and
is written again, and deleting it is always safe.

The meta lists ``paper_years``, the distinct years of the snapshot's
papers, so the years a config plans come from the meta alone; a meta
that is not an object with a ``corpus_sha256`` string, or whose
``paper_years`` is not a list of ints, is damaged.  A step
that needs the store hashes the snapshot and checks the digest against
the ``corpus_sha256`` of the meta; a mismatch raises a WorkspaceError
that names ``corpus.jsonl``.  The checked lines are
built into a store without being validated again, and the store's year
span must match the one the meta gives, else the meta is damaged.

Each artifact header records the hash of the configuration that
produced it, the sha256 of the ingested corpus, and the sha256 of its
record lines.  Every read takes the config and checks the header first:
an artifact of another configuration reads as absent; one whose header
differs in any other key from the one its writer writes for its year
and that config (such as the cap of a ledger, or the year or scale of
an index snapshot), one stamped for another corpus, or one whose record
lines do not match their digest, raises a WorkspaceError that names
the file.  ``year_complete`` and
``states_complete`` stop there, so the resume check decodes no record;
``read_ledger_events`` checks the whole ledger too but decodes only
its events line (``decode_ledger`` without a store).

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  ``load_store`` imports the snapshot
parser of ``corpus`` when it runs.
"""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .codec import (
    CORPUS_KEY,
    RECORDS_KEY,
    decode_indices,
    decode_ledger,
    decode_states,
    indices_artifact,
    indices_head,
    ledger_head,
    split_header,
    stamp,
    states_artifact,
    states_head,
    x_scale,
)
from .config import Config, config_span
from .errors import CiteDistError, WorkspaceError

if TYPE_CHECKING:
    from .corpus import CorpusStore
    from .distances import CountedLedger, YearLedger
    from .indices import IndexRecord


def _atomic_write(path: Path, writer, binary: bool = False) -> None:
    """Run ``writer(fp)`` on a temp file of this process, then rename it
    over ``path``; on any failure the temp file is removed and ``path``
    keeps its previous content.  ``fp`` takes str, or bytes if ``binary``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="\n")) as fp:
            writer(fp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Header keys that ``Workspace._artifact`` does not compare with the
# header of the artifact's year and config: the two stamps, and the
# ledger digests of an index snapshot, which its decoder compares.
_UNCHECKED = frozenset({CORPUS_KEY, RECORDS_KEY, "ledgers"})


def _ledger_head(year: int, cfg: Config) -> dict:
    return ledger_head(year, cfg.distance_cap, cfg.config_hash())


def _states_head(year: int, cfg: Config) -> dict:
    return states_head(year, cfg.n, cfg.config_hash())


class _HashedFile:
    """A text sink over a binary file: each str written to it is encoded
    as ASCII and fed to ``digest`` and to the file alike."""

    __slots__ = ("fp", "digest")

    def __init__(self, fp, digest):
        self.fp, self.digest = fp, digest

    def write(self, text: str) -> None:
        data = text.encode("ascii")
        self.digest.update(data)
        self.fp.write(data)


class Workspace:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.corpus_path = self.root / "corpus.jsonl"
        self.meta_path = self.root / "corpus.meta.json"
        self.ledger_dir = self.root / "ledgers"
        self.state_dir = self.root / "states"
        self.index_dir = self.root / "indices"
        self.report_dir = self.root / "reports"
        self._meta: dict | None = None

    def ensure_dirs(self) -> None:
        for d in (self.root, self.ledger_dir, self.state_dir, self.report_dir):
            try:
                d.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):
                raise WorkspaceError(
                    f"cannot make {d}: it or a path above it is not a directory") from None

    @contextmanager
    def lock(self, shared: bool = False):
        """Hold a lock on ``<root>/.lock`` for the block: exclusive for a
        stage that writes artifacts, so two stages never write them at
        once, or ``shared`` for one that only reads them, so that no
        stage replaces them mid-read.  Raises WorkspaceError when another
        process holds a lock that excludes this one, or when the lock file
        cannot be opened (a directory in its place, say)."""
        try:
            fp = open(self.root / ".lock", "a")
        except FileNotFoundError:
            raise WorkspaceError(f"no ingested corpus in {self.root}; run 'ingest' first") from None
        except NotADirectoryError:
            raise WorkspaceError(f"workspace {self.root} is not a directory") from None
        except OSError as exc:
            raise WorkspaceError(
                f"cannot open {self.root / '.lock'}: {exc.strerror or exc}") from exc
        with fp:  # closing the file releases the lock
            try:
                fcntl.flock(fp, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
            except BlockingIOError:
                holder = "an ingest or run" if shared else "another ingest, run or report"
                raise WorkspaceError(
                    f"workspace {self.root} is in use: {holder} holds its lock"
                ) from None
            yield

    # -- corpus snapshot -------------------------------------------------

    def write_corpus(self, store: CorpusStore, cfg: Config) -> dict:
        """Write the store's snapshot and its meta, and return the meta.
        The snapshot is hashed as it is written: each line's bytes go to
        the digest and to the file alike, and the file is not read back.
        Its text is pure ASCII, so its bytes are the ASCII encoding."""
        self.ensure_dirs()
        digest = hashlib.sha256()
        _atomic_write(self.corpus_path, lambda fp: store.dump(_HashedFile(fp, digest)), binary=True)
        meta = {
            "summary": store.summary.as_dict(),
            "corpus_sha256": digest.hexdigest(),
            "config": cfg.config_hash(),
            "paper_years": sorted(store.years_index),
        }
        _atomic_write(self.meta_path, lambda fp: fp.write(json.dumps(meta, indent=2, sort_keys=True) + "\n"))
        self._meta = meta
        return meta

    def load_meta(self) -> dict:
        """The content of ``corpus.meta.json``, read once: an object with
        the ``corpus_sha256`` string and, unless an older ingest wrote
        it, ``paper_years``, a list of ints."""
        if self._meta is None:
            if not self.meta_path.exists():
                raise WorkspaceError(f"no ingested corpus in {self.root}; run 'ingest' first")
            try:
                meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
                if not isinstance(meta, dict) or not isinstance(meta.get(CORPUS_KEY), str):
                    raise ValueError(f"not an object with a {CORPUS_KEY} string")
                years = meta.get("paper_years", [])
                if not isinstance(years, list) or any(type(y) is not int for y in years):
                    raise ValueError("paper_years is not a list of years")
                self._meta = meta
            except OSError as exc:
                raise WorkspaceError(
                    f"cannot read {self.meta_path}: {exc.strerror or exc}") from exc
            except ValueError as exc:
                raise WorkspaceError(
                    f"cannot read {self.meta_path}: damaged ({exc!r}); run 'ingest' again"
                ) from exc
        return self._meta

    def corpus_hash(self) -> str:
        """The sha256 of the ingested corpus snapshot, as the meta records it."""
        return self.load_meta()["corpus_sha256"]

    def year_span(self, cfg: Config) -> tuple[int, int]:
        """``year_span()`` of the snapshot loaded with ``cfg``, taken from
        the ``paper_years`` of the meta; raises EmptyCorpusError when the
        config's year range holds no paper, and a WorkspaceError when the
        meta has no ``paper_years``."""
        years = self.load_meta().get("paper_years")
        if years is None:
            raise WorkspaceError(
                f"{self.meta_path} lists no paper_years: an older ingest wrote it; "
                f"run 'ingest' again"
            )
        return config_span(years, cfg)

    def load_store(self, cfg: Config) -> CorpusStore:
        """The snapshot as a store, with ``cfg``'s year filter applied.  Its
        bytes must match the ``corpus_sha256`` of the meta, else a
        WorkspaceError names the file; its lines are then trusted and not
        validated again.  The file is hashed in chunks and then decoded
        in blocks of lines (``corpus.parse_snapshot``, one
        ``codec.json_lines`` call per block), so it is never held whole.
        A store whose years do not span what the ``paper_years`` of the
        meta say raises too.  ``run`` calls it with the cyclic collector
        paused."""
        from .corpus import parse_snapshot

        try:
            fp = open(self.corpus_path, "rb")
        except FileNotFoundError:
            raise WorkspaceError(f"no ingested corpus in {self.root}; run 'ingest' first") from None
        except OSError as exc:
            raise WorkspaceError(f"cannot read {self.corpus_path}: {exc.strerror or exc}") from exc
        with fp:
            digest = hashlib.sha256()
            while chunk := fp.read(io.DEFAULT_BUFFER_SIZE):
                digest.update(chunk)
            if digest.hexdigest() != self.corpus_hash():
                raise WorkspaceError(
                    f"cannot read {self.corpus_path}: damaged (its bytes do not match the "
                    f"corpus_sha256 in {self.meta_path.name}); run 'ingest' again"
                )
            fp.seek(0)
            store = parse_snapshot(io.TextIOWrapper(fp, encoding="ascii"), cfg)
        if store.year_span() != self.year_span(cfg):
            raise WorkspaceError(
                f"cannot read {self.meta_path}: damaged (its paper_years do not match "
                f"{self.corpus_path.name}); run 'ingest' again"
            )
        return store

    # -- artifacts ---------------------------------------------------------

    def _artifact(self, path: Path, expected: dict) -> tuple[dict, bytes, int] | None:
        """The header, bytes and record offset of an artifact; None when it
        is absent or its header records another config than ``expected``,
        the header that the writer writes for the path's year and the
        reader's config.  Raises a WorkspaceError naming the file when it
        cannot be read (a directory in its place, say), is empty, has no
        header, has a header that differs from ``expected`` in any key
        but the two stamps and an index snapshot's ``ledgers``, is
        stamped for another corpus or its record lines do not match the
        digest in its header.  The record
        bytes are hashed in place, not copied, and no record is decoded."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise WorkspaceError(f"cannot read {path}: {exc.strerror or exc}") from exc
        if not data:
            raise WorkspaceError(f"cannot read {path}: the file is empty")
        try:
            head, start = split_header(data)
        except ValueError as exc:
            raise WorkspaceError(f"cannot read {path}: damaged ({exc!r})") from exc
        if head.get("config") != expected["config"]:
            return None
        if {k: v for k, v in head.items() if k not in _UNCHECKED} != expected:
            raise WorkspaceError(
                f"cannot read {path}: damaged (its header does not match its year "
                f"and config)"
            )
        if head.get(CORPUS_KEY) != self.corpus_hash():
            raise WorkspaceError(
                f"cannot read {path}: it was not written for the ingested corpus; "
                f"delete {self.ledger_dir}, {self.state_dir} and {self.index_dir} "
                f"and run again"
            )
        if hashlib.sha256(memoryview(data)[start:]).hexdigest() != head.get(RECORDS_KEY):
            raise WorkspaceError(
                f"cannot read {path}: damaged (its record lines do not match "
                f"the {RECORDS_KEY} in its header)"
            )
        return head, data, start

    def _read(self, path: Path, expected: dict, decode, first_line: bool = False):
        """``decode(body, head)`` of a checked artifact (see ``_artifact``),
        where ``body`` is the text of its record lines, or of the first
        alone when ``first_line``; None when it is absent or of another
        config.  A file that fails to decode raises a WorkspaceError
        naming it."""
        checked = self._artifact(path, expected)
        if checked is None:
            return None
        head, data, start = checked
        end = data.find(b"\n", start) if first_line else -1
        try:
            return decode(str(memoryview(data)[start:end if end >= 0 else len(data)], "utf-8"),
                          head)
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise WorkspaceError(f"cannot read {path}: damaged ({exc!r})") from exc

    def _write_artifact(self, path: Path, head: dict, records: str) -> None:
        """Write the artifact of header ``head`` and record text ``records``
        to ``path``, atomically, stamped for the ingested corpus (``stamp``)."""
        lines = stamp(head, records, self.corpus_hash())
        _atomic_write(path, lambda fp: fp.writelines(lines), binary=True)

    def year_complete(self, year: int, cfg: Config) -> bool:
        """Whether the year's ledger was written under ``cfg``, judged
        from its header and record digest alone; raises as ``_artifact``
        does."""
        return self._artifact(self.ledger_path(year), _ledger_head(year, cfg)) is not None

    def states_complete(self, last: int, cfg: Config) -> bool:
        """Whether the x snapshot after ``last`` was written under
        ``cfg``, checked as ``year_complete`` checks a ledger."""
        return self._artifact(self.state_path(last), _states_head(last, cfg)) is not None

    # -- ledgers ---------------------------------------------------------

    def ledger_path(self, year: int) -> Path:
        return self.ledger_dir / f"{year}.jsonl"

    def write_ledger(self, ledger: CountedLedger, store: CorpusStore, cfg: Config) -> None:
        """Write a computed year's ledger: its record lines as they are."""
        self._write_artifact(self.ledger_path(ledger.year), _ledger_head(ledger.year, cfg),
                             ledger.records)

    def read_ledger(self, year: int, store: CorpusStore, cfg: Config) -> YearLedger | None:
        """The year's ledger, or None when absent or built by another config."""
        return self._read(self.ledger_path(year), _ledger_head(year, cfg),
                          lambda body, head: decode_ledger(body, store, head))

    def ledger_digest(self, year: int, cfg: Config) -> str | None:
        """The ``records_sha256`` of the year's ledger, checked whole as
        ``_artifact`` does but not decoded; None when absent or built by
        another config."""
        checked = self._artifact(self.ledger_path(year), _ledger_head(year, cfg))
        return None if checked is None else checked[0][RECORDS_KEY]

    def read_ledger_events(self, year: int, cfg: Config) -> YearLedger | None:
        """The year's ledger with its events tally and no scholars, checked
        whole as ``read_ledger`` checks it but decoded without a store (the
        header and events lines alone).  None when absent or built by
        another config."""
        return self._read(self.ledger_path(year), _ledger_head(year, cfg),
                          lambda body, head: decode_ledger(body, None, head), first_line=True)

    # -- x-index states ---------------------------------------------------

    def state_path(self, year: int) -> Path:
        return self.state_dir / f"{year}.jsonl"

    def write_states(self, year: int, states: Mapping[int, int], store: CorpusStore,
                     cfg: Config) -> None:
        """Snapshot ``states``, each scholar's scaled x after ``year``."""
        self._write_artifact(self.state_path(year),
                             *states_artifact(year, states, store, cfg.n, cfg.config_hash()))

    def read_states(self, year: int, store: CorpusStore, cfg: Config) -> dict[int, int] | None:
        """The year's x states, or None when absent or built by another config."""
        return self._read(self.state_path(year), _states_head(year, cfg),
                          lambda body, head: decode_states(body, store))

    # -- index snapshots ---------------------------------------------------

    def index_path(self, year: int) -> Path:
        return self.index_dir / f"{year}.jsonl"

    def write_indices(self, year: int, records: list[IndexRecord], cfg: Config,
                      ledgers: list[str]) -> None:
        """Snapshot ``records``, the indices at ``year`` folded from the
        ledgers whose record digests ``ledgers`` lists in year order."""
        self.index_dir.mkdir(exist_ok=True)
        self._write_artifact(self.index_path(year), *indices_artifact(
            records, year, x_scale(cfg.n), cfg.config_hash(), ledgers))

    def read_indices(self, year: int, cfg: Config, ledgers: list[str]) -> list[IndexRecord] | None:
        """The records of the year's index snapshot, or None when it is
        absent, of another config, or folded from other ledgers than
        ``ledgers``.  A damaged snapshot, or one of another corpus,
        raises a WorkspaceError that names it and says it may be deleted."""
        path = self.index_path(year)
        try:
            return self._read(path, indices_head(year, x_scale(cfg.n), cfg.config_hash()),
                              lambda body, head: decode_indices(body, cfg.alpha, ledgers, head))
        except WorkspaceError as exc:
            raise WorkspaceError(
                f"{exc}; deleting {path} is safe: the next index report rebuilds it"
            ) from exc

    def completed_years(self) -> list[int]:
        """The years that have a ledger file, in order."""
        years = []
        for path in self.ledger_dir.glob("*.jsonl"):
            try:
                years.append(int(path.stem))
            except ValueError:
                continue
        return sorted(years)

    # -- reports -----------------------------------------------------------

    def write_report(self, name: str, rows: list[str], manifest: dict,
                     out: str | Path | None = None) -> Path:
        """Write the CSV to ``out`` or ``reports/<name>.csv`` and its manifest
        beside it; an unwritable path raises a CiteDistError naming it."""
        self.ensure_dirs()
        path = Path(out) if out else self.report_dir / f"{name}.csv"
        try:
            _atomic_write(path, lambda fp: fp.write("\n".join(rows) + "\n"))
            _atomic_write(
                path.with_suffix(".manifest.json"),
                lambda fp: fp.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
            )
        except OSError as exc:
            raise CiteDistError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return path
