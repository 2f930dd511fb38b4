"""On-disk workspace shared by the pipeline stages.

Layout under the workspace root:

    corpus.jsonl          normalized corpus snapshot (canonical format)
    corpus.meta.json      validation summary + corpus/config hashes
    ledgers/<year>.jsonl  per-year distance ledgers
    states/<year>.jsonl   per-year x-index state snapshots (append-only history)
    reports/              CSV reports with JSON manifests
    .lock                 held (flock) by ingest and run while they write

Artifacts embed the hash of the configuration that produced them and
are written atomically (per-process temp file + rename), so an
interrupted stage never leaves a half-written year behind and re-running
a stage with the same inputs produces byte-identical files.  State
snapshots store x scaled by n as an exact integer.  ``citedist.codec``
owns the line format of ledgers and states.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from .codec import (
    decode_ledger,
    decode_ledger_events,
    decode_states,
    encode_ledger,
    encode_states,
)
from .config import Config
from .corpus import CorpusStore, load_corpus
from .distances import YearLedger
from .errors import WorkspaceError


def _atomic_write(path: Path, writer) -> None:
    """Run ``writer(fp)`` on a temp file of this process, then rename it
    over ``path``; on any failure the temp file is removed and ``path``
    keeps its previous content."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fp:
            writer(fp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_artifact(path: Path, decode, lines: int | None = None):
    """``decode(text)`` on an artifact, or on its first ``lines`` lines
    only; a file that is damaged, or names an author the ingested corpus
    lacks, raises a WorkspaceError naming it."""
    try:
        if lines is None:
            text = path.read_text(encoding="utf-8")
        else:
            with open(path, encoding="utf-8") as fp:
                text = "".join(islice(fp, lines))
        if not text:
            raise WorkspaceError(f"cannot read {path}: the file is empty")
        return decode(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise WorkspaceError(
            f"cannot read {path}: damaged or written for another corpus ({exc!r})"
        ) from exc


class Workspace:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.corpus_path = self.root / "corpus.jsonl"
        self.meta_path = self.root / "corpus.meta.json"
        self.ledger_dir = self.root / "ledgers"
        self.state_dir = self.root / "states"
        self.report_dir = self.root / "reports"

    def ensure_dirs(self) -> None:
        for d in (self.root, self.ledger_dir, self.state_dir, self.report_dir):
            d.mkdir(parents=True, exist_ok=True)

    @contextmanager
    def lock(self):
        """Hold an exclusive lock on ``<root>/.lock`` for the block, so
        two stages never write the same artifacts at once.  Raises
        WorkspaceError when another process holds it."""
        try:
            fp = open(self.root / ".lock", "a")
        except FileNotFoundError:
            raise WorkspaceError(f"no ingested corpus in {self.root}; run 'ingest' first") from None
        with fp:  # closing the file releases the lock
            try:
                fcntl.flock(fp, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise WorkspaceError(
                    f"workspace {self.root} is in use: another ingest or run holds its lock"
                ) from None
            yield

    # -- corpus snapshot -------------------------------------------------

    def write_corpus(self, store: CorpusStore, cfg: Config) -> dict:
        self.ensure_dirs()
        _atomic_write(self.corpus_path, store.dump)
        digest = hashlib.sha256(self.corpus_path.read_bytes()).hexdigest()
        lo, hi = store.year_span()
        meta = {
            "summary": store.summary.as_dict(),
            "corpus_sha256": digest,
            "config": cfg.config_hash(),
            "year_min": lo,
            "year_max": hi,
        }
        _atomic_write(self.meta_path, lambda fp: fp.write(json.dumps(meta, indent=2, sort_keys=True) + "\n"))
        return meta

    def load_meta(self) -> dict:
        if not self.meta_path.exists():
            raise WorkspaceError(f"no ingested corpus in {self.root}; run 'ingest' first")
        return json.loads(self.meta_path.read_text(encoding="utf-8"))

    def load_store(self, cfg: Config) -> CorpusStore:
        if not self.corpus_path.exists():
            raise WorkspaceError(f"no ingested corpus in {self.root}; run 'ingest' first")
        return load_corpus(self.corpus_path, cfg)

    def corpus_hash(self) -> str:
        return self.load_meta()["corpus_sha256"]

    # -- ledgers ---------------------------------------------------------

    def ledger_path(self, year: int) -> Path:
        return self.ledger_dir / f"{year}.jsonl"

    def write_ledger(self, ledger: YearLedger, store: CorpusStore, config_hash: str) -> None:
        text = encode_ledger(ledger, store, config_hash)
        _atomic_write(self.ledger_path(ledger.year), lambda fp: fp.write(text))

    def read_ledger(self, year: int, store: CorpusStore, config_hash: str) -> YearLedger | None:
        """The year's ledger, or None when absent or built by another config."""
        return self._read_ledger(year, config_hash, lambda text: decode_ledger(text, store))

    def read_ledger_events(self, year: int, config_hash: str) -> YearLedger | None:
        """The year's ledger with its events tally and no scholars, read
        from the first two lines of the file; None when absent or built
        by another config."""
        return self._read_ledger(year, config_hash, decode_ledger_events, lines=2)

    def _read_ledger(self, year: int, config_hash: str, decode,
                     lines: int | None = None) -> YearLedger | None:
        path = self.ledger_path(year)
        if not path.exists():
            return None
        ledger, recorded = _read_artifact(path, decode, lines)
        return ledger if recorded == config_hash else None

    # -- x-index states ---------------------------------------------------

    def state_path(self, year: int) -> Path:
        return self.state_dir / f"{year}.jsonl"

    def write_states(self, year: int, states: dict[int, int], store: CorpusStore,
                     cfg: Config, config_hash: str) -> None:
        """Snapshot the running x of every scholar with x > 0 after ``year``."""
        text = encode_states(year, states, store, cfg.n, config_hash)
        _atomic_write(self.state_path(year), lambda fp: fp.write(text))

    def read_states(self, year: int, store: CorpusStore, config_hash: str) -> dict[int, int] | None:
        """The year's x states, or None when absent or built by another config."""
        path = self.state_path(year)
        if not path.exists():
            return None
        return _read_artifact(path, lambda text: decode_states(text, store, config_hash))

    def completed_years(self) -> list[int]:
        years = []
        for path in self.ledger_dir.glob("*.jsonl"):
            try:
                year = int(path.stem)
            except ValueError:
                continue
            if self.state_path(year).exists():
                years.append(year)
        return sorted(years)

    # -- reports -----------------------------------------------------------

    def write_report(self, name: str, rows: list[str], manifest: dict,
                     out: str | Path | None = None) -> Path:
        self.ensure_dirs()
        path = Path(out) if out else self.report_dir / f"{name}.csv"
        _atomic_write(path, lambda fp: fp.write("\n".join(rows) + "\n"))
        manifest_path = path.with_suffix(".manifest.json")
        _atomic_write(
            manifest_path,
            lambda fp: fp.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
        )
        return path
