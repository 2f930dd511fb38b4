"""Exception types shared across the package.

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).
"""


class CiteDistError(Exception):
    """Base class for all package-specific errors."""


class IngestError(CiteDistError):
    """The input corpus could not be read."""


class EmptyCorpusError(IngestError):
    """The input contained no valid paper records."""

    def __init__(self, message: str = "no valid paper records in input"):
        super().__init__(message)


class IncompleteStateError(CiteDistError):
    """A computation needs ledger or state years that are not available."""


class InsufficientCohortError(CiteDistError):
    """Cohort constraints matched fewer scholars than requested."""

    def __init__(self, needed: int, available: int):
        super().__init__(
            f"cohort needs {needed} scholars, only {available} satisfy the constraints"
        )
        self.needed = needed
        self.available = available


class WorkspaceError(CiteDistError):
    """A pipeline stage is missing a prerequisite artifact."""
