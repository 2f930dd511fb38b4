"""Citation-distance analytics over windowed co-authorship networks.

The package has two layers.  The graph layer (``corpus``, ``collab`` and
``analytics``) parses the corpus and builds and searches the window
networks.  Every other module is in the light layer: the config, the
errors, the artifact codec and workspace, the distance tallies and
ledgers, the indices, the pipeline and its forked workers.  A light
module imports no graph module at module level, only inside the
function that uses it, because each CLI step is a fresh interpreter
that compiles every module it imports.  The public names below are
loaded on first use (PEP 562).
"""

import importlib

_SOURCES = {
    "codec": ("EXCEEDS_CODE", "INF_CODE"),
    "collab": ("CollabNetwork", "NetworkStats", "assortativity", "avg_clustering",
               "build_window", "connected_components", "network_report", "shortest_distance"),
    "config": ("Config", "load_config", "parse_config_text"),
    "corpus": ("CorpusStore", "PaperRecord", "load_corpus", "parse_records", "yearly_counts"),
    "distances": ("YearLedger", "batch_year_distances", "distance_histogram"),
    "indices": ("IndexRecord", "c_index", "g_index", "h_index", "weight", "x_increment"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
