"""The record types: construction, defaults, equality, hashing, immutability
and the checks they make, and the pinned config hash every artifact holds."""

import pickle
from fractions import Fraction

import pytest

from citedist.analytics import (ClosenessResult, CohortSelection, DegeneracyRow,
                                PairCloseness, RankedRecord, RepeatMatrix)
from citedist.collab import ComponentStats, NetworkStats
from citedist.config import Config, ConfigError
from citedist.corpus import PaperRecord, ValidationSummary
from citedist.distances import HistogramResult, YearHistogram
from citedist.indices import IndexRecord
from citedist.pipeline import RunResult

_RECORD = IndexRecord("s", 2001, 5, 2, 3, 2, 1, Fraction(7, 2))
_COMPONENT = ComponentStats(frozenset({1, 2}), 2, 1, 50.0, 100.0)

# (class, fields in order with the values to build from, defaults of the
# fields left out of a keyword build, frozen, hashable with these values)
RECORDS = [
    (Config, dict(year_start=1990, year_end=2019, window_length=3, n=4, alpha=Fraction(2, 3),
                  exact_distances=True, strict_window=True),
     dict(year_start=1000, year_end=9999, window_length=5, n=6, alpha=Fraction(1),
          exact_distances=False, strict_window=False), True, True),
    (IndexRecord, dict(scholar="s", year=2001, q=5, h=2, g=3, c=2, n_w=1, x=Fraction(7, 2),
                       alpha=Fraction(1, 2)), dict(alpha=Fraction(1)), True, True),
    (ComponentStats, dict(members=frozenset({1, 2}), node_count=2, edge_count=1,
                          node_pct=50.0, edge_pct=100.0), {}, True, True),
    (NetworkStats, dict(node_count=2, edge_count=1, average_degree=1.0, assortativity=None,
                        avg_clustering=0.0, first_component=_COMPONENT,
                        second_component=None, diameter=1), {}, True, True),
    (PaperRecord, dict(paper_id="p", year=2001, author_ids=("a",), reference_ids=("q",)),
     {}, True, True),
    (ValidationSummary, dict(papers=3, authors=2, citations=1, dangling_references=1,
                             duplicates=0, skipped_lines=1, skipped_reasons={"bad_json": 1}),
     dict(papers=0, authors=0, citations=0, dangling_references=0, duplicates=0,
          skipped_lines=0, skipped_reasons={}), False, False),
    (YearHistogram, dict(year=2001, bins=(("1", 1.0),), within_max=1.0, max_bin=12, total=4),
     {}, True, True),
    (HistogramResult, dict(per_year={}, notices=["year 2000: no citations; omitted"]),
     {}, True, False),
    (RunResult, dict(years_processed=[2001], years_skipped=[2000]), {}, False, False),
    (DegeneracyRow, dict(q_lo=0, q_hi=10, scholars=4, degenerate=1), {}, True, True),
    (RepeatMatrix, dict(repeat_labels=("1",), distance_labels=("0",), cells=((3,),),
                        total_citations=3, pair_count=3), {}, True, True),
    (CohortSelection, dict(q_range=(1, 9), fixed={"h": 2}, size=3, seed=5),
     dict(fixed={}, size=20, seed=0), True, False),
    (PairCloseness, dict(scholar_a="a", scholar_b="b", close_a=True, close_b=False),
     {}, True, True),
    (ClosenessResult, dict(index_a="x", index_b="h", s_a=1.0, s_b=0.5, threshold=0.1,
                           pairs=(PairCloseness("a", "b", True, False),)), {}, True, True),
    (RankedRecord, dict(position=1, record=_RECORD, value=3.5), {}, True, True),
]


@pytest.mark.parametrize("cls,values,defaults,frozen,hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, values, defaults, frozen, hashable):
    rec = cls(**values)
    for name, value in values.items():
        assert getattr(rec, name) == value, name
    assert rec == cls(**values) == cls(*values.values())  # positional order is field order
    assert pickle.loads(pickle.dumps(rec)) == rec
    required = {k: v for k, v in values.items() if k not in defaults}
    bare = cls(**required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value, name
    if defaults:
        assert bare != rec
    assert repr(rec).startswith(f"{cls.__name__}(")
    first = next(iter(values))
    if hashable:
        assert hash(cls(**values)) == hash(rec)
        assert len({rec, cls(**values)}) == 1
    if frozen:
        with pytest.raises(AttributeError):
            setattr(rec, first, values[first])
        with pytest.raises(AttributeError):
            rec.no_such_field = 1
    else:
        with pytest.raises(TypeError):
            hash(rec)
    for name, value in defaults.items():  # no instance shares a mutable default
        if isinstance(value, dict):
            assert getattr(cls(**required), name) is not getattr(bare, name), name


@pytest.mark.parametrize("kwargs", [dict(year_start=2001, year_end=2000),
                                    dict(window_length=0), dict(n=-1), dict(alpha=0),
                                    dict(alpha=Fraction(-1, 2))])
def test_config_checks_raise_config_error(kwargs):
    with pytest.raises(ConfigError):
        Config(**kwargs)
    defaults = RECORDS[0][2]
    with pytest.raises(ConfigError):  # a positional build is checked too
        Config(*{**defaults, **kwargs}.values())
    with pytest.raises(ConfigError):  # and so is a replaced one
        Config()._replace(**kwargs)


@pytest.mark.parametrize("build", [
    lambda: IndexRecord("s", 2001, 3, 1, 1, 1, 0, Fraction(4)),  # x > Q
    lambda: IndexRecord("s", 2001, 3, 2, 1, 1, 0, Fraction(1)),  # h > g
    lambda: IndexRecord("s", 2001, 3, 1, 1, 1, 4, Fraction(1)),  # N_w > Q
    lambda: IndexRecord("s", 2001, 3, 1, 1, 4, 0, Fraction(1)),  # c > Q at alpha 1
    lambda: _RECORD._replace(h=4),
], ids=["record-x", "record-h", "record-n_w", "record-c", "replace-record"])
def test_record_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_index_record_value_names_only_indices():
    assert _RECORD.value("Q") == 5 and _RECORD.value("N_w") == 1 and _RECORD.value("x") == 3.5
    for name in ("count", "index", "_fields", "bogus"):
        with pytest.raises(KeyError):
            _RECORD.value(name)


def test_config_hash_is_pinned():
    """Every artifact header holds the config hash: these values must not
    move, or every existing workspace reads as another config's."""
    assert Config().config_hash() == (
        "d425570640e9142e1a6f670e9ba87987272c36029b1585b197e77c2e71efbd4b")
    cfg = Config(year_start=1990, year_end=2019, window_length=3, n=4, alpha=Fraction(2, 3),
                 exact_distances=True, strict_window=True)
    assert cfg.canonical_text() == (
        "year_start = 1990\nyear_end = 2019\nwindow_length = 3\nn = 4\nalpha = 2/3\n"
        "exact_distances = true\nstrict_window = true\n")
    assert cfg.config_hash() == (
        "8a09f9caa5f9f51471426ea59c4174785e986f8c9d5e9b0b74de816ec9b2d8fb")
