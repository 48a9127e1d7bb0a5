"""The benchmark tracer patches layer entry points by name and skips
any it cannot find, so a renamed function would drop its layer from
`perfbench/run.py --trace 1` without an error; this keeps the names in
`perfbench/spans.py` and the package in step."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.absent_entry_points() == []
