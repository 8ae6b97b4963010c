"""tools/bench_record.py: perfbench records folded into one trajectory entry."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _record(workload: str, seed: int, steps: float, trace: int = 0, correct: bool = True) -> dict:
    values = {"steps_per_s": steps, "wall_s": 1e5 / steps, "setup_s": 0.07, "peak_rss_mb": 20.5}
    return {
        "workload": workload, "seed": seed, "trace": trace, "python": "3.11.7", "cpu_count": 2,
        "repeat_count": 3,
        "result": {"correct": correct,
                   "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}},
    }


def test_fold_summarises_each_workload_over_its_runs():
    steps = [30_000.0, 31_000.0, 33_000.0, 36_000.0]
    records = [_record("nominal-3d", 10 - i, s) for i, s in enumerate(steps)]
    records.append(_record("sweep-dense", 5, 20_000.0))
    folded = bench_record.fold(records)
    assert list(folded) == ["nominal-3d", "sweep-dense"]
    nominal = folded["nominal-3d"]
    assert (nominal["runs"], nominal["passes"], nominal["seeds"]) == (4, 12, [7, 8, 9, 10])
    assert nominal["steps_per_s"] == {"median": 32_000.0, "q1": 30_250.0, "q3": 35_250.0}
    assert nominal["setup_s"]["median"] == 0.07
    # One run: both quartiles are its value.
    assert folded["sweep-dense"]["wall_s"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    for bad in (_record("nominal-3d", 1, 1.0, trace=1), _record("nominal-3d", 1, 1.0, correct=False)):
        with pytest.raises(SystemExit, match="traced or incorrect"):
            bench_record.fold([bad])


def test_append_entry_keeps_old_entries_and_refuses_a_known_commit(tmp_path):
    path = tmp_path / "BENCH_steps.json"
    bench_record.append_entry({"commit": "aaa", "src_lines": 1}, path)
    bench_record.append_entry({"commit": None, "parent": "aaa", "src_lines": 2}, path)
    entries = json.loads(path.read_text())
    assert entries == [
        {"commit": "aaa", "src_lines": 1}, {"commit": None, "parent": "aaa", "src_lines": 2},
    ]
    with pytest.raises(SystemExit, match="already has commit aaa"):
        bench_record.append_entry({"commit": "aaa", "src_lines": 3}, path)
    assert len(json.loads(path.read_text())) == 2


def test_record_paths_are_required(monkeypatch, capsys):
    """No default record set: with no record paths the tool is a usage
    error and leaves BENCH_steps.json as it was."""
    before = bench_record.BENCH.read_bytes()
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--commit", "aaa"])
    with pytest.raises(SystemExit) as exc:
        bench_record.main()
    assert exc.value.code == 2
    assert "the following arguments are required: records" in capsys.readouterr().err
    assert bench_record.BENCH.read_bytes() == before
