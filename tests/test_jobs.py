"""Smoke tests: every jobs/ entrypoint runs end-to-end at tiny scale.

Job scripts are executed in-process with patched argv (cheaper than
spark-submit; the scripts share the session builder in jobs/_session.py,
and getOrCreate() reuses the test session's JVM when one exists).
"""
import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


class _NoStopSession:
    """Proxy handing the shared test session to a job while making the
    job's ``spark.stop()`` a no-op (jobs own their session; tests don't)."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def stop(self):
        pass


@pytest.fixture
def job_session(spark, monkeypatch):
    sys.path.insert(0, str(JOBS))
    try:
        _session = importlib.import_module("_session")
    finally:
        sys.path.pop(0)
    monkeypatch.setattr(
        _session, "get_session", lambda app: _NoStopSession(spark)
    )
    return spark


def _run_job(script: str, argv: list[str]) -> None:
    old_argv = sys.argv
    old_path = list(sys.path)
    sys.argv = [script, *argv]
    sys.path.insert(0, str(JOBS))
    try:
        runpy.run_path(str(JOBS / script), run_name="__main__")
    finally:
        sys.argv = old_argv
        sys.path[:] = old_path


@pytest.mark.slow
def test_run_table1_job(capsys):
    _run_job("run_table1.py", ["24", "0.3"])
    out = capsys.readouterr().out
    assert "OnlineSTL" in out
    assert "paper tier" in out


@pytest.mark.spark
@pytest.mark.slow
def test_run_table3_job(job_session, capsys, monkeypatch):
    # Restrict to the smallest dataset so the job smoke test stays fast.
    import repro.experiments.table3 as t3

    monkeypatch.setattr(t3, "DATASETS", ["Elecequip"])
    _run_job("run_table3.py", ["5"])
    out = capsys.readouterr().out
    assert "Elecequip" in out


@pytest.mark.spark
@pytest.mark.slow
def test_run_table4_job(job_session, capsys):
    _run_job("run_table4.py", ["5"])
    out = capsys.readouterr().out
    assert "OnlineSTL" in out
    assert "offline stl" in out


@pytest.mark.spark
@pytest.mark.slow
def test_streaming_demo_job(job_session, capsys):
    _run_job("streaming_demo.py", ["4", "8"])
    # Console-sink output goes to the JVM's stdout, not Python's; success is
    # the query starting, running and stopping without raising.


@pytest.mark.spark
@pytest.mark.slow
def test_run_table2_job_single_seasonality(job_session, capsys, monkeypatch):
    # Tiny scale, and long enough for a steady batch after the warm-up one:
    # the test session's 64 shuffle partitions make each micro-batch take
    # seconds however few rows it has, and the harness raises when it
    # measured no steady batch.
    import repro.experiments.table2 as t2

    monkeypatch.setattr(t2, "DEFAULT_KEYS", {10: 16})
    monkeypatch.setattr(t2, "DEFAULT_ROWS_PER_BATCH", {10: 2048})
    _run_job("run_table2.py", ["25", "10"])
    out = capsys.readouterr().out
    assert "seasonality" in out
    assert "paper" in out


def test_bench_core_job(tmp_path):
    out = tmp_path / "BENCH_core.json"
    for label in ("a", "b"):
        _run_job(
            "bench_core.py",
            ["--label", label, "--out", str(out), "--periods", "10",
             "--seconds", "0.01", "--repeats", "1"],
        )
    doc = json.loads(out.read_text())
    assert sorted(doc["runs"]) == ["a", "b"]
    res = doc["runs"]["b"]["results"]["10"]
    assert res["update_many_1024_pts_per_s"]["median"] > 0
    assert doc["runs"]["b"]["host"]["cores"] >= 1
