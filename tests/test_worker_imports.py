"""Stat-checked zip importers (`repro.streaming.worker_imports`).

The hermetic tests build their own archives and restore the process's
import state afterwards; the Spark test checks a real Python worker."""
import importlib
import sys
import zipfile
import zipimport

import pandas as pd
import pytest
from pyspark.sql.types import DoubleType, StringType, StructField, StructType

from repro.streaming import worker_imports
from repro.streaming.worker_imports import (
    StatCheckedZipImporter,
    keep_zip_directories,
)


def _write_zip(path, modules: dict[str, str]) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        for name, source in modules.items():
            zf.writestr(f"{name}.py", source)


@pytest.fixture
def import_state(monkeypatch):
    """Private copies of the import system's process state, restored after
    the test; modules imported from test archives are dropped."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "path_hooks", list(sys.path_hooks))
    monkeypatch.setattr(sys, "path_importer_cache", dict(sys.path_importer_cache))
    monkeypatch.setattr(worker_imports, "_directories", {})
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if name.startswith("wi_probe_"):
            del sys.modules[name]


@pytest.fixture
def installed(tmp_path, import_state):
    """An archive imported from by a plain zipimporter, then
    ``keep_zip_directories()``."""
    archive = tmp_path / "probe.zip"
    _write_zip(archive, {"wi_probe_a": "X = 1\n"})
    sys.path.insert(0, str(archive))
    assert importlib.import_module("wi_probe_a").X == 1
    assert type(sys.path_importer_cache[str(archive)]) is zipimport.zipimporter
    keep_zip_directories()
    return archive


@pytest.fixture
def reads(installed, monkeypatch):
    """Archive paths passed to ``zipimport._read_directory`` after
    ``installed``, in order."""
    seen: list[str] = []
    real = zipimport._read_directory

    def counting(archive):
        seen.append(archive)
        return real(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    return seen


class TestKeepZipDirectories:
    def test_rewraps_cached_importers(self, installed):
        assert type(sys.path_importer_cache[str(installed)]) is StatCheckedZipImporter
        assert StatCheckedZipImporter in sys.path_hooks
        assert zipimport.zipimporter not in sys.path_hooks
        assert not any(
            type(f) is zipimport.zipimporter
            for f in sys.path_importer_cache.values()
        )

    def test_unchanged_archive_is_not_reread(self, installed, reads):
        importlib.invalidate_caches()
        importlib.invalidate_caches()
        assert reads == []

    def test_rewritten_archive_is_reread(self, installed, reads):
        _write_zip(installed, {"wi_probe_a": "X = 1\n", "wi_probe_b": "Y = 2\n"})
        importlib.invalidate_caches()
        assert reads == [str(installed)]
        assert importlib.import_module("wi_probe_b").Y == 2
        importlib.invalidate_caches()
        assert reads == [str(installed)]

    def test_removed_archive_is_seen(self, installed):
        del sys.modules["wi_probe_a"]
        installed.unlink()
        importlib.invalidate_caches()
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("wi_probe_a")

    def test_second_call_is_a_noop(self, installed, reads, monkeypatch):
        hooks = list(sys.path_hooks)
        cache = dict(sys.path_importer_cache)
        monkeypatch.setattr(
            StatCheckedZipImporter,
            "__init__",
            lambda *a: pytest.fail("re-wrapped an importer"),
        )
        keep_zip_directories()
        assert sys.path_hooks == hooks
        assert sys.path_importer_cache == cache
        assert reads == []

    def test_later_zip_path_gets_the_subclass(self, installed, tmp_path, reads):
        later = tmp_path / "later.zip"
        _write_zip(later, {"wi_probe_c": "Z = 3\n"})
        sys.path.insert(0, str(later))
        assert importlib.import_module("wi_probe_c").Z == 3
        assert type(sys.path_importer_cache[str(later)]) is StatCheckedZipImporter
        importlib.invalidate_caches()  # first stat check of the new archive
        importlib.invalidate_caches()
        assert reads == [str(later), str(later)]


@pytest.mark.spark
def test_worker_keeps_zip_directories(spark):
    """In a real Python worker no plain zipimporter is left after the call
    (pyspark.zip is on the worker's path), and one
    ``importlib.invalidate_caches()`` then reads no archive."""

    def probe(pdf: pd.DataFrame) -> pd.DataFrame:
        import importlib
        import sys
        import time

        from repro.streaming.worker_imports import keep_zip_directories

        keep_zip_directories()
        t0 = time.perf_counter()
        importlib.invalidate_caches()
        ms = (time.perf_counter() - t0) * 1e3
        finders = [
            f"{type(f).__module__}.{type(f).__qualname__} {p}"
            for p, f in sys.path_importer_cache.items()
        ]
        return pd.DataFrame({"finder": finders, "ms": ms})

    schema = StructType(
        [StructField("finder", StringType()), StructField("ms", DoubleType())]
    )
    rows = (
        spark.range(1)
        .groupBy("id")
        .applyInPandas(probe, schema=schema)
        .toPandas()
    )
    finders = list(rows["finder"])
    zip_finders = [f for f in finders if "pyspark.zip" in f]
    assert zip_finders, finders
    assert all(f.startswith(f"{StatCheckedZipImporter.__module__}.") for f in zip_finders)
    assert not [f for f in finders if f.startswith("zipimport.zipimporter ")]
    assert rows["ms"].iloc[0] < 20.0
