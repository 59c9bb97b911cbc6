"""Zip importers that re-read an archive's directory only when it changed.

A pyspark Python worker runs ``importlib.invalidate_caches()`` at the start
of every task (``worker_util.setup_spark_files``). That makes each cached
``zipimport.zipimporter`` re-read its archive's central directory: on a
reused worker, ``pyspark.zip`` (about 1,300 entries) once per package
importer, the spark-core jar and the py4j zip, every task. The archives do
not change between tasks, so the reads buy nothing.

:func:`keep_zip_directories` swaps in a ``zipimporter`` subclass whose
``invalidate_caches`` re-reads only when the archive's
``(st_ino, st_mtime_ns, st_size)`` differs from when its directory was last
read. A rewritten archive, or a new zip path (``addPyFile``), is still seen.
A rewrite that keeps inode, size and modification time is not; that is the
kind of stat check importlib applies to source files.
"""
from __future__ import annotations

import os
import sys
import zipimport

# archive path -> (stat stamp taken before the last read, directory read).
# Process-wide, like zipimport's own directory cache.
_directories: dict[str, tuple[tuple[int, int, int] | None, dict]] = {}


def _stamp(path: str) -> tuple[int, int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


class StatCheckedZipImporter(zipimport.zipimporter):
    """``zipimporter`` whose ``invalidate_caches`` skips an unchanged archive.

    Importers of one archive (one per package prefix) share one read."""

    def invalidate_caches(self) -> None:
        stamp = _stamp(self.archive)
        seen = _directories.get(self.archive)
        if seen is not None and seen[0] == stamp:
            self._files = seen[1]
            return
        super().invalidate_caches()
        _directories[self.archive] = (stamp, self._files)


def keep_zip_directories() -> None:
    """Install :class:`StatCheckedZipImporter` in this process: as the zip
    path hook, and in place of every plain ``zipimporter`` already in
    ``sys.path_importer_cache``, whose directories are then read once per
    archive. Later calls return at once: the hook in ``sys.path_hooks`` is
    the run-once flag, so it lives in the process, not in the caller."""
    hooks = sys.path_hooks
    if StatCheckedZipImporter in hooks:
        return
    hooks[:] = [
        StatCheckedZipImporter if h is zipimport.zipimporter else h for h in hooks
    ]
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if type(finder) is zipimport.zipimporter:
            try:
                cache[path] = StatCheckedZipImporter(path)
            except zipimport.ZipImportError:
                continue
            cache[path].invalidate_caches()
