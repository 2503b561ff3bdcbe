"""Artifact files that are either whole or absent."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temp file for writing; on success move it onto `path`.

    A write that fails partway leaves the old file at `path`, if any,
    untouched. The data is synced to disk before the rename, so a crash
    of the machine does not leave a renamed but empty file either. On an
    exception the temp file is removed; a killed process can leave it
    behind, but never a half-written `path`.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
