"""Crash-safe file writes: temp file in place, fsync, atomic rename.

A segment or trace that a crashed writer leaves half-written is
worse than none at all — readers must then *detect* the tear instead
of trusting the file.  Every durable artifact in the pipeline
(traces, segments, store manifests, traffic indexes) goes through
:func:`atomic_write`, which guarantees a reader observes either the
complete old content or the complete new content, never a mixture:

1. the payload is written to a uniquely-named temp file **in the
   destination directory** (same filesystem, so the final rename
   cannot degrade to a copy);
2. the temp file is flushed and ``fsync``'d, so the *data* is durable
   before the name points at it;
3. ``os.replace`` atomically installs it;
4. the directory entry is fsync'd (best effort — not every platform
   allows opening a directory), making the rename itself durable.

On any failure the temp file is removed and the destination is
untouched.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Union

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
]


def fsync_directory(directory: Union[str, Path]) -> None:
    """Fsync a directory entry, best effort.

    Durability of a rename requires fsyncing the containing directory;
    platforms/filesystems that refuse to open directories (or to fsync
    them) simply skip the extra guarantee — the rename atomicity
    itself is unaffected.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(
    path: Union[str, Path],
    mode: str = "w",
    *,
    encoding: "str | None" = None,
    newline: "str | None" = None,
):
    """Yield a handle whose contents atomically replace ``path`` on exit.

    The handle writes to ``<name>.<pid>.tmp`` next to the destination;
    a successful exit fsyncs it and renames it into place, an
    exception removes it and leaves any existing destination intact.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    handle = open(tmp, mode, encoding=encoding, newline=newline)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, target)
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(target.parent)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically (and durably) replace ``path`` with ``data``."""
    with atomic_write(path, "wb") as handle:
        handle.write(data)


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically (and durably) replace ``path`` with ``text``."""
    with atomic_write(path, "w", encoding=encoding) as handle:
        handle.write(text)
