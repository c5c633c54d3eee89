"""The on-disk cache both serve-time caches share.

The compiled dispatch kernel (:mod:`repro.sim._native`) and the serve
service table (:mod:`repro.sim.service_table`) keep their files in
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) under the same
three rules:

* **trust** — a directory writable by group or others, or owned by
  another user, is neither read nor written: whatever is loaded from it
  could have been replaced by someone else;
* **seal** — every file ends with the SHA-256 of the bytes before it,
  and a file whose seal does not match is never used (a truncated
  library can kill the process inside the loader);
* **atomic publish** — a file is written to a temp file in the cache
  directory and renamed over its name, so a reader sees the old file
  or the new one, never half of one, and racing writers leave one.
"""

from __future__ import annotations

import contextlib
import hashlib
import os

#: length of the SHA-256 seal at the end of every cache file
SEAL_BYTES = hashlib.sha256().digest_size


def cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def trusted(directory: str) -> bool:
    """Whether ``directory`` is ours alone: what is loaded from it must
    not be replaceable by another user."""
    try:
        info = os.stat(directory)
    except OSError:
        return False
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def read_sealed(path: str) -> bytes | None:
    """The bytes of ``path`` before its seal, or ``None`` when the file
    is missing, unreadable, empty, in an untrusted directory or does not
    end with the SHA-256 of the bytes before it."""
    if not trusted(os.path.dirname(path)):
        return None
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    body, seal = data[:-SEAL_BYTES], data[-SEAL_BYTES:]
    if body and hashlib.sha256(body).digest() == seal:
        return body
    return None


def publish(body: bytes, path: str) -> bool:
    """Write ``body`` sealed with its SHA-256 to ``path`` atomically
    (temp file in the cache directory, then ``os.replace``); ``False``
    if it cannot be written there or the directory is not trusted."""
    import tempfile

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not trusted(directory):
            return False
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=directory)
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(body + hashlib.sha256(body).digest())
        os.replace(tmp, path)
        return True
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return False
