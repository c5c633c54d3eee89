"""The on-disk cache of the compiled dispatch kernel and its failure modes.

``_native._build()`` is the whole load-or-compile path; calling it
directly with ``XDG_CACHE_HOME`` pointed at a temp directory exercises
it in-process.  A library that was loaded stays loaded under its path
for the life of a process, so checks that a rebuilt file now loads as
``cached`` run in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.sim import _native

SRC = Path(__file__).resolve().parents[2] / "src"
COMPILERS = [path for path in map(shutil.which, _native._COMPILERS) if path]

pytestmark = pytest.mark.skipif(not COMPILERS, reason="needs a C compiler")


@pytest.fixture
def cache_home(tmp_path, monkeypatch) -> Path:
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    return home


@pytest.fixture
def compiles(monkeypatch) -> list:
    """Every compiler invocation ``_build`` makes, in order."""
    calls: list = []
    real_run = subprocess.run

    def counting_run(argv, *args, **kwargs):
        calls.append(argv)
        return real_run(argv, *args, **kwargs)

    # _native imports subprocess only when it compiles
    monkeypatch.setattr(subprocess, "run", counting_run)
    return calls


def keyed_path(home: Path) -> Path:
    return home / "repro" / f"libreprowalk-{_native._cache_key(COMPILERS[0])}.so"


def fresh_import(home: Path) -> str:
    """``NATIVE_ORIGIN`` as a new interpreter sees it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(home))
    env.pop("REPRO_NO_NATIVE", None)
    result = subprocess.run(
        [sys.executable, "-c",
         "from repro.sim import _native; print(_native.NATIVE_ORIGIN)"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return result.stdout.strip()


def seal(path: Path, body: bytes) -> None:
    """Write ``body`` with the SHA-256 seal ``_publish`` appends."""
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    path.write_bytes(body + hashlib.sha256(body).digest())


#: a source edit that compiles to a wrong kernel: ties in finish time
#: go to the later lane instead of the first (np.argmin) one
MISCOMPILED = ("e < best_e", "e <= best_e")


def build_variant(path: Path, old: str, new: str) -> None:
    """Compile a deliberately wrong kernel, sealed, to ``path``."""
    assert old in _native._SOURCE
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "bad.c"
        source.write_text(_native._SOURCE.replace(old, new))
        built = Path(tmp) / "bad.so"
        subprocess.run(
            [COMPILERS[0], *_native._FLAGS, "-o", str(built), str(source)],
            check=True, capture_output=True,
        )
        seal(path, built.read_bytes())


def test_cold_build_writes_one_keyed_file_then_reuses_it(cache_home, compiles):
    kwide, origin, path = _native._build()
    assert origin == "compiled" and len(compiles) == 1
    assert path == str(keyed_path(cache_home))
    files = os.listdir(cache_home / "repro")
    assert files == [os.path.basename(path)]
    assert re.fullmatch(r"libreprowalk-[0-9a-f]{16}\.so", files[0])
    assert (cache_home / "repro").stat().st_mode & 0o777 == 0o700

    again = _native._build()
    assert again[1:] == ("cached", path)
    assert len(compiles) == 1


def test_second_process_loads_the_cache(cache_home):
    assert fresh_import(cache_home) == "compiled"
    assert fresh_import(cache_home) == "cached"


def test_key_tracks_source_flags_and_compiler(monkeypatch):
    key = _native._cache_key("/usr/bin/cc")
    assert key != _native._cache_key("/usr/bin/clang")
    monkeypatch.setattr(_native, "_FLAGS", ("-O3", "-fPIC", "-shared"))
    assert key != _native._cache_key("/usr/bin/cc")
    monkeypatch.undo()
    monkeypatch.setattr(_native, "_SOURCE", _native._SOURCE + "\n")
    assert key != _native._cache_key("/usr/bin/cc")


@pytest.mark.parametrize("damage", ["garbage", "sealed_garbage", "truncated"])
def test_unloadable_cache_file_is_evicted_and_rebuilt(cache_home, compiles, damage):
    path = keyed_path(cache_home)
    if damage == "garbage":
        path.parent.mkdir(mode=0o700, parents=True)
        path.write_bytes(b"\x7fELF but not really a shared object")
    elif damage == "sealed_garbage":
        # passes the seal check, so the loader itself must reject it
        seal(path, b"\x7fELF but not really a shared object")
    else:
        # loading a truncated library would die of SIGBUS; the seal
        # check must catch it first
        _native._build()
        os.truncate(path, path.stat().st_size // 2)
        compiles.clear()
    damaged = path.read_bytes()

    kwide, origin, saved = _native._build()
    assert origin == "compiled" and saved == str(path)
    assert len(compiles) == 1
    assert path.read_bytes() != damaged
    assert fresh_import(cache_home) == "cached"


def test_cache_file_failing_self_check_is_evicted_and_rebuilt(cache_home, compiles):
    path = keyed_path(cache_home)
    # loads fine, but breaks finish-time ties toward the later lane
    build_variant(path, *MISCOMPILED)
    assert _native._bind(str(path)) is None
    compiles.clear()

    kwide, origin, saved = _native._build()
    assert origin == "compiled" and saved == str(path)
    assert len(compiles) == 1
    assert _native._check_dispatch(kwide)
    assert fresh_import(cache_home) == "cached"


@pytest.mark.parametrize("blocker", ["file_in_the_way", "read_only_fs"])
def test_unwritable_cache_falls_back_to_a_temp_build(
    cache_home, compiles, monkeypatch, blocker
):
    if blocker == "file_in_the_way":
        cache_home.parent.mkdir(parents=True, exist_ok=True)
        cache_home.write_text("not a directory")
    else:
        def read_only(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", read_only)

    kwide, origin, saved = _native._build()
    assert (origin, saved) == ("compiled", None)
    assert _native._check_dispatch(kwide)
    if blocker == "read_only_fs":
        assert os.listdir(cache_home / "repro") == []


def test_shared_cache_dir_is_neither_read_nor_written(cache_home, compiles):
    directory = cache_home / "repro"
    directory.mkdir(parents=True)
    directory.chmod(0o777)
    build_variant(keyed_path(cache_home), *MISCOMPILED)
    planted = keyed_path(cache_home).read_bytes()

    kwide, origin, saved = _native._build()
    assert (origin, saved) == ("compiled", None)
    assert keyed_path(cache_home).read_bytes() == planted


#: run by each racing worker; exec'd so the spawned child imports the
#: kernel module only after the barrier, not while unpickling its target
RACE_WORKER = """
barrier.wait(timeout=120)
from repro.sim import _native
results.put((_native.NATIVE_AVAILABLE, _native.NATIVE_ORIGIN))
"""


def test_spawn_workers_racing_on_an_empty_cache(cache_home):
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    results = context.Queue()
    workers = [
        context.Process(
            target=exec,
            args=(RACE_WORKER, {"barrier": barrier, "results": results}),
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    outcomes = [results.get(timeout=300) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    assert all(available for available, _ in outcomes)
    assert {origin for _, origin in outcomes} <= {"compiled", "cached"}
    # whichever rename landed last, exactly one checked file remains
    assert os.listdir(cache_home / "repro") == [keyed_path(cache_home).name]
    assert fresh_import(cache_home) == "cached"


def test_no_native_env_builds_nothing_and_creates_no_cache_dir(
    cache_home, compiles, monkeypatch
):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert _native._build() is None
    assert compiles == []
    assert not cache_home.exists()


def test_no_compiler_gives_the_numpy_fallback(
    cache_home, compiles, monkeypatch, caplog
):
    _native._build()
    compiles.clear()
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    # a cached kernel is keyed by its compiler; with none, nothing loads
    with caplog.at_level(logging.WARNING, logger=_native._LOG.name):
        assert _native._build() is None
    assert compiles == []
    assert "no C compiler on PATH (tried cc, gcc, clang)" in caplog.text


def test_fresh_build_failing_self_check_names_the_self_check(
    cache_home, compiles, monkeypatch, caplog
):
    monkeypatch.setattr(_native, "_bind", lambda lib_path: None)
    with caplog.at_level(logging.WARNING, logger=_native._LOG.name):
        assert _native._build() is None
    assert len(compiles) == 1
    assert (
        f"the C kernel built with {COMPILERS[0]} failed its self-check "
        "against the Python kernel" in caplog.text
    )
    assert "no C compiler" not in caplog.text


def test_every_compile_failing_names_the_compilers(
    cache_home, monkeypatch, caplog
):
    monkeypatch.setattr(_native, "_compile", lambda compiler, directory: None)
    with caplog.at_level(logging.WARNING, logger=_native._LOG.name):
        assert _native._build() is None
    assert (
        f"the C kernel failed to compile with {', '.join(COMPILERS)}"
        in caplog.text
    )
    assert "no C compiler" not in caplog.text


def test_serve_stats_reports_compiled_then_cached(cache_home, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache_home))
    env.pop("REPRO_NO_NATIVE", None)
    argv = [sys.executable, "-m", "repro.cli", "--stats", "serve", "512x512x512",
            "--requests", "200", "--streaming"]
    rows = []
    for _ in range(2):
        result = subprocess.run(argv, capture_output=True, text=True, env=env,
                                cwd=tmp_path, timeout=300, check=True)
        rows.append(next(line for line in result.stderr.splitlines()
                         if line.startswith("native")))
    path = keyed_path(cache_home)
    assert rows[0] == ("native       available (k-wide C dispatch kernel; "
                       f"compiled, saved to {path})")
    assert rows[1] == f"native       available (k-wide C dispatch kernel; cached at {path})"
