"""The stored service table of ``serve`` and its failure modes.

The table shares the native kernel cache's directory, trust, seal and
atomic-publish rules (``repro.sim._disk_cache``), so these rows mirror
``tests/sim/test_native_cache.py``.  ``main`` runs in-process with
``XDG_CACHE_HOME`` pointed at a temp directory; its ``--stats`` row says
which case ran.  One row checks the reuse across fresh interpreters.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim import service_table
from repro.workloads.gemm import GemmShape

SRC = Path(__file__).resolve().parents[2] / "src"

CONFIGS = ("C5", "C3")
SHAPES = (GemmShape(1024, 1024, 1024), GemmShape(512, 512, 512))
SERVE = ["--stats", "serve", ",".join(map(str, SHAPES)), "--configs",
         ",".join(CONFIGS), "--requests", "300", "--rate", "1000", "--seed", "5"]


@pytest.fixture
def cache_home(tmp_path, monkeypatch) -> Path:
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def keyed_path() -> Path:
    return Path(service_table.table_path(CONFIGS, SHAPES))


def serve(capsys) -> tuple[str, str]:
    """``(stdout, services row)`` of one in-process serve."""
    assert main(SERVE) == 0
    captured = capsys.readouterr()
    (row,) = [line for line in captured.err.splitlines()
              if line.startswith("services")]
    return captured.out, row


def table_files(home: Path) -> list[str]:
    return sorted(path.name for path in home.glob("repro/services-*"))


def seal(path: Path, body: bytes) -> None:
    """Write ``body`` with the SHA-256 seal the cache appends."""
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    path.write_bytes(body + hashlib.sha256(body).digest())


def poisoned_table(path: Path) -> None:
    """A well-formed, sealed table whose every service time is 1 s: a
    serve that reads it prints a different report."""
    services = {(name, shape): 1.0 for name in CONFIGS for shape in SHAPES}
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    assert service_table.store(str(path), services, set())


def test_cold_serve_writes_one_keyed_file_then_reuses_it(cache_home, capsys):
    cold, row = serve(capsys)
    path = keyed_path()
    assert row == f"services     computed, saved to {path}"
    assert path.parent == cache_home / "repro"
    (name,) = table_files(cache_home)
    assert re.fullmatch(r"services-[0-9a-f]{16}\.json", name)
    assert (cache_home / "repro").stat().st_mode & 0o777 == 0o700

    warm, row = serve(capsys)
    assert row == f"services     cached at {path}"
    assert warm == cold
    assert table_files(cache_home) == [name]


def test_second_process_reuses_the_table(cache_home, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache_home))
    runs = [
        subprocess.run([sys.executable, "-m", "repro.cli", *SERVE],
                       capture_output=True, text=True, env=env, cwd=tmp_path,
                       timeout=300, check=True)
        for _ in range(2)
    ]
    rows = [next(line for line in run.stderr.splitlines()
                 if line.startswith("services")) for run in runs]
    path = keyed_path()
    assert rows == [f"services     computed, saved to {path}",
                    f"services     cached at {path}"]
    assert runs[0].stdout == runs[1].stdout
    assert re.search(r"^eval stats +0 evaluations", runs[1].stderr, re.MULTILINE)


def test_table_round_trips_exactly(cache_home):
    awkward = (0.1 + 0.2, 5e-324, 1 / 3, 2.0**-30, 123456.789e-9)
    names = ("C5", "C3", "C1")
    services = {
        (name, shape): value
        for (name, shape), value in zip(
            ((n, s) for n in names[:2] for s in SHAPES), awkward
        )
    }
    infeasible = {("C1", shape) for shape in SHAPES}
    degraded = {
        ("C5", "0123456789abcdef", SHAPES[0]): 0.1 + 0.7,
        ("C3", "fedcba9876543210", SHAPES[1]): None,
    }
    path = str(keyed_path())
    assert service_table.store(path, services, infeasible, degraded)
    assert service_table.load(path, names, SHAPES) == (
        services, infeasible, degraded
    )


def test_key_tracks_sources_config_order_and_shapes(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    shutil.copytree(SRC / "repro", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(service_table, "_PACKAGE", str(package))
    key = service_table.table_path(CONFIGS, SHAPES)
    assert key == service_table.table_path(list(CONFIGS), SHAPES + SHAPES[:1])
    assert key != service_table.table_path(CONFIGS[::-1], SHAPES)
    assert key != service_table.table_path(CONFIGS, SHAPES[::-1])
    assert key != service_table.table_path(CONFIGS, SHAPES[:1])

    source = package / "core" / "analytical_model.py"
    data = bytearray(source.read_bytes())
    data[-1] ^= 1
    source.write_bytes(bytes(data))
    assert key != service_table.table_path(CONFIGS, SHAPES)


@pytest.mark.parametrize(
    "damage", ["garbage", "truncated", "wrong_seal", "sealed_garbage", "incomplete"]
)
def test_damaged_table_is_recomputed_and_replaced(cache_home, capsys, damage):
    clean, _ = serve(capsys)
    path = keyed_path()
    if damage == "garbage":
        path.write_bytes(b'{"services": [not json')
    elif damage == "truncated":
        os.truncate(path, path.stat().st_size // 2)
    elif damage == "wrong_seal":
        path.write_bytes(path.read_bytes()[:-1] + b"\0")
    elif damage == "sealed_garbage":
        # passes the seal check, so the JSON reader must reject it
        seal(path, b'{"services": [["C5", [1, 2], "slow"]]}')
    else:
        # well-formed and sealed, but missing a pair
        document = json.loads(path.read_bytes()[:-32])
        document["services"].pop()
        seal(path, json.dumps(document).encode())
    damaged = path.read_bytes()

    out, row = serve(capsys)
    assert row == f"services     computed, saved to {path}"
    assert out == clean
    assert path.read_bytes() != damaged
    assert service_table.load(str(path), CONFIGS, SHAPES) is not None
    assert serve(capsys)[1] == f"services     cached at {path}"


@pytest.mark.parametrize("owner", ["group_writable", "foreign_owned"])
def test_untrusted_cache_dir_is_neither_read_nor_written(
    cache_home, capsys, monkeypatch, owner
):
    clean, _ = serve(capsys)
    path = keyed_path()
    poisoned_table(path)
    planted = path.read_bytes()
    if owner == "group_writable":
        path.parent.chmod(0o770)
    else:
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)

    out, row = serve(capsys)
    assert row == "services     computed, cache unwritable"
    assert out == clean
    assert path.read_bytes() == planted


@pytest.mark.parametrize("blocker", ["file_in_the_way", "read_only_fs"])
def test_unwritable_cache_still_serves(cache_home, capsys, monkeypatch, blocker):
    if blocker == "file_in_the_way":
        cache_home.parent.mkdir(parents=True, exist_ok=True)
        cache_home.write_text("not a directory")
    else:
        def read_only(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", read_only)

    out, row = serve(capsys)
    assert row == "services     computed, cache unwritable"
    assert out.startswith("requests     300 over 2 accelerators")
    if blocker == "read_only_fs":
        assert os.listdir(cache_home / "repro") == []


def test_seeded_prewarm_builds_no_partition():
    """A simulator seeded with a stored table resolves every pair,
    infeasible ones included, without building its partition."""
    from repro.hw.specs import VCK5000
    from repro.sim.serving import ServingSimulator

    services = {("C5", SHAPES[0]): 1e-3, ("C3", SHAPES[0]): 2e-3,
                ("C5", SHAPES[1]): 3e-4}
    infeasible = {("C3", SHAPES[1])}
    simulator = ServingSimulator.seeded(CONFIGS, VCK5000, services, infeasible)
    assert simulator.prewarm(SHAPES) == 0
    assert simulator.stats.evaluations == 0
    assert "partition" not in vars(simulator.partition.designs)
    assert list(simulator.partition.designs) == list(CONFIGS)


CHAOS = SERVE + ["--faults", "chaos", "--fault-seed", "3"]


def chaos_serve(capsys, *extra: str) -> str:
    assert main(CHAOS + list(extra)) == 0
    return capsys.readouterr().out


def degraded_entries(path: Path) -> list:
    return json.loads(path.read_bytes()[:-32])["degraded"]


def test_device_fingerprint_keys_the_fields_not_the_label():
    import dataclasses

    from repro.hw.faults import derate_clock
    from repro.hw.specs import VCK5000

    derated = derate_clock(VCK5000, 0.8)
    fingerprint = service_table.device_fingerprint(derated)
    assert re.fullmatch(r"[0-9a-f]{16}", fingerprint)
    assert service_table.device_fingerprint(derate_clock(VCK5000, 0.8)) == fingerprint
    assert service_table.device_fingerprint(VCK5000) != fingerprint
    assert service_table.device_fingerprint(derate_clock(VCK5000, 0.7)) != fingerprint
    same_fields = dataclasses.replace(
        derated, macs_per_cycle=dict(reversed(list(derated.macs_per_cycle.items())))
    )
    assert service_table.device_fingerprint(same_fields) == fingerprint


def test_chaos_serve_stores_its_degraded_services(cache_home, capsys):
    """A faulted serve publishes the degraded services it resolved; the
    warm serve reads them back and prints the same report."""
    cold = chaos_serve(capsys)
    path = keyed_path()
    stored = degraded_entries(path)
    assert stored, "chaos seed 3 derates a device in some window"
    for name, fingerprint, dims, seconds in stored:
        assert name in CONFIGS and GemmShape(*dims) in SHAPES
        assert re.fullmatch(r"[0-9a-f]{16}", fingerprint)
        assert seconds is None or seconds > 0
    before = path.read_bytes()
    assert chaos_serve(capsys) == cold
    # nothing new resolved: the warm serve leaves the file alone
    assert path.read_bytes() == before


def test_unseen_device_variant_extends_the_table(cache_home, capsys):
    chaos_serve(capsys)
    path = keyed_path()
    first = degraded_entries(path)
    # another fault seed draws other windows: their devices join the
    # entries already stored
    other = chaos_serve(capsys, "--fault-seed", "10")
    grown = degraded_entries(path)
    assert len(grown) > len(first)
    assert [entry for entry in grown if entry in first] == first
    assert service_table.load(str(path), CONFIGS, SHAPES) is not None
    assert chaos_serve(capsys, "--fault-seed", "10") == other
    assert degraded_entries(path) == grown


@pytest.mark.parametrize(
    "damage",
    ["missing_section", "short_entry", "unknown_config", "unknown_shape", "bad_seconds"],
)
def test_damaged_degraded_section_reads_as_no_table(cache_home, capsys, damage):
    """A degraded section that does not parse, or names a config or shape
    outside the table, makes the file read as no table: the serve
    recomputes the table, prints the same report and replaces the file."""
    clean = chaos_serve(capsys)
    path = keyed_path()
    document = json.loads(path.read_bytes()[:-32])
    entry = document["degraded"][0]
    if damage == "missing_section":
        del document["degraded"]
    elif damage == "short_entry":
        document["degraded"][0] = entry[:3]
    elif damage == "unknown_config":
        entry[0] = "C1"
    elif damage == "unknown_shape":
        entry[2] = [3, 5, 7]
    else:
        entry[3] = "slow"
    seal(path, json.dumps(document).encode())
    assert service_table.load(str(path), CONFIGS, SHAPES) is None

    assert main(CHAOS) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    assert f"services     computed, saved to {path}" in captured.err
    assert service_table.load(str(path), CONFIGS, SHAPES) is not None


@pytest.mark.parametrize(
    "first, second", [("c5,c3", "C5,C3"), ("C5,C3", "c5,c3")], ids=["lower-first", "upper-first"]
)
def test_config_names_in_any_case_share_one_table(cache_home, capsys, first, second):
    """``--configs`` names are canonicalised before the table is keyed
    and checked, so either spelling reads the file the other wrote."""

    def stats_row(configs: str) -> str:
        argv = list(SERVE)
        argv[argv.index("--configs") + 1] = configs
        assert main(argv) == 0
        (row,) = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("services")]
        return row

    path = keyed_path()
    assert stats_row(first) == f"services     computed, saved to {path}"
    assert stats_row(second) == f"services     cached at {path}"
    assert table_files(cache_home) == [path.name]
