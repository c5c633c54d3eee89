"""End-to-end, layer-attributed benchmark of real ``versal-gemm`` invocations.

Run from the repository root::

    python3 perfbench/run.py --workload startup --seed 1 --seconds 15 --trace 0

Each run builds a fixed list of CLI invocations (a *round*) from its
workload and seed, then cycles through it, every invocation in a fresh
``python -m repro.cli`` process, until ``--seconds`` have passed and at
least one round is complete.  It is a closed loop with one client: the
next invocation starts when the previous one has exited, as when a user
or a script calls the tool.

``--trace 0`` reports what a user of the tool sees: the wall time of
one round (each invocation's median over its samples, summed), the
peak resident memory of the largest invocation, and the set-up time
(the median of SETUP_REPEATS cold first invocations).  ``--trace 1``
runs the same rounds through ``probe.py``, which records spans around
the calls into each layer of the program, and reports each layer's
self time per round the same way.  A run holds a few samples per
invocation, too few for a tail percentile; ``invocations`` in the
traced output gives the count.

Times are in *reference seconds*: wall seconds divided by how much
slower than an uncontended CPU the benchmark's CPU ran meanwhile (see
``SpeedProbe``).  On a shared host a neighbour's load swings a CPU's
speed by up to ~40% for seconds at a time, CPU time included, which
would otherwise drown a 10% change in the program.  The probe pins the
benchmark and the program to one CPU, so process-parallel paths (the
sharded spawn pool) are measured as on a one-CPU host.

Outputs are checked three ways: every invocation's stdout is parsed for
invariants (request accounting, percentile order, SLO lines, exported
files); repeats of one invocation must print identical stdout; and after
the timed rounds ``inproc.py`` re-runs each serve invocation against the
scan dispatch oracle (sharded serves against the pool-free ``inline``
mode), which must agree with the fast engines.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the request mix of every serve: the canonical four-shape mix of the
#: repository's serving benchmarks; the seed varies the request trace
#: (arrival times and shape order) and the fault schedule, not the mix,
#: so the work per request does not swing with the seed
SHAPES = "1024x1024x1024,512x512x512,2048x1024x512,1024x2048x1024"
#: single-GEMM inputs for estimate and dse: one size, dimensions permuted
GEMM_DIMS = (1024, 512, 256)
NARROW = "C5,C3"
WIDE = "C1,C2,C3,C4,C7,C8,C9,I1"
NARROW_RATE = 1000
WIDE_RATE = 3000
SLO = "p99<50ms,avail>0.999"
FP32_CONFIGS = ("C1", "C2", "C3", "C4", "C5", "C6")
#: serve invocations larger than this are checked against the scan
#: oracle on their first VERIFY_REQUESTS requests' worth of trace
VERIFY_REQUESTS = 20_000
#: cold invocations timed for setup_s; the median is reported
SETUP_REPEATS = 5
SETUP_ARGV = ("serve", "512x512x512", "--requests", "1000", "--streaming")
#: wall-clock limit for one invocation before it is killed and failed
INVOCATION_TIMEOUT = 120.0

LAYERS = (
    "boot",
    "import",
    "native_build",
    "model",
    "tracegen",
    "dispatch",
    "slo",
    "export",
    "report",
    "teardown",
)
#: layers whose resident-set growth is reported (largest invocation)
RSS_LAYERS = ("import", "tracegen", "dispatch", "report")


#: the speed probe's loop length, how often it runs, and the CPU seconds
#: it takes on an uncontended 2 GHz core under CPython 3.11
PROBE_ITERATIONS = 20_000
PROBE_INTERVAL = 0.05
PROBE_REFERENCE = 0.8e-3


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the probe's timestamps and this
    # process's line up
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """How fast the benchmark's CPU runs, sampled while the program runs.

    Entering pins this process, and so every process it starts after,
    to one CPU; a thread then times a fixed interpreter-bound loop on
    that CPU every PROBE_INTERVAL.  The loop is timed in thread CPU
    time, so being preempted by the program does not count, but a
    sibling hardware thread's load does.  The probe takes about 2% of
    the CPU, the same share on every run.
    """

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL):
            at, start = clock(), time.thread_time()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i
            self._samples.append((at, time.thread_time() - start))

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown against PROBE_REFERENCE over [start, end].

        Samples over twice the interval's median are left out: a probe
        that wakes an idle CPU runs several times slower than on a busy
        one, which says nothing about the program's speed.  An interval
        too short to hold a sample takes the nearest one.
        """
        samples = list(self._samples)
        inside = [cpu for at, cpu in samples if start <= at <= end]
        if not inside:
            if not samples:
                return 1.0
            middle = (start + end) / 2
            inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        cap = 2 * statistics.median(inside)
        return statistics.fmean(cpu for cpu in inside if cpu <= cap) / PROBE_REFERENCE


@dataclass
class Command:
    """One CLI invocation of a round."""

    argv: list[str]
    requests: int = 0
    #: output flag -> file name inside the run directory
    outputs: dict[str, str] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str | None:
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None

    def full_argv(self, rundir: Path) -> list[str]:
        argv = list(self.argv)
        for flag, name in self.outputs.items():
            argv += [flag, str(rundir / name)]
        return argv


def _serve(rng: random.Random, configs: str, requests: int, rate: int,
           *extra: str, outputs: dict[str, str] | None = None) -> Command:
    argv = ["serve", SHAPES, "--configs", configs, "--requests", str(requests),
            "--rate", str(rate), "--seed", str(rng.randrange(1 << 31)), *extra]
    return Command(argv, requests=requests, outputs=outputs or {})


def _gemm(rng: random.Random) -> str:
    return "x".join(str(d) for d in rng.sample(GEMM_DIMS, 3))


def _startup(rng: random.Random) -> list[Command]:
    return [
        _serve(rng, NARROW, 1000, NARROW_RATE, "--streaming", "--slo", SLO,
               outputs={"--metrics-out": "metrics.prom"}),
        _serve(rng, WIDE, 1000, WIDE_RATE),
        Command(["estimate", _gemm(rng), "--config", rng.choice(FP32_CONFIGS)]),
        Command(["dse", _gemm(rng), "--precision", "fp32"]),
        Command(["run", "fig13"]),
    ]


def _stream(rng: random.Random) -> list[Command]:
    return [
        _serve(rng, NARROW, 1_000_000, NARROW_RATE, "--streaming", "--slo", SLO),
        _serve(rng, WIDE, 1_000_000, WIDE_RATE, "--streaming",
               outputs={"--metrics-out": "metrics.prom"}),
        _serve(rng, NARROW, 1_000_000, NARROW_RATE, "--streaming",
               "--shards", "2", "--start-method", "spawn"),
        _serve(rng, NARROW, 100_000, NARROW_RATE, "--streaming",
               "--faults", "chaos", "--fault-seed", str(rng.randrange(1 << 16)),
               "--slo", SLO),
        _serve(rng, WIDE, 100_000, WIDE_RATE, "--streaming",
               "--faults", "chaos", "--fault-seed", str(rng.randrange(1 << 16))),
    ]


def _exact(rng: random.Random) -> list[Command]:
    return [
        _serve(rng, NARROW, 100_000, NARROW_RATE,
               outputs={"--metrics-out": "metrics.prom"}),
        _serve(rng, WIDE, 100_000, WIDE_RATE, "--slo", SLO),
        _serve(rng, NARROW, 10_000, NARROW_RATE,
               outputs={"--trace-out": "trace.json"}),
    ]


WORKLOADS = {
    "startup": _startup,
    "stream": _stream,
    "exact": _exact,
}


# -- running one invocation ----------------------------------------------


@dataclass
class Result:
    status: int
    #: reference seconds (see SpeedProbe)
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    #: traced runs: per-layer self reference seconds and self RSS growth (MB)
    layers: dict[str, float] = field(default_factory=dict)
    layer_rss_mb: dict[str, float] = field(default_factory=dict)


def invoke(argv: list[str], env: dict, rundir: Path, speed: SpeedProbe,
           spans: Path | None = None) -> Result:
    """Run ``versal-gemm argv`` in a fresh process (through the probe
    when ``spans`` names its output file) and measure it."""
    if spans is None:
        cmd = [sys.executable, "-m", "repro.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "probe.py"), str(spans), *argv]
    out_path, err_path = rundir / "stdout.txt", rundir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        # a session of its own, so a timeout also kills shard workers
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=rundir,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            # wait4 rather than Popen.wait: it returns the child's own
            # rusage (including workers it reaped) without a poll loop
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = clock()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    slowdown = speed.slowdown(start, end)
    result = Result(
        status=proc.returncode,
        wall=(end - start) / slowdown,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
    if spans is not None and result.status == 0:
        record = json.loads(spans.read_text())
        spans.unlink()
        seconds = {
            **record["seconds"],
            "boot": record["start"] - start,
            "teardown": end - record["end"],
        }
        result.layers = {name: value / slowdown for name, value in seconds.items()}
        result.layer_rss_mb = record["rss_mb"]
    return result


# -- output checks --------------------------------------------------------

_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def _seconds(text: str) -> float:
    value, unit = text.split()
    return float(value) * _UNITS[unit]


def _line(stdout: str, pattern: str) -> re.Match | None:
    return re.search(pattern, stdout, re.MULTILINE)


def check(command: Command, result: Result, rundir: Path) -> list[str]:
    """Invariants of one invocation's output; returns the violations."""
    if result.status != 0:
        return [f"exit status {result.status}: {result.stderr.strip()[-400:]}"]
    out = result.stdout
    errors: list[str] = []
    if command.kind == "serve":
        head = _line(out, r"^requests\s+(\d+) over (\d+) accelerators \((.*)\)$")
        if head is None:
            return ["no 'requests' line"]
        if int(head.group(1)) != command.requests:
            errors.append(f"served {head.group(1)} of {command.requests} requests")
        if int(head.group(2)) != len(command.flag("--configs").split(",")):
            errors.append(f"{head.group(2)} accelerators")
        shards = command.flag("--shards")
        if shards and f"{shards} shards via spawn" not in head.group(3):
            errors.append(f"mode {head.group(3)!r}")
        loads = sum(int(n) for n in re.findall(r"^load\s+\S+: (\d+) requests$", out, re.MULTILINE))
        shed_match = _line(out, r"^faults .* (\d+) shed$")
        shed = int(shed_match.group(1)) if shed_match else 0
        if command.flag("--faults") and shed_match is None:
            errors.append("no 'faults' line")
        if loads + shed != command.requests:
            errors.append(f"{loads} completed + {shed} shed != {command.requests}")
        lat = _line(out, r"^latency\s+p50 (.+?)\s+p95 (.+?)\s+p99 (.+?)\s+mean (.+)$")
        if lat is None:
            errors.append("no 'latency' line")
        else:
            p50, p95, p99 = (_seconds(lat.group(i)) for i in (1, 2, 3))
            if not 0 < p50 <= p95 <= p99:
                errors.append(f"percentiles out of order: {p50} {p95} {p99}")
        if command.flag("--slo"):
            verdicts = re.findall(r"^slo\s+\S+: (?:ok|BREACH) ", out, re.MULTILINE)
            if len(verdicts) != len(command.flag("--slo").split(",")):
                errors.append(f"{len(verdicts)} SLO verdicts")
        if "--metrics-out" in command.outputs:
            path = rundir / command.outputs["--metrics-out"]
            text = path.read_text() if path.exists() else ""
            total = _line(text, r"^repro_serving_requests_total (\S+)$")
            if total is None or float(total.group(1)) != loads:
                errors.append("metrics file lacks the completed-request count")
        if "--trace-out" in command.outputs:
            path = rundir / command.outputs["--trace-out"]
            try:
                events = json.loads(path.read_text())["traceEvents"]
            except (OSError, ValueError, KeyError, TypeError):
                events = []
            if not events:
                errors.append("trace file has no events")
    elif command.kind == "dse":
        evaluated = _line(out, r"^evaluated (\d+) candidates")
        if evaluated is None or int(evaluated.group(1)) < 1:
            errors.append("no candidates evaluated")
    elif command.kind == "estimate":
        if not (_line(out, r"^total\s+\S+") and _line(out, r"^bottleneck\s+\S+")):
            errors.append("no total/bottleneck lines")
    elif not out.startswith(f"{command.argv[1]}:"):
        errors.append("experiment output lacks its header")
    for name in command.outputs.values():
        (rundir / name).unlink(missing_ok=True)
    return errors


# -- oracle checks after the timed rounds --------------------------------


def _without_outputs(argv: list[str]) -> list[str]:
    out, skip = [], False
    for token in argv:
        if skip:
            skip = False
        elif token in ("--metrics-out", "--trace-out"):
            skip = True
        else:
            out.append(token)
    return out


def _with(argv: list[str], flag: str, value: str | None) -> list[str]:
    argv = list(argv)
    if flag in argv:
        i = argv.index(flag)
        del argv[i:i + 2]
    if value is not None:
        argv += [flag, value]
    return argv


_LATENCY = re.compile(r"^(latency|window|\[|slo|ALERT)", re.MULTILINE)


def _split_latency(stdout: str) -> tuple[list[str], list[float]]:
    """Lines that depend only on dispatch decisions, and the latency
    figures a streaming report sketches."""
    exact, values = [], []
    for line in stdout.splitlines():
        if line.startswith("latency"):
            values += [_seconds(v) for v in re.findall(r"(\d+\.\d+ (?:s|ms|us))", line)]
        elif not _LATENCY.match(line) and not line.startswith(("requests", "---")):
            exact.append(line)
    return exact, values


def oracle_checks(commands: list[Command], outputs: list[str], env: dict,
                  rundir: Path) -> list[str]:
    """Compare each serve invocation against a reference engine, run
    in one interpreter by ``inproc.py``."""
    jobs: list[tuple[str, Command, list[str], list[str] | str]] = []
    for command, stdout in zip(commands, outputs):
        if command.kind != "serve":
            continue
        argv = _without_outputs(command.argv)
        if command.flag("--shards"):
            # the pool-free reference replays the same shard plan
            jobs.append(("shard", command, _with(argv, "--start-method", "inline"), stdout))
            continue
        small = _with(argv, "--requests", str(min(command.requests, VERIFY_REQUESTS)))
        oracle = [t for t in _with(small, "--dispatch", "scan") if t != "--streaming"]
        jobs.append(("oracle", command, small, oracle))
    if not jobs:
        return []
    request = [job[2] for job in jobs] + [job[3] for job in jobs if job[0] == "oracle"]
    (rundir / "inproc.json").write_text(json.dumps(request))
    proc = subprocess.run(
        [sys.executable, str(HERE / "inproc.py"), str(rundir / "inproc.json")],
        capture_output=True, text=True, env=env, cwd=rundir, timeout=INVOCATION_TIMEOUT,
    )
    if proc.returncode != 0:
        return [f"reference runs failed: {proc.stderr.strip()[-400:]}"]
    results = json.loads(proc.stdout.splitlines()[-1])
    fast, oracles = results[:len(jobs)], iter(results[len(jobs):])
    errors = []
    for (mode, command, _, reference), got in zip(jobs, fast):
        label = " ".join(command.argv[:1] + command.argv[2:])
        if got["status"] != 0:
            errors.append(f"{label}: in-process run failed")
            continue
        if mode == "shard":
            if got["stdout"].replace("via inline", "via spawn") != reference:
                errors.append(f"{label}: spawn pool differs from inline shards")
            continue
        want = next(oracles)
        if want["status"] != 0:
            errors.append(f"{label}: scan oracle failed")
            continue
        if "--streaming" not in command.argv:
            if got["stdout"] != want["stdout"]:
                errors.append(f"{label}: fast engine differs from the scan oracle")
            continue
        got_exact, got_lat = _split_latency(got["stdout"])
        want_exact, want_lat = _split_latency(want["stdout"])
        if got_exact != want_exact:
            errors.append(f"{label}: streaming dispatch differs from the scan oracle")
        elif len(got_lat) != len(want_lat) or any(
            abs(g - w) > 0.02 * w for g, w in zip(got_lat, want_lat)
        ):
            errors.append(f"{label}: sketched latencies off the exact ones by >2%")
    return errors


# -- the run --------------------------------------------------------------


def child_env(rundir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # keep every file the program writes (the native kernel build, any
    # cache) inside the run directory
    for name in ("HOME", "TMPDIR", "XDG_CACHE_HOME"):
        env[name] = str(rundir / name.lower())
        os.makedirs(env[name], exist_ok=True)
    return env


def setup(base: Path, speed: SpeedProbe) -> tuple[float, Path, dict]:
    """Time SETUP_REPEATS cold first invocations, each in a fresh run
    directory; the last directory is kept for the timed rounds."""
    times = []
    for i in range(SETUP_REPEATS):
        rundir = base / f"setup{i}"
        start = clock()
        rundir.mkdir(parents=True)
        env = child_env(rundir)
        result = invoke(list(SETUP_ARGV), env, rundir, speed)
        end = clock()
        times.append((end - start) / speed.slowdown(start, end))
        if result.status != 0:
            raise RuntimeError(f"set-up invocation failed: {result.stderr.strip()[-400:]}")
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(rundir)
    return statistics.median(times), rundir, env


def measure(workload: str, seed: int, seconds: float, trace: bool, base: Path) -> dict:
    commands = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    with SpeedProbe() as speed:
        result = _measure(commands, seconds, trace, base, speed)
        slowdown = speed.slowdown(0.0, clock())
    # the conditions the numbers were taken under, for whoever compares them
    print(f"perfbench: python {platform.python_version()}, "
          f"numpy {importlib.metadata.version('numpy')}, {os.cpu_count()} CPUs, "
          f"mean CPU slowdown {slowdown:.3f}", file=sys.stderr)
    return result


def _measure(commands: list[Command], seconds: float, trace: bool, base: Path,
             speed: SpeedProbe) -> dict:
    setup_s, rundir, env = setup(base, speed)
    spans = rundir / "spans.json" if trace else None
    samples: list[list[Result]] = [[] for _ in commands]
    errors: list[str] = []
    failed = 0
    deadline = clock() + seconds
    # cycle through the round; after the first full round, stop at the
    # deadline (every invocation then has at least one sample)
    for attempted in itertools.count():
        i = attempted % len(commands)
        if attempted >= len(commands) and clock() >= deadline:
            break
        command = commands[i]
        result = invoke(command.full_argv(rundir), env, rundir, speed, spans)
        problems = check(command, result, rundir)
        if samples[i] and result.status == 0 and result.stdout != samples[i][0].stdout:
            problems.append("stdout differs from the first round")
        if problems:
            failed += 1
            errors += [f"{' '.join(command.argv)}: {p}" for p in problems]
        samples[i].append(result)
    first = [s[0] for s in samples]
    if all(r.status == 0 for r in first):
        oracle_errors = oracle_checks(commands, [r.stdout for r in first], env, rundir)
        errors += oracle_errors
        failed += bool(oracle_errors)
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)

    def per_command(value) -> list[float]:
        """Median over its samples of ``value(result)``, per command."""
        return [statistics.median(value(r) for r in s) for s in samples]

    if trace:
        requests = sum(c.requests for c in commands)
        layers = {
            name: sum(per_command(lambda r, n=name: r.layers.get(n, 0.0)))
            for name in LAYERS
        }
        metrics = {f"{name}_s": (value, "s") for name, value in layers.items()}
        metrics["dispatch_ns_per_request"] = (layers["dispatch"] / requests * 1e9, "ns")
        for name in RSS_LAYERS:
            growth = per_command(lambda r, n=name: r.layer_rss_mb.get(n, 0.0))
            metrics[f"{name}_rss_mb"] = (max(growth), "MB")
        metrics["traced_round_s"] = (sum(per_command(lambda r: r.wall)), "s")
        metrics["invocations"] = (attempted, "count")
    else:
        metrics = {
            "round_s": (sum(per_command(lambda r: r.wall)), "s"),
            "peak_rss_mb": (max(per_command(lambda r: r.rss_mb)), "MB"),
            "setup_s": (setup_s, "s"),
        }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-run" / f"{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), base)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
