"""Run several ``versal-gemm`` invocations in one interpreter.

    python3 perfbench/inproc.py ARGV_LISTS.json

Reads a JSON list of argument lists, calls ``repro.cli.main`` on each
in order and prints, as the last stdout line, a JSON list of
``{"status": int, "stdout": str}``.  The benchmark uses it for its
reference runs (scan oracle, pool-free shards) after the timed rounds,
so they pay the import once.
"""

import contextlib
import io
import json
import sys


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        argv_lists = json.load(handle)
    import repro.cli

    results = []
    for argv in argv_lists:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = repro.cli.main(argv)
        results.append({"status": status, "stdout": out.getvalue()})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
