"""Records the reference answers of every workload on the default seed.

Usage: python3 bench/record.py

Runs one pass of each workload on the default seed and writes
``reference.json``: the digest of every arena file, and per query its exit
code, its answer fields and the digest of its stdout.  Run it only on a
commit whose answers are trusted; the benchmark then checks every later
commit against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import arenas
import check
import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {"arena_digests": {}, "queries": {}}
    try:
        for workload in WORKLOADS:
            files = run.write_arenas(workload, arenas.DEFAULT_SEED, workdir)
            for name, path in files.items():
                reference["arena_digests"][name] = arenas.digest(
                    path.read_text(encoding="utf-8"))
            games = run.load_games(workload, files)
            entries = {}
            for query, result, payload in run.run_pass(
                    workload, files, workdir, False, env, 0):
                problems = check.check_result(query, result, None, True,
                                              games[query.game()])
                if problems:
                    print(f"{query.label}: {problems}", file=sys.stderr)
                    return 1
                entries[query.label] = {
                    "code": result["code"],
                    "answers": check.answers(payload),
                    "stdout_sha256": check.stdout_digest(result["stdout"]),
                }
            reference["queries"][workload] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
