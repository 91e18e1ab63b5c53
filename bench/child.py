"""Runs CLI queries in a fresh interpreter and reports them as one JSON line.

Usage:
    python3 child.py SRC_DIR query TRACE QUERY_ID ARG...
    python3 child.py SRC_DIR setup ARENA_FILE...

``query`` times ``dyncong.cli.run(argv)`` only, so the interpreter start and
the package import do not count; with TRACE=1 the layers are wrapped by
:mod:`tracer` first.  ``setup`` times the cold ``import dyncong.cli`` plus a
``validate`` of every arena file.  Both time the :mod:`calibrate` loop before
the timed work and again after it (once the peak memory has been read), and
report the mean of the two.  The CLI's stdout and stderr are captured and
returned; an exception that escapes ``run`` is returned as a traceback,
never raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import calibrate


def _call(cli, args) -> dict:
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.run(args)
        except Exception:  # the benchmark counts a traceback as a failure
            code = None
            failure = traceback.format_exc()
        elapsed = time.perf_counter() - started
    return {"code": code, "seconds": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "traceback": failure}


def peak_rss_kb() -> int:
    """Peak resident set of this process, from ``VmHWM``.  ``ru_maxrss`` is
    not used: Linux carries it across ``exec``, so it would also count the
    parent's resident set at spawn time."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv) -> int:
    src, mode, rest = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    calibrated = calibrate.seconds()
    started = time.perf_counter()
    import dyncong
    from dyncong import cli
    imported = time.perf_counter() - started

    if mode == "setup":
        checks = [_call(cli, ["validate", "--arena", path]) for path in rest]
        report = {"seconds": imported + sum(c["seconds"] for c in checks),
                  "validate": checks}
    else:
        trace, query_id, args = rest[0] == "1", int(rest[1]), rest[2:]
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer(query_id)
            tracer.install(dyncong)
        report = _call(cli, args)
        report["maxrss_kb"] = peak_rss_kb()
        if tracer is not None:
            report["trace"] = tracer.export()
    report["calibration_s"] = (calibrated + calibrate.seconds()) / 2
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
