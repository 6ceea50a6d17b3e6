"""One pass of a workload, run in a fresh interpreter.

    python3 bench/child.py ROOT TRACE < commands.json

ROOT is the checkout whose src/ holds gcube; TRACE is 0 or 1.  The
commands arrive as a JSON list of argv lists on stdin and run one after
another through gcube.cli.main in this process, with their output
captured.  The last and only line on stdout is a JSON object with the
time import finished, each command's exit code, output and wall time, the
peak resident memory, and with TRACE=1 the recorded spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    root, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import gcube.cli

    imported = time.monotonic()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(gcube.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"gcube imported from {gcube.cli.__file__}, not {src}")
    commands = json.load(sys.stdin)

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = gcube.cli.main(argv)
            except Exception as exc:  # reported as a failed command
                rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        results.append({"rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "seconds": seconds})

    payload = {
        "imported": imported,
        "commands": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["distinct_args"] = {k: len(v) for k, v in tracer.distinct.items()}
        payload["missing_sites"] = tracer.missing
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
