"""The measured process: runs sweeps through ``splittrap.cli.main`` in process.

Started by run.py with BLAS pinned to one thread and ``src`` on the path.
It reads one JSON request per line on stdin and answers each with one
JSON line on stdout, after a first ``{"ready": true}`` line once its
imports are done:

    {"op": "sweep", "argv": [...]}  ->  {"rc": 0, "wall_s": 1.93, "cpu_s": 1.92}
    {"op": "finish", "trace": path} ->  {"peak_rss_mb": 97.1, "layers": {...}}

Before each sweep every ``functools`` cache in splittrap is cleared, so a
sweep starts as cold as a new CLI call does, less the imports.
"""

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, install


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "splittrap":
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _run_main(main, argv):
    with contextlib.redirect_stdout(sys.stderr):
        try:
            return main(argv)
        except SystemExit as exc:
            return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the sweep; the run goes on
            traceback.print_exc()
            return -1


def main():
    trace = sys.argv[1:] == ["--trace"]
    src = Path(__file__).resolve().parent.parent / "src"
    from splittrap import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        sys.exit(f"worker: splittrap imported from {cli.__file__}, not {src}")
    tracer = Tracer() if trace else None
    if trace:
        install(tracer)

    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "sweep":
            _clear_caches()
            span = tracer.open("cli.main") if trace else None
            start, cpu = time.perf_counter(), time.process_time()
            rc = _run_main(cli.main, request["argv"])
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            if trace:
                tracer.close(span)
            answer = {"rc": rc, "wall_s": wall, "cpu_s": cpu}
        else:
            answer = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if trace:
                tracer.dump(request["trace"])
                answer["layers"] = tracer.metrics()
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
        if request["op"] == "finish":
            return


if __name__ == "__main__":
    main()
