"""Run ``mssim.cli.main`` once with the benchmark's tracer installed.

Usage: python3 bench/traced_cli.py MODE TRACE_JSON CLI_ARG...

MODE is ``layers`` (every layer) or ``pool`` (only the passage plan and the
worker pool). The CSV goes to stdout exactly as from ``mssim``; the
aggregated spans and counters go to TRACE_JSON.
"""

import json
import sys
import time

import tracer


def main():
    mode, out_path, *argv = sys.argv[1:]
    start = time.perf_counter()
    import mssim.cli

    import_s = time.perf_counter() - start
    tr = tracer.Tracer()
    tracer.install(tr, mode)
    code = 2
    try:
        code = tr.call("cli.main", mssim.cli.main, (argv,))
    except SystemExit as exc:
        code = exc.code
    finally:
        tr.restore()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tr.to_json(), import_s=import_s, mode=mode), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
