"""Run one ``isomers`` CLI request under the layer tracer.

    PYTHONPATH=src python3 perfbench/trace_child.py TRACE_OUT ARGV...

Times ``import isomers.cli`` in this fresh interpreter, wraps the traced
layers, calls ``isomers.cli.main(ARGV)`` and writes the spans and counters
to TRACE_OUT as JSON.  Stdout and the exit code are the request's own.
"""

import sys
from time import perf_counter

start = perf_counter()
import isomers.cli  # noqa: E402

import_s = perf_counter() - start

from spans import Recorder, install  # noqa: E402


def run(out_path: str, argv: list[str]) -> int:
    rec = Recorder()
    install(rec)
    try:
        return isomers.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(out_path, import_s)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
