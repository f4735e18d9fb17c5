"""Run one CLI job with spans recorded around the program's public functions.

Usage: ``python perfbench/trace_job.py SPANS.json -- <cli arguments>``
with the package on ``PYTHONPATH``.  Standard output and the exit code
are the CLI's own; the spans, the import time of ``clusterscatter.cli``
and the call counts are written to ``SPANS.json`` when the job ends.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_job.py SPANS.json -- <cli arguments>")
    t0 = time.perf_counter()
    import clusterscatter.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
