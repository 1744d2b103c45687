"""One ``excursions`` command-line job in a fresh process.

    python3 child.py MARK [--spans FILE] SUBCOMMAND ARGS...

Equivalent to ``python -m excursions.cli SUBCOMMAND ARGS...``, except that
it writes to MARK the ``time.perf_counter()`` reading (CLOCK_MONOTONIC,
shared by all processes) taken once ``excursions.cli`` has been imported,
which ends the job's set-up.  With ``--spans`` the job runs under the
tracer and its spans are written to FILE.
"""

import sys
import time


def main() -> int:
    mark, args = sys.argv[1], sys.argv[2:]
    spans = None
    if args[:1] == ["--spans"]:
        spans, args = args[1], args[2:]

    import excursions.cli as cli

    ready = time.perf_counter()
    with open(mark, "w") as fh:
        fh.write(repr(ready))
    if spans is None:
        return cli.run(args)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_root(cli.run, args)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
