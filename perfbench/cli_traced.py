"""Traced stand-in for ``python -m crowdprice.cli`` in the traced cli-cold run.

Usage: cli_traced.py SPAWN_TIME SPANS_OUT <crowdprice CLI arguments...>

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes), so the first span
covers interpreter start.  The CLI's stdout, stderr and exit code pass
through unchanged; the spans go to SPANS_OUT as JSON.
"""

import time

ENTERED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spawned, spans_out, cli_args = float(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src")]
    started = time.perf_counter()
    import crowdprice.cli

    imported = time.perf_counter()
    from tracing import Tracer  # beside this script, so on sys.path

    tracer = Tracer()
    tracer.add("cli.interpreter_start", spawned, ENTERED)
    tracer.add("cli.import_crowdprice", started, imported)
    tracer.install()
    verb = tracer.open("cli.verb")
    code = 0
    try:
        crowdprice.cli.main(args=cli_args, prog_name="crowdprice")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close(verb)
        tracer.uninstall()
    spans_out.write_text(tracer.spans_json(), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
