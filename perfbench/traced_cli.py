"""Traced CLI run: ``traced_cli.py REPORT_PATH SPANS_PATH -- <xrlayout args>``.

Imports xrlayout, installs the tracer, runs ``xrlayout.cli.main`` with the
given arguments in this process, then writes the per-layer report (JSON) and
the spans (JSON lines).  Exits with the CLI's exit code.
"""

import json
import sys

import tracer as tracing

import xrlayout.cli


def main(argv: list[str]) -> int:
    report_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: traced_cli.py REPORT_PATH SPANS_PATH -- ARGS...", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "cli:" + " ".join(cli_args)
    try:
        code = xrlayout.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    tracing.write_spans(spans_path, tracer.span_records())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
