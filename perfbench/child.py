"""One resetlb CLI invocation, instrumented from outside.

    python3 child.py REPORT_JSON [--trace SPANS_JSON | --setup-only] -- <resetlb CLI arguments>

Runs ``resetlb.cli.main`` exactly as ``python -m resetlb.cli`` would and
exits with its code.  ``resetlb.cli.parse_config`` is wrapped to stamp the
system-wide monotonic clock when it returns; the parent subtracts its own
stamp taken before spawning this process, which gives the set-up time
(interpreter start, imports, config parsing with its validation build).
``--setup-only`` stops the process right there, to sample set-up time
cheaply.  With ``--trace`` the library layers are traced (see ``tracer.py``), the
per-layer summary goes into the report and the spans into SPANS_JSON.
"""

import json
import sys
import time


class SetupDone(Exception):
    """Raised out of parse_config to end a --setup-only probe."""


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1 :]
    report_path = opts[0]
    spans_path = opts[2] if opts[1:2] == ["--trace"] else None
    setup_only = opts[1:] == ["--setup-only"]

    import resetlb.cli as cli

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.install()

    stamps = {}
    parse = cli.parse_config

    def stamped_parse(*args, **kwargs):
        cfg = parse(*args, **kwargs)
        stamps["parse_end"] = time.monotonic()
        if setup_only:
            raise SetupDone
        return cfg

    cli.parse_config = stamped_parse
    if setup_only:
        try:
            code = cli.main(cli_argv)
        except SetupDone:
            code = 0
    elif tracer is None:
        code = cli.main(cli_argv)
    else:
        code = tracer.call(tracing.ROOT_SPAN, cli.main, (cli_argv,), {})
    stamps["main_end"] = time.monotonic()

    report = {"exit": code, **stamps}
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.dump(spans_path)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
