"""One experiment in a fresh process: import the CLI, run it, report timings.

    python3 child.py RESULT.json --import-only
    python3 child.py RESULT.json [--trace SPANS.json] -- <rdlab CLI arguments>

The parent puts the repository's `src` on PYTHONPATH and sets RDLAB_THREADS.
RESULT.json receives setup_s (import of `rdlab.cli` and its numerics stack),
wall_s (entering `main` to its return), the exit code or the exception, and
the process's CPU time and peak RSS. With --trace, spans around every call
into the traced layers are written to SPANS.json.
"""
import json
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> None:
    result_path, rest = argv[0], argv[1:]
    # only the standard library is loaded so far, so setup_s covers
    # importing numpy, scipy and every rdlab module
    start = time.perf_counter()
    import rdlab.cli

    result = {"setup_s": time.perf_counter() - start}
    if rest != ["--import-only"]:
        tracer = spans_path = None
        if rest[0] == "--trace":
            import tracing

            spans_path, rest = rest[1], rest[2:]
            tracer = tracing.Tracer()
            tracing.install(tracer)
        cli_args = rest[rest.index("--") + 1:]
        run = rdlab.cli.main if tracer is None else tracer.span("cli.main", rdlab.cli.main)
        start = time.perf_counter()
        try:
            result["rc"] = run(cli_args)
        except SystemExit as exc:  # argparse usage errors
            result["rc"] = exc.code
        except Exception:
            result["error"] = traceback.format_exc()
            sys.stderr.write(result["error"])
        result["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
