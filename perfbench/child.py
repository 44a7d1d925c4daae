"""One ``finivar run NAME --report -`` process of the cli workload.

    python3 perfbench/child.py NAME MODE

MODE ``measure`` samples the core's speed (``speed.py``), ``trace`` records
spans (``tracer.py``) and ``plain`` does neither, so that a traced run
compares two passes that differ only by tracing.  The report goes to standard
output; the sampler's or tracer's summary goes to standard error, on a line
that starts with ``MARK``.  The exit code is the CLI's.
"""

import os
import sys

MARK = "perfbench-child "
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _exit_code(args: list[str]) -> int:
    import finivar.cli

    try:
        finivar.cli.main(args=args, prog_name="finivar")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main(name: str, mode: str) -> int:
    args = ["run", name, "--report", "-"]
    if mode == "plain":
        return _exit_code(args)
    if mode == "measure":
        import speed

        sampler = speed.Sampler()
        sampler.start()
        try:
            code = _exit_code(args)
        finally:
            sampler.stop()
        summary = sampler.summary()
    elif mode == "trace":
        import finivar.cli  # noqa: F401  (every traced module is loaded)
        import tracer

        recorder = tracer.Tracer()
        recorder.install()
        try:
            with recorder.region("cli.main"):
                code = _exit_code(args)
        finally:
            recorder.uninstall()
        recorder.write(os.path.join(SPANS_DIR, f"cli-{name}.jsonl"))
        summary = recorder.summary()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    import json

    print(MARK + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
