"""One workload process: runs one CLI call in process and reports on it.

    python3 worker.py < job.json

The job is {"argv": [...], "trace": 0 or 1}.  The last stdout line is JSON
with the set-up time (from before `import eprdistill.cli` to the start of
the call), the call's wall time, exit code and stderr, the process's peak
resident set size and, when traced, its spans.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process; an error escaping it counts as exit code 1."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # reported as a failed call, not a crash
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, err.getvalue()


def main() -> None:
    job = json.loads(sys.stdin.read())
    from eprdistill import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.perf_counter() - START
    code, stderr = call_cli(cli, job["argv"])
    seconds = time.perf_counter() - START - setup_s
    print(json.dumps({
        "setup_s": setup_s,
        "seconds": seconds,
        "code": code,
        "stderr": stderr,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else [],
    }))


if __name__ == "__main__":
    main()
