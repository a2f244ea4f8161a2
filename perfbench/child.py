"""One pass of a benchmark workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/child.py < job.json

The job is a JSON object ``{"trace": bool, "commands": [spec, ...]}``; each
spec holds an ``argv`` for ``ncnperms.cli.main`` and the checks its stdout
must pass.  The pass imports the package, builds the CLI parser, then runs
the commands in order with stdout captured, and writes one JSON object to
stdout: the monotonic time at which set-up finished, per-command seconds,
exit codes, digests and problems, the peak resident memory, and with
``trace`` the per-layer metrics.
"""

import sys
import time

from ncnperms import cli

cli.build_parser()
READY = time.monotonic()

import hashlib  # noqa: E402  (imported after set-up is timed)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def run_command(argv):
    """Run one CLI command; return (seconds, exit code or error text, stdout)."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception:  # a crash is a failed command, not a failed benchmark
        code = traceback.format_exc().strip().splitlines()[-1]
    return time.perf_counter() - start, code, buffer.getvalue()


def terms_of(text, layout):
    """The printed sequence values; a b-file alternates index and value."""
    tokens = text.split()
    return tokens[1::2] if layout == "bfile" else tokens


def problems_of(spec, code, text):
    """Every way the command's outcome differs from what the spec expects."""
    from ncnperms.recurrences import family_table

    found = []
    if code != 0:
        found.append(f"exit {code!r}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != spec.get("sha256"):
        found.append("stdout differs from the reference digest")
    if "prefix" in spec and not text.startswith(spec["prefix"]):
        found.append(f"stdout {text[:40]!r} does not start with {spec['prefix']!r}")
    if "head" in spec:
        head = [str(v) for v in spec["head"]]
        if terms_of(text, spec["terms"])[: len(head)] != head:
            found.append("leading terms differ from the published head")
    if "table" in spec:
        family, limit = spec["table"]
        expected = [str(v) for v in family_table(family, limit).values]
        if terms_of(text, spec["terms"]) != expected:
            found.append(f"coefficients differ from the {family} table to {limit}")
    return digest, found


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    outcomes = []
    for spec in job["commands"]:
        outcomes.append(run_command(spec["argv"]))
    wall_s = sum(seconds for seconds, _, _ in outcomes)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        layers = {
            "metrics": tracer.metrics(wall_s),
            "calls": {prefix: stat.calls for prefix, stat in tracer.stats.items()},
            "bindings": tracer.bindings,
        }
    # Checks run after timing stops; a traced pass has already taken its
    # metrics, so the table cross-check does not count towards any layer.
    commands = []
    for spec, (seconds, code, text) in zip(job["commands"], outcomes):
        digest, problems = problems_of(spec, code, text)
        commands.append(
            {"argv": spec["argv"], "seconds": seconds, "sha256": digest, "problems": problems}
        )
    json.dump(
        {
            "ready": READY,
            "wall_s": wall_s,
            "peak_rss_kb": peak_rss_kb,
            "commands": commands,
            "layers": layers,
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
