"""The ncnperms benchmark: CLI workloads timed end to end, traced per layer.

Usage, from the repository root:
    python3 perfbench/run.py --workload tables-1000 --seed 1 --seconds 40 --trace 0

A closed loop with a single client.  Each pass of a workload is one fresh
Python process (perfbench/child.py) that imports ``ncnperms``, builds the
CLI parser and calls ``ncnperms.cli.main(argv)`` for every command of the
workload, in an order drawn from ``--seed``; the seed changes no input size,
so the stored reference digests always apply.  Passes repeat until
``--seconds`` is spent, and every metric is a median over them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then at least two traced passes, and reports the
per-layer metrics (see perfbench/tracing.py), the tracing overhead, and a
self-test: every traced name is bound, every layer the workload should
exercise records calls, traced stdout equals untraced stdout byte for byte,
and exact counts repeat exactly between the traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (commands run), ``failed`` (commands that exited non-zero,
raised, or printed output differing from the reference) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8  # set-up-only interpreters started before each pass
PASS_TIMEOUT_S = 150

P231_HEAD = [1, 1, 4, 17, 77, 367, 1815, 9233, 48014, 254123, 1364491]
PBAR231_HEAD = [1, 1, 4, 19, 102, 590, 3588, 22617, 146460, 968520]
TOLERANCE = "1/1" + "0" * 30


def command(text: str, **checks) -> dict:
    return {"argv": text.split(), **checks}


def series(which: str, limit: int) -> dict:
    family, head = ("p231", P231_HEAD) if which == "non-nesting" else ("pbar231", PBAR231_HEAD)
    return command(
        f"series {which} -N {limit}", terms="plain", head=head, table=[family, limit]
    )


# Why each workload: tables-1000 spends nearly all its time in the big-integer
# convolution steps at three sizes per discipline; series-400 runs only the
# Fraction Newton solver at three orders; verify-full is dominated by
# enumeration, pattern containment and Word validation, and reaches series and
# recurrences at small sizes through other paths (direct solver, order 20/60).
WORKLOADS = {
    "tables-1000": [
        command("ratio p231 300"),
        command("ratio p231 600"),
        command("seq p231 -N 1000 --format bfile", terms="bfile", head=P231_HEAD),
        command("ratio pbar231 300"),
        command("ratio pbar231 600", prefix="7.79822\n"),
        command("seq pbar231 -N 1000 --format bfile", terms="bfile", head=PBAR231_HEAD),
        command(f"growth non-nesting --tolerance {TOLERANCE}", prefix="6.1801"),
        command(f"growth non-crossing --tolerance {TOLERANCE}", prefix="7.81774"),
    ],
    "series-400": [
        series("non-crossing", 100),
        series("non-crossing", 200),
        series("non-crossing", 400),
        series("non-nesting", 400),
    ],
    "verify-full": [
        command("verify --level quick"),
        command("verify --level full"),
    ],
}

#: Traced names each workload must reach; together they cover every name.
EXERCISED = {
    "tables-1000": (
        "recurrences.nn", "recurrences.nc", "growth.root", "growth.evaluate",
        "growth.ratio", "formats.emit", "cli.main",
    ),
    "series-400": ("series.solve", "series.compose", "cli.main"),
    "verify-full": (
        "recurrences.nn", "recurrences.nc", "recurrences.compositions",
        "series.solve", "series.compose", "series.residual", "enumeration",
        "enumeration.count", "core.word", "patterns.contains", "verify", "cli.main",
    ),
}

def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def reference_key(argv) -> str:
    return " ".join(argv)


def run_pass(root: Path, commands: list[dict], trace: bool) -> dict:
    """One fresh interpreter running ``commands``; returns its report plus
    ``setup_s`` (spawn to parser built) and ``pass_s`` (spawn to exit)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    job = json.dumps({"trace": trace, "commands": commands})
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=job,
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - start
    report["pass_s"] = time.monotonic() - start
    return report


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(root: Path, args, int_max_str_digits: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "int_max_str_digits": int_max_str_digits,
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ncnperms" / "cli.py").is_file():
        print(f"error: no ncnperms sources under {root / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    specs = [
        {**spec, "sha256": reference.get(reference_key(spec["argv"]))}
        for spec in WORKLOADS[args.workload]
    ]
    rng = random.Random(args.seed)
    started = time.monotonic()

    # Set-up probes are spread over the run, so that the host's slow and fast
    # spells weigh on set-up time as they weigh on the passes.  A traced run
    # reports no set-up time and starts none.
    setup: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        iteration_start = time.monotonic()
        if not args.trace:
            setup += [run_pass(root, [], False)["setup_s"] for _ in range(SETUP_PROBES)]
        order = specs[:]
        rng.shuffle(order)
        tracing = bool(args.trace) and bool(untraced)
        report = run_pass(root, order, tracing)
        (traced if tracing else untraced).append(report)
        setup.append(report["setup_s"])
        # Start another pass while it would end at most half a pass after
        # --seconds: a workload of 15-second passes then gets three passes
        # to take the median of in 40 seconds, not two.
        enough = len(traced) >= 2 if args.trace else True
        now = time.monotonic()
        if enough and now - started + (now - iteration_start) / 2 > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(len(p["commands"]) for p in passes)
    failed = 0
    for p in passes:
        for cmd in p["commands"]:
            if cmd["problems"]:
                failed += 1
                print(f"FAIL {reference_key(cmd['argv'])}: {'; '.join(cmd['problems'])}")
    self_test: list[str] = []

    if args.trace:
        units = declared_units("per_layer")
        metrics, self_test = traced_metrics(args.workload, untraced[0], traced, units)
    else:
        units = declared_units("end_to_end")
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "slowest_cmd_s": statistics.median(
                max(c["seconds"] for c in p["commands"]) for p in untraced
            ),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in untraced),
        }
    for problem in self_test:
        print(f"SELF-TEST FAIL: {problem}")

    print("env " + json.dumps(environment(root, args, passes[0]["int_max_str_digits"])))
    print(
        f"passes: {len(untraced)} untraced, {len(traced)} traced; "
        f"{len(setup)} set-up samples; {time.monotonic() - started:.1f} s"
    )
    for name, value in metrics.items():
        note = " (computed)" if units[name].endswith("computed") else ""
        print(f"  {name:34s} {value:>16.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0 and not self_test,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(workload: str, untraced: dict, traced: list[dict], units: dict):
    """Median per-layer metrics over the traced passes, and the self-test."""
    problems = []
    first = traced[0]["layers"]
    for prefix, count in first["bindings"].items():
        if count == 0:
            problems.append(f"{prefix} is bound nowhere")
    for prefix in EXERCISED[workload]:
        if first["calls"][prefix] == 0:
            problems.append(f"{prefix} recorded no call on {workload}")
    expected = {reference_key(c["argv"]): c["sha256"] for c in untraced["commands"]}
    for p in traced:
        for cmd in p["commands"]:
            if cmd["sha256"] != expected[reference_key(cmd["argv"])]:
                problems.append(f"traced stdout differs: {reference_key(cmd['argv'])}")
    exact = [name for name, unit in units.items() if unit in ("count", "count-computed", "bytes")]
    for p in traced[1:]:
        for name in exact:
            if p["layers"]["metrics"][name] != first["metrics"][name]:
                problems.append(
                    f"{name} did not repeat: {first['metrics'][name]} then "
                    f"{p['layers']['metrics'][name]}"
                )
    metrics = {}
    for name in units:
        if name in exact:
            metrics[name] = first["metrics"][name]
        elif name in first["metrics"]:
            metrics[name] = statistics.median(p["layers"]["metrics"][name] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    for name in units.keys() - metrics.keys():
        problems.append(f"{name} is listed in BENCHMARK.json but not measured")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
