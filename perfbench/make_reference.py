"""Write perfbench/reference.json: the SHA-256 of each benchmark command's stdout.

Usage, from the repository root:
    python3 perfbench/make_reference.py

The digests pin the outputs of the commit they were made at; the benchmark
counts any later difference as a failed command.  Outputs are meant to stay
bit-identical, so regenerate only for a deliberate change of output, and say
so.  Refuses to write if any other check (exit code, anchors, leading terms,
series-versus-table cross-check) fails.
"""

import json
import sys
from pathlib import Path

from run import HERE, WORKLOADS, reference_key, run_pass


def main() -> int:
    digests = {}
    for name, specs in WORKLOADS.items():
        report = run_pass(Path.cwd(), specs, trace=False)
        for cmd in report["commands"]:
            others = [p for p in cmd["problems"] if "reference digest" not in p]
            if others:
                print(f"{name}: {reference_key(cmd['argv'])}: {others}", file=sys.stderr)
                return 1
            digests[reference_key(cmd["argv"])] = cmd["sha256"]
    (HERE / "reference.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
