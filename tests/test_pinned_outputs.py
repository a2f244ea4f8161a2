"""Every benchmarked command prints exactly the bytes its digest pins.

perfbench/run.py declares the commands of each workload and
perfbench/reference.json the SHA-256 of each one's stdout; both are only
read here.  Each command runs in process through ``cli.main``, as a
benchmark pass runs it, so a changed byte fails the suite, not only the
benchmark."""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ncnperms.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
COMMANDS = [
    perfbench_run.reference_key(spec["argv"])
    for specs in perfbench_run.WORKLOADS.values()
    for spec in specs
]


def test_every_benchmarked_command_has_a_digest():
    assert sorted(COMMANDS) == sorted(REFERENCE)


@pytest.mark.parametrize("command", COMMANDS)
def test_benchmarked_command_prints_its_pinned_output(command):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(command.split()) == 0
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == REFERENCE[command]
