"""Smoke test of the output-parity tool, `tools/parity.py`."""
import re
import subprocess
import sys
from pathlib import Path

PARITY = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


def test_parity_prints_one_stable_digest_per_workload_and_seed():
    runs = [subprocess.run([sys.executable, str(PARITY), "--seeds", "1", "--workloads", "capacity"],
                           capture_output=True, text=True, timeout=120) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2
        assert re.fullmatch(r"capacity seed=1 jobs=\d+ messages=\d+ scalars=\d+ sha256=[0-9a-f]{64}",
                            lines[0])
        assert re.fullmatch(r"all sha256=[0-9a-f]{64}", lines[1])
    assert runs[0].stdout == runs[1].stdout
