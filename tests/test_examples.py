"""Smoke tests: the fast example scripts run end to end."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "ui-ua" in out and "mi-ma-ec" in out
    assert "faster than ui-ua" in out


def test_worm_paths():
    out = run_example("worm_paths.py")
    assert out.count("@") >= 2
    assert "fewer worms" in out


def test_figures_small_mesh():
    out = run_example("figures.py", "4")
    assert "Invalidation latency" in out
    assert "occupancy" in out
    assert "o ui-ua" in out


def test_sweep_small_mesh():
    out = run_example("invalidation_latency_sweep.py", "4")
    assert "relative to ui-ua" in out
    assert "sci-chain" in out


def test_iack_ablation():
    out = run_example("iack_buffer_ablation.py")
    assert "iack_buffers" in out
    assert "buffer recommendation" in out


def test_chaos_replay():
    out = run_example("chaos_replay.py")
    assert "signature reproduced" in out
    assert "shrunk:" in out
    assert "protocol-event trail" in out
