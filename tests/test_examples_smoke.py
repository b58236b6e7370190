"""Smoke tests keeping the example scripts honest: each must run to
completion (with small parameters where the script accepts them) and
print its headline output."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 120.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "sum reduce          : 55" in out
        assert "counts scan (ranks) : [1, 1, 2, 1, 1, 1, 2, 1, 3, 2]" in out
        assert "range (DSL)" in out

    def test_rsmpi_preprocessor_demo(self):
        out = run_example("rsmpi_preprocessor_demo.py")
        assert "def ident(s):" in out  # shows generated code
        assert "sorted(0..999) over 8 ranks  : 1" in out
        assert "[1, 1, 2, 1, 1, 1, 2, 1, 3, 2]" in out

    def test_nas_is_demo_small(self):
        out = run_example("nas_is_demo.py", "S", "4")
        assert out.count("sorted") >= 2
        assert "NOT sorted" in out  # the commutative mis-verification

    def test_nas_mg_demo_small(self):
        out = run_example("nas_mg_zran3_demo.py", "S", "4")
        assert "F+MPI   :  40 reductions" in out
        assert "F+RSMPI :   1 reduction" in out

    def test_nas_ep_demo_small(self):
        out = run_example("nas_ep_demo.py", "S", "4")
        assert "3 reductions" in out and "1 reduction," in out
        assert "pi/4" in out

    def test_cg_demo_small(self):
        out = run_example("cg_solver_demo.py", "4096", "4")
        assert "fused speedup" in out
        assert "aggregate utilization" in out

    def test_particle_octants(self):
        out = run_example("particle_octants.py", timeout=300)
        assert "octant populations" in out
        assert "dense: True" in out

    def test_scan_algorithms(self):
        out = run_example("scan_algorithms_demo.py", timeout=300)
        assert "globally sorted = True" in out

    def test_summed_area_table(self):
        out = run_example("summed_area_table.py", "512", "256")
        assert "MISMATCH" not in out
        assert out.count("ok") >= 5


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "3"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sum reduce        : 55" in proc.stdout
        assert "mink(3)           : [3, 3, 2]" in proc.stdout
