"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # on a failure, hypothesis imports libcst, whose mypy_extensions import
    # warns; under "error" alone that warning ended the run with
    # INTERNALERROR before the later tests ran
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
