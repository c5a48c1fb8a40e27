"""The warning filters of ``pyproject.toml``: a deprecation fails the test
that causes it, yet a failing Hypothesis test still reports its example."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pytest(tmp_path, source: str) -> str:
    """The output of pytest, under the repository's settings, on one test file."""
    (tmp_path / "test_it.py").write_text(source, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p",
                           "no:cacheprovider", "test_it.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    return done.stdout + done.stderr


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # Hypothesis's failure report imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated; as an error that warning
    # ended the run in an INTERNALERROR before the example was printed
    out = _pytest(tmp_path, "from hypothesis import given, strategies as st\n\n\n"
                            "@given(st.integers())\n"
                            "def test_fails(x):\n"
                            "    assert x < 3\n")
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out


def test_any_other_deprecation_fails_the_test(tmp_path):
    out = _pytest(tmp_path, "import warnings\n\n\n"
                            "def test_deprecated():\n"
                            "    warnings.warn('old', DeprecationWarning)\n")
    assert "1 failed" in out, out
