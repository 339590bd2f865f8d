import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import spadmark

FAILING_THEN_PASSING = textwrap.dedent("""\
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        pass
    """)


def test_failing_given_test_does_not_end_session(tmp_path):
    # With warnings as errors, hypothesis's failure report used to end the
    # session with an INTERNALERROR at the first failing @given test, so no
    # later test ran. The suite's conftest, under the suite's warning filter.
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    src = str(Path(spadmark.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
