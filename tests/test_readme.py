import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_prints_what_its_comments_say():
    [example] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["20", "True", "(0, 2)"]
