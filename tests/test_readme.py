"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_example_runs(capsys):
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    # it prints the final parameters, the objective and the stop reason
    assert capsys.readouterr().out.rstrip().endswith("StopReason.TOLERANCE_MET")
