import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    # the README's one python block, run as a reader would paste it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # at t = 50 the flow has reached the q_r = 1 equilibrium
    assert 0.0 <= float(capsys.readouterr().out) < 1e-6
