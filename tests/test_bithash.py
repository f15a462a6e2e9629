"""tools/bithash.py: every toy case prints the same hash on every run."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bithash.py"


def test_toy_cases_hash_the_same_twice(capsys):
    spec = importlib.util.spec_from_file_location("bithash", TOOL)
    bithash = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bithash)
    toy = [name for name in bithash.CASES if name.startswith("toy_")]
    outs = []
    for _ in range(2):
        assert bithash.main(toy) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = [line.split() for line in outs[0].splitlines()]
    assert [name for name, _ in lines] == toy
    assert len({digest for _, digest in lines}) == len(toy) == 6
