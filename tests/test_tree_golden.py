"""Golden stdout of the tree commands.

`stats` with both methods and `antipode` with its three methods run on
fixed trees at m=1 and m=2, then `table1`, a small `axioms` sweep and
`invert` asked for a length above the natural length of its input file;
each stdout is compared byte for byte with `golden/tree_commands.json`.
"""

import json
from pathlib import Path

import pytest

from circletree.cli import main

GOLDEN = Path(__file__).with_name("golden") / "tree_commands.json"

# (tree, m) of the stats cases; the first four also run `antipode`
TREES = [("1:0.0.0", 1), ("1:0.1.0", 1), ("1:1.0.0.1", 1),
         ("1:0.0.1.0", 2), ("2:0.1.0.2", 2), ("1:2.0.0", 2)]

# series files for `invert`, read as text at their natural length
INVERT_INPUTS = {
    "m1": ("1 e 1/2\n1 0.1 -1\n1 1 3\n", ["--ell", "1", "--m", "1", "--maxlen", "5"]),
    "m2": ("1 1 1\n2 2 1\n1 0 -2/3\n", ["--ell", "2", "--m", "2", "--maxlen", "4"]),
}

CASES = {
    **{f"stats-{method}-{rct}-m{m}": ["stats", "--rct", rct, "--m", str(m), "--method", method]
       for rct, m in TREES for method in ("recursive_left", "forest")},
    **{f"antipode-{method}-{rct}-m{m}": ["antipode", "--rct", rct, "--m", str(m),
                                         "--method", method]
       for rct, m in TREES[:4] for method in ("left", "right", "forest")},
    "table1-15": ["table1", "--max-degree", "15"],
    "axioms-5-m2": ["axioms", "--max-degree", "5", "--m", "2"],
    **{f"invert-{name}": ["invert"] for name in INVERT_INPUTS},
}


def argv_of(case: str, directory: Path) -> list[str]:
    argv = CASES[case]
    if case.startswith("invert-"):
        text, options = INVERT_INPUTS[case.split("-", 1)[1]]
        path = directory / "c.series"
        path.write_text(text)
        return argv + [str(path)] + options
    return argv


@pytest.mark.parametrize("case", sorted(CASES))
def test_tree_command_stdout_is_golden(case, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[case]
    code = main(argv_of(case, tmp_path))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
