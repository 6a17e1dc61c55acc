"""Golden stdout of the series commands.

Every series command runs in text and in `--format json` on fixed m=1 and
m=2 inputs with fractional and negative coefficients, and its stdout is
compared byte for byte with `golden/series_commands.json`.  The JSON
inputs are written from the same term lists by hand, not by the library.
"""

import json
from pathlib import Path

import pytest

from circletree.cli import main

GOLDEN = Path(__file__).with_name("golden") / "series_commands.json"

# (channel, word, coefficient) terms and the shape each input is read at
INPUTS = {
    "m1": {
        "shape": (1, 1, 3),
        "a": [(1, "e", "1/2"), (1, "0", "-2/3"), (1, "1", "3"), (1, "0.1", "1/4"),
              (1, "1.1", "-5/6")],
        "b": [(1, "e", "-1/3"), (1, "1", "1/2"), (1, "0.1", "2"), (1, "1.0", "-3/4")],
        "coordmap": "a[1;1.0.1]",
    },
    "m2": {
        "shape": (2, 2, 3),
        "a": [(1, "e", "1/2"), (1, "1", "-1"), (1, "2.0", "2/3"), (2, "0", "3/4"),
              (2, "1.2", "-1"), (2, "e", "1/5")],
        "b": [(1, "2", "1/3"), (2, "e", "-1/2"), (2, "1", "2"), (1, "0.1", "-3/2"),
              (2, "2.2", "1/7")],
        "coordmap": "a[1;2.0]",
    },
}

COMMANDS = ("compose", "modcompose", "hatcompose", "group", "invert", "convolve")

CASES = [f"{command}-{m}-{fmt}" for command in COMMANDS for m in INPUTS
         for fmt in ("text", "json")]


def write_inputs(directory: Path, m: str, fmt: str) -> list[str]:
    spec = INPUTS[m]
    ell, letters, max_len = spec["shape"]
    paths = []
    for name in ("a", "b"):
        path = directory / f"{m}_{name}.{fmt}"
        if fmt == "text":
            path.write_text("".join(f"{ch} {word} {k}\n" for ch, word, k in spec[name]))
        else:
            path.write_text(json.dumps({
                "ell": ell, "m": letters, "max_len": max_len,
                "terms": [{"channel": ch, "word": word, "coeff": k}
                          for ch, word, k in spec[name]]}))
        paths.append(str(path))
    return paths


def argv_of(case: str, directory: Path) -> list[str]:
    command, m, fmt = case.split("-")
    a, b = write_inputs(directory, m, fmt)
    ell, letters, max_len = INPUTS[m]["shape"]
    argv = [command, a] if command == "invert" else [command, a, b]
    if command == "convolve":
        argv += ["--coordmap", INPUTS[m]["coordmap"]]
    if fmt == "json":
        return argv + ["--format", "json"]
    return argv + ["--ell", str(ell), "--m", str(letters), "--maxlen", str(max_len)]


@pytest.mark.parametrize("case", CASES)
def test_series_command_stdout_is_golden(case, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[case]
    code = main(argv_of(case, tmp_path))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
