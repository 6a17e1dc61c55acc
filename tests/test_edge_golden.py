"""Golden bytes of the command line's edge: small commands and every error exit.

Each case runs `main` in a directory holding the files of `FILES` and
records its exit code, stdout and stderr byte for byte in
`golden/edge_commands.json`.  The cases cover the stdout of the commands
no other golden file holds, every argument or file that exits 2 and every
refused request that exits 3.  A case is named after its command: the text
before the first `-`.
"""

import argparse
import json
from pathlib import Path

import pytest

from circletree.cli import build_parser, main

GOLDEN_DIR = Path(__file__).with_name("golden")
GOLDEN = GOLDEN_DIR / "edge_commands.json"

# series files, read by relative path from the case's directory
FILES = {
    "A.series": "1 e 1/2\n1 0.1 -1\n1 1 3\n",  # ell = m = 1, natural length 2
    "B.series": "1 2 1\n2 1 -1/2\n",  # ell = m = 2
    "bad.series": "1 0 1/2 extra\n",
    "bad.json": '{"ell": 1',
    "A.json": '{"ell": 1, "m": 1, "max_len": 1, "terms": '
              '[{"channel": 1, "word": "1", "coeff": "2"}]}',  # known to length 1
    "zero-den.series": "1 e 1/0\n",
    "zero-den.json": '{"ell": 1, "m": 1, "max_len": 0, "terms": '
                     '[{"channel": 1, "word": "e", "coeff": "3/0"}]}',
    "latin1.series": b"1 e 1\xff\n",  # not UTF-8
    "huge-exp.series": "1 e 1e5000\n",  # 10^5000 has more digits than str() may print
    "huge-exp.json": '{"ell": 1, "m": 1, "max_len": 0, "terms": '
                     '[{"channel": 1, "word": "e", "coeff": "1e5000"}]}',
    "past-limit.series": "1 e 1e4300\n",  # parses; its inverse has one digit too many
    "row.series": "1 1 1\n",  # ell = 1; m = 2 under --m 2
    "square.series": "1 e 1\n2 2 1\n",  # ell = m = 2
}

TWO_SERIES = ["A.series", "A.series"]

CASES = {
    # stdout of the small commands
    "shuffle": ["shuffle", "0.1", "2", "--m", "2"],
    "degree-word": ["degree", "--word", "0.1.2"],
    "degree-rct": ["degree", "--rct", "2:0.1", "--m", "2"],
    "subsets": ["subsets", "--rct", "1:1.0.2.0", "--m", "2"],
    "extractions": ["extractions", "--rct", "1:0.1.0", "--m", "2"],
    "extractions-all": ["extractions", "--rct", "1:0.0.1", "--m", "1", "--all"],
    "extractions-include-trivial": ["extractions", "--rct", "1:0.1.0", "--m", "2",
                                    "--include-trivial"],
    "coproduct": ["coproduct", "--rct", "1:0.0", "--m", "1"],
    "coproduct-reduced": ["coproduct", "--rct", "1:0.0", "--m", "1", "--reduced"],
    "coproduct-linearized": ["coproduct", "--rct", "1:0.0", "--m", "1", "--linearized"],
    "prelie": ["prelie", "--left", "1:0.2", "--right", "2:1", "--m", "2"],
    "compose-text-cut-at-maxlen": ["compose", *TWO_SERIES, "--maxlen", "1"],  # cuts word 0.1
    # exit 2: a malformed argument or file
    "shuffle-bad-word": ["shuffle", "0.x", "1", "--m", "1"],
    "shuffle-letter-above-m": ["shuffle", "0.1", "3", "--m", "2"],
    "degree-bad-word": ["degree", "--word", "0.y"],
    "degree-label-zero": ["degree", "--rct", "0:e"],
    "subsets-malformed-root": ["subsets", "--rct", "x:e", "--m", "1"],
    "subsets-root-above-m": ["subsets", "--rct", "3:0", "--m", "2"],
    "prelie-bad-left": ["prelie", "--left", "x:e", "--right", "1:e", "--m", "1"],
    "prelie-bad-right": ["prelie", "--left", "1:e", "--right", "1:7", "--m", "1"],
    "compose-unparsable-text": ["compose", "bad.series", "A.series"],
    "compose-unparsable-json": ["compose", "bad.json", "bad.json", "--format", "json"],
    "compose-missing-file": ["compose", "missing.series", "A.series"],
    "compose-stdin-twice": ["compose", "-", "-"],
    "compose-negative-maxlen": ["compose", *TWO_SERIES, "--maxlen", "-1"],
    "convolve-negative-maxlen-json": ["convolve", "A.json", "A.json", "--format", "json",
                                      "--maxlen", "-1", "--coordmap", "a[1;1]"],
    "invert-negative-maxlen": ["invert", "A.series", "--maxlen", "-1"],
    "invert-zero-denominator-text": ["invert", "zero-den.series"],
    "invert-zero-denominator-json": ["invert", "zero-den.json", "--format", "json"],
    "invert-not-utf8": ["invert", "latin1.series"],
    "invert-huge-exponent-text": ["invert", "huge-exp.series"],
    "invert-huge-exponent-json": ["invert", "huge-exp.json", "--format", "json"],
    "convolve-malformed-coordmap": ["convolve", *TWO_SERIES, "--coordmap", "b[1;0]"],
    "convolve-coordmap-channel-not-int": ["convolve", *TWO_SERIES, "--coordmap", "a[x;1]"],
    "convolve-coordmap-channel-zero": ["convolve", *TWO_SERIES, "--coordmap", "a[0;1]"],
    "table1-max-degree-2": ["table1", "--max-degree", "2"],
    "numcheck-n-7": ["numcheck", "--kind", "shuffle", "--N", "7"],
    "numcheck-t-0": ["numcheck", "--kind", "shuffle", "--N", "8", "--T", "0"],
    "axioms-max-degree-0": ["axioms", "--max-degree", "0"],
    "axioms-m-0": ["axioms", "--max-degree", "3", "--m", "0"],
    # exit 3: a request the library refuses
    **{f"{product}-shape-mismatch": [product, "A.series", "B.series"]
       for product in ("compose", "modcompose", "hatcompose", "group")},
    "hatcompose-ell-mismatch": ["hatcompose", "row.series", "square.series", "--m", "2"],
    "invert-result-past-digit-limit": ["invert", "past-limit.series", "--maxlen", "0"],
    "invert-json-past-its-maxlen": ["invert", "A.json", "--format", "json", "--maxlen", "3"],
    "group-json-other-m": ["group", "A.json", "A.json", "--format", "json", "--m", "5"],
    "convolve-above-alphabet": ["convolve", *TWO_SERIES, "--coordmap", "a[1;5]"],
    "convolve-past-truncation": ["convolve", *TWO_SERIES, "--coordmap", "a[1;0.1.1]"],
}


def run_case(case: str, directory: Path, capsys, monkeypatch) -> dict:
    for name, content in FILES.items():
        (directory / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    monkeypatch.chdir(directory)
    code = main(CASES[case])
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("case", sorted(CASES))
def test_edge_command_bytes_are_golden(case, tmp_path, capsys, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[case]
    assert run_case(case, tmp_path, capsys, monkeypatch) == expected


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_every_command_has_golden_bytes():
    """A new subcommand lands with golden bytes.  `numcheck` is exempt: its
    deviations are numpy float sums, and the `test_numcheck_*` tests pin
    them instead."""
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    covered = {case.split("-", 1)[0] for path in GOLDEN_DIR.glob("*.json")
               for case in json.loads(path.read_text())}
    assert set(commands) - covered <= {"numcheck"}
