"""Benchmark of the circletree library and command line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is taken from `src/` next to this directory.
Workloads (all closed loops: one caller, one operation at a time, each job
in a fresh single-threaded interpreter, so no memo table survives between
jobs):

* antipode-sweep: the paper's Table-1 ladder of all-white m=1 trees of
  degree 3 to 13 plus a seeded sample of m=2 mixed-letter trees of degree
  9 and 10, through extraction enumeration, coproduct and every antipode
  route on the tree and coordinate-map sides.  A few deep trees.
* feedback-group: seeded square m=2 series through the composition
  products, group associativity, group inversion, character convolution
  and the numeric group identity.  Series-level layers; trees and hopf are
  bypassed.
* cli-session: the `circletree` command line, one fresh process per
  command, on seeded input files.  Cold start dominates the small
  commands; `axioms` sweeps many small trees.

The seed fixes every generated input.  Jobs repeat until the next one would
overrun `--seconds` (at least one runs), and each metric is the median over
the jobs of the run.  After every job a fresh process runs a fixed pass of
pure-Python work (bench/calibrate.py); job_s and setup_s are scaled by
CALIBRATION_REF_S over the run's median pass time, so they read as times on
the reference host and minute-long drifts of a shared host's speed cancel.
Every output is checked after its job, outside the timed region;
`attempted` and `failed` count those checks.

--trace 0 prints the end-to-end metrics:
  job_s        wall time of the workload's timed call sequence (scaled)
  setup_s      fresh interpreter to first timed call (scaled; import + input
               parsing), measured on extra set-up-only processes too; on
               cli-session, the wall time of the trivial `shuffle` calls
  peak_rss_mb  peak resident memory of the job process (cli-session: the
               largest over the session's processes)
--trace 1 alternates untraced and traced jobs and prints the per-layer
metrics: summed wall time (`.s`) and calls (`.calls`) of the benchmark's
calls into each library function or CLI command, term counts of that work,
and trace.overhead_s (traced minus untraced job_s).  Layers a workload does
not reach read 0.  Metric names and units come from BENCHMARK.json.

The last line of stdout is the JSON result; the lines before it summarise
each metric as median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable
RUN_LIMIT_S = 170  # the whole run must end within 180 s
SETUP_PROBES = 3
# About the median wall time of a bench/calibrate.py pass on the host that
# recorded bench/baseline.json; end-to-end times are reported at its speed.
CALIBRATION_REF_S = 0.45

# Distinct antipode terms of the all-white m=1 trees of degree 3, 5, ..., 15
# (Table 1 of the paper).
TABLE1 = (2, 6, 17, 50, 139, 390, 1059)


# ---------------------------------------------------------------------------
# child processes


class Child:
    """A finished child process: timing, exit code, peak RSS and output."""

    def __init__(self, argv, env, work: Path):
        out_path, err_path = work / "child.out", work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            _running.append(proc)
            # wait4 reaps this child alone, so ru_maxrss is its own peak
            # (RUSAGE_CHILDREN would report the largest child so far).
            _pid, status, usage = os.wait4(proc.pid, 0)
            self.wall = perf_counter() - self.start
            proc.returncode = os.waitstatus_to_exitcode(status)
            _running.remove(proc)
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes().decode(errors="replace")


_running: list[subprocess.Popen] = []


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    # A stray CIRCLETREE_MEMO=off makes the deep-tree runs more than 10x slower.
    for name in ("CIRCLETREE_MEMO", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(extra or {})
    return env


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def repeat(run_one, work: Path, seconds: float, minimum: int) -> float:
    """Call run_one(i), each time followed by a calibration pass, until the
    next pair would end past `seconds`.  Returns the run's time scale: the
    reference pass time over the run's median pass time."""
    start = perf_counter()
    passes = []
    while True:
        run_one(len(passes))
        child = Child([PYTHON, str(BENCH / "calibrate.py")], child_env(), work)
        if child.code != 0:
            raise RuntimeError(f"calibration pass exited {child.code}:\n{child.stderr[-2000:]}")
        passes.append(json.loads(child.stdout))
        elapsed = perf_counter() - start
        if len(passes) >= minimum and elapsed + elapsed / len(passes) > seconds:
            break
    median = statistics.median(passes)
    print(f"calibration pass: median {median:.6g} s (n={len(passes)}); "
          f"times are scaled by {CALIBRATION_REF_S} / {median:.6g}")
    return CALIBRATION_REF_S / median


# ---------------------------------------------------------------------------
# seeded inputs


COEFFS = [Fraction(n, d) for n in (1, -1, 2, -2) for d in (1, 2)]
SMALL_COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
# (x_0 positions, length) of the word of each term of a channel.  Fixing the
# x_0 positions fixes which factors a product shuffles in, so its term counts
# depend little on the seed, which picks the other letters and coefficients.
SERIES_SHAPES = [(set(), 0), (set(), 1), ({1}, 1), ({1}, 2), (set(), 2), ({2}, 3)]
# Short words keep the group product exact at length 6, so the numeric
# identity gap is pure quadrature error.
NUMERIC_SHAPES = [(set(), 0), (set(), 1), ({1}, 1), ({1}, 2)]


def fmt_word(word) -> str:
    return ".".join(map(str, word)) if word else "e"


def fmt_q(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def seeded_word(rng, whites, length: int, m: int = 2) -> tuple:
    """A word with x_0 at the given positions (from 1) and seeded letters elsewhere."""
    return tuple(0 if p in whites else rng.randint(1, m) for p in range(1, length + 1))


def random_tree(rng, whites, length: int, m: int = 2) -> str:
    """An m=2 tree with x_0 at the given positions and seeded black letters and root."""
    word = seeded_word(rng, whites, length, m)
    return f"{rng.randint(1, m)}:{fmt_word(word)}"


def write_series(work: Path, stem: str, rng, max_len: int, shapes, coeffs) -> None:
    terms = [(ch, seeded_word(rng, whites, n), rng.choice(coeffs))
             for ch in (1, 2) for whites, n in shapes]
    (work / f"{stem}.series").write_text(
        "".join(f"{ch} {fmt_word(w)} {fmt_q(v)}\n" for ch, w, v in terms))
    doc = {"ell": 2, "m": 2, "max_len": max_len, "terms": [
        {"channel": ch, "word": fmt_word(w), "coeff": fmt_q(v)} for ch, w, v in terms]}
    (work / f"{stem}.json").write_text(json.dumps(doc))


# White positions of the m=2 sample: three x_0 letters in words of length 5
# (degree 9) and 6 (degree 10).  Fixing them fixes the extraction families,
# so the work (and peak memory) hardly depends on the seed.
SAMPLE_WHITES = [({1, 2, 3}, 5), ({1, 2, 4}, 5), ({1, 3, 5}, 5), ({1, 4, 5}, 5),
                 ({1, 2, 3}, 6), ({1, 2, 5}, 6), ({1, 3, 6}, 6), ({1, 4, 5}, 6)]


def make_sweep_inputs(rng, work: Path) -> None:
    ladder = [f"1 1:{fmt_word((0,) * k)}" for k in range(1, 7)]
    sample = [f"2 {random_tree(rng, whites, length)}" for whites, length in SAMPLE_WHITES]
    (work / "trees.txt").write_text("\n".join(ladder + sample) + "\n")


def make_feedback_inputs(rng, work: Path) -> None:
    manifest = {}
    for key, max_len, count, shapes, coeffs in (
            # Three consecutive triples.  The cost of a group product moves
            # with the seeded letters and coefficients; that of an inverse
            # hardly does, so inverses carry half the job.
            ("group", 6, 5, SERIES_SHAPES, COEFFS),
            ("invert", 4, 12, SERIES_SHAPES, COEFFS),
            ("numeric", 6, 6, NUMERIC_SHAPES, SMALL_COEFFS)):  # three (c, d) pairs
        manifest[key] = [max_len, [f"{key}{i}" for i in range(count)]]
        for stem in manifest[key][1]:
            write_series(work, stem, rng, max_len, shapes, coeffs)
    (work / "manifest.json").write_text(json.dumps(manifest))


def make_cli_inputs(rng, work: Path) -> list[tuple[str, list[str]]]:
    """Seeded input files and the session's command lines, in order."""
    for stem in ("A", "B"):
        write_series(work, stem, rng, 6, SERIES_SHAPES, COEFFS)
    a, b = str(work / "A.series"), str(work / "B.series")
    shape = ["--ell", "2", "--m", "2", "--maxlen", "6"]
    tree = random_tree(rng, {1, 3}, 5)  # degree 8
    shuffles = [["shuffle", fmt_word(seeded_word(rng, {2}, 3)), fmt_word(seeded_word(rng, {1}, 3)),
                 "--m", "2"] for _ in range(3)]
    coordmap = f"a[{rng.randint(1, 2)};{fmt_word(seeded_word(rng, {3}, 3))}]"
    plan = shuffles + [
        ["subsets", "--rct", tree, "--m", "2"],
        ["extractions", "--rct", tree, "--m", "2", "--all"],
        ["coproduct", "--rct", tree, "--m", "2"],
        ["antipode", "--rct", tree, "--m", "2", "--method", "forest"],
        ["stats", "--rct", tree, "--m", "2"],
        ["prelie", "--left", random_tree(rng, {1}, 4), "--right", random_tree(rng, {2}, 2),
         "--m", "2"],
        ["compose", a, b, *shape],
        ["group", a, b, *shape],
        ["invert", a, "--ell", "2", "--m", "2", "--maxlen", "4"],
        ["convolve", a, b, *shape, "--coordmap", coordmap],
        ["numcheck", "--kind", "group"],
        ["table1", "--max-degree", "13"],
        ["axioms", "--max-degree", "7", "--m", "2"],
        shuffles[0],  # repeated: must give identical bytes
    ]
    return [(argv[0], argv) for argv in plan]


# ---------------------------------------------------------------------------
# library workloads


def run_library(workload: str, work: Path, seconds: float, trace: bool, tally: Tally):
    base = [PYTHON, str(BENCH / "worker.py"), workload, str(work)]
    env = child_env()

    def spawn(*flags):
        child = Child(base + list(flags), env, work)
        if child.code != 0:
            raise RuntimeError(f"{workload} worker exited {child.code}:\n{child.stderr[-2000:]}")
        return child, json.loads(child.stdout.splitlines()[-1])

    spawn("--setup-only")  # untimed: leaves bytecode caches behind
    setup = []
    for _ in range(SETUP_PROBES):
        child, report = spawn("--setup-only")
        setup.append(report["start"] - child.start)

    jobs = {False: [], True: []}

    def one(i):
        traced = trace and i % 2 == 1
        child, report = spawn(*(["--trace"] if traced else []))
        if not traced:
            setup.append(report["start"] - child.start)
        sys.stderr.write(child.stderr)  # names the failed checks, if any
        tally.attempted += report["attempted"]
        tally.failed += report["failed"]
        jobs[traced].append((report, child.rss_mb))

    scale = repeat(one, work, seconds, 2 if trace else 1)
    plain = jobs[False]
    job_s = [report["job_s"] for report, _ in plain]
    if not trace:
        return {"job_s": [t * scale for t in job_s], "setup_s": [t * scale for t in setup],
                "peak_rss_mb": [rss for _, rss in plain]}

    traced = [report for report, _ in jobs[True]]
    for report in traced[1:]:
        tally.expect(report["counts"] == traced[0]["counts"]
                     and report["spans"].keys() == traced[0]["spans"].keys(),
                     "term counts repeat exactly")
    layer = {name: [value] for name, value in traced[0]["counts"].items()}
    for name, (_s, calls) in traced[0]["spans"].items():
        layer[f"{name}.calls"] = [calls]
        layer[f"{name}.s"] = [r["spans"][name][0] for r in traced]
    layer["trace.overhead_s"] = [statistics.median(r["job_s"] for r in traced)
                                 - statistics.median(job_s)]
    return layer


# ---------------------------------------------------------------------------
# cli-session


def run_cli(plan, work: Path, seconds: float, trace: bool, tally: Tally):
    entry = [PYTHON, str(BENCH / "cli_entry.py")]
    spans_path = work / "spans.json"
    env, traced_env = child_env(), child_env({"BENCH_SPANS": str(spans_path)})
    Child(entry + plan[0][1], env, work)  # untimed: leaves bytecode caches behind
    sessions = {False: [], True: []}

    def one(i):
        traced = trace and i % 2 == 1
        start = perf_counter()
        calls = [(name, Child(entry + argv, traced_env if traced and name == "prelie" else env,
                              work))
                 for name, argv in plan]
        wall = perf_counter() - start
        span = json.loads(spans_path.read_text()) if traced else None
        sessions[traced].append((wall, calls, span))

    scale = repeat(one, work, seconds, 2 if trace else 1)

    first = sessions[False][0][1]
    for _wall, calls, _span in sessions[False] + sessions[True]:
        for (name, child), (_name, reference) in zip(calls, first):
            tally.expect(child.code == 0, f"circletree {name} exits 0 (got {child.code}: "
                                          f"{child.stderr.strip()[-300:]})")
            tally.expect(child.stdout == reference.stdout, f"circletree {name} repeats its bytes")
    tally.expect(first[-1][1].stdout == first[0][1].stdout,
                 "a repeated shuffle call inside one session gives identical bytes")
    check_cli_outputs(plan, [child.stdout.decode() for _name, child in first], tally)

    plain = sessions[False]
    job_s = [wall for wall, _c, _s in plain]
    if not trace:
        return {"job_s": [t * scale for t in job_s],
                "setup_s": [child.wall * scale for _w, calls, _s in plain
                            for name, child in calls if name == "shuffle"],
                "peak_rss_mb": [max(child.rss_mb for _n, child in calls)
                                for _w, calls, _s in plain]}

    layer = {"cli.output_bytes": [sum(len(child.stdout) for _n, child in first)]}
    for _wall, calls, span in sessions[True]:
        for name in dict(plan):
            mine = [child for n, child in calls if n == name]
            layer.setdefault(f"cli.{name}.s", []).append(sum(c.wall for c in mine))
            layer.setdefault(f"cli.{name}.rss_mb", []).append(max(c.rss_mb for c in mine))
        layer.setdefault("prelie.prelie_product.s", []).append(span[0])
        layer["prelie.prelie_product.calls"] = [span[1]]
    layer["trace.overhead_s"] = [statistics.median(w for w, _c, _s in sessions[True])
                                 - statistics.median(job_s)]
    return layer


def check_cli_outputs(plan, texts, tally: Tally) -> None:
    """Parse each command's stdout back and compare it with the library's result."""
    sys.path.insert(0, str(SRC))
    for (name, argv), text in zip(plan, texts):
        try:
            ok = _cli_output_ok(name, argv, text)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            print(f"{name}: {exc!r}", file=sys.stderr)
            ok = False
        tally.expect(ok, f"circletree {' '.join(argv)} agrees with the library")


def _cli_output_ok(name, argv, text) -> bool:
    from circletree import groupops, hopf, prelie, series, trees, words
    from circletree.coordmaps import parse_coord_map
    from circletree.lincomb import parse_rational

    def terms(text, parse_key):
        out = {}
        for line in text.splitlines():
            if line != "0":
                key, value = line.rsplit(" ", 1)
                out[parse_key(key)] = parse_rational(value)
        return out

    def monomial(text):
        return () if text == "1" else tuple(trees.parse_rct(t, 2) for t in text.split("*"))

    def tensor_key(text):
        left, right = text.split(" | ")
        return monomial(left), monomial(right)

    def load(path, max_len):
        return series.parse_series(Path(path).read_text(), 2, 2, max_len)

    lines = text.splitlines()
    if name in {"subsets", "extractions", "coproduct", "antipode", "stats"}:
        tree = trees.parse_rct(argv[2], 2)
    if name == "shuffle":
        u, v = (words.parse_word(w, 2) for w in argv[1:3])
        return terms(text, words.parse_word) == dict(words.shuffle(u, v))
    if name == "subsets":
        return [trees.parse_subset(line) for line in lines] == trees.admissible_subsets(tree)
    if name == "extractions":
        got = [() if line == "empty" else tuple(map(trees.parse_subset, line.split()))
               for line in lines]
        return got == [e.subsets for e in trees.enumerate_all_extractions(tree)]
    if name == "coproduct":
        return terms(text, tensor_key) == dict(hopf.coproduct(tree, 2))
    if name == "antipode":
        # The forest formula printed by the CLI against the right recursion.
        return terms(text, monomial) == dict(hopf.antipode_recursive(tree, 2, "right"))
    if name == "stats":
        record = hopf.antipode_stats(tree, 2, "recursive_left")
        return lines[1].split(",") == [str(record.degree), record.method, str(record.generated),
                                       str(record.distinct), str(record.cancelled_mass)]
    if name == "prelie":
        left, right = trees.parse_rct(argv[2], 2), trees.parse_rct(argv[4], 2)
        expected = dict(prelie.prelie_product(left, right))
        return terms(text, lambda key: trees.parse_rct(key, 2)) == expected
    if name in {"compose", "group"}:
        op = groupops.compose if name == "compose" else groupops.group_product
        got = series.parse_series(text, 2, 2, 6)
        return got.coeffs == op(load(argv[1], 6), load(argv[2], 6)).coeffs
    if name == "invert":
        a = load(argv[1], 4)
        got = series.parse_series(text, 2, 2, 4)
        return (got.coeffs == groupops.group_inverse(a, 4).coeffs
                and groupops.group_product(a, got).is_zero())
    if name == "convolve":
        a, b = load(argv[1], 6), load(argv[2], 6)
        cmap = parse_coord_map(argv[-1])
        value = groupops.convolve(groupops.Character(a), groupops.Character(b), cmap)
        return (parse_rational(text) == value
                == groupops.group_product(a, b).coeff(cmap.channel, cmap.word))
    if name == "numcheck":
        return float(lines[-1].rsplit(" ", 1)[1]) <= 1e-6
    if name == "table1":
        return ([tuple(map(int, line.split(","))) for line in lines[1:]]
                == list(zip(range(3, 14, 2), TABLE1)))
    if name == "axioms":
        return lines[-1] == "OK" and all(": OK (" in line for line in lines[:-1])
    raise ValueError(f"no output check for circletree {name}")


# ---------------------------------------------------------------------------
# entry point


class RunTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def summarise(name: str, unit: str, values) -> None:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    else:
        print(f"{name}: {values[0]:.6g} {unit} (n=1)" if values else f"{name}: 0 (not reached)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("antipode-sweep", "feedback-group", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circletree" / "__init__.py").is_file():
        print(f"error: no circletree sources under {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if args.trace else "end_to_end"]}

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    rng = random.Random(args.seed)
    tally = Tally()
    try:
        if args.workload == "cli-session":
            plan = make_cli_inputs(rng, work)
            samples = run_cli(plan, work, args.seconds, bool(args.trace), tally)
        else:
            (make_sweep_inputs if args.workload == "antipode-sweep"
             else make_feedback_inputs)(rng, work)
            samples = run_library(args.workload, work, args.seconds, bool(args.trace), tally)
    except (RunTimeout, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in _running:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    unknown = set(samples) - set(wanted)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for name, unit in wanted.items():
        values = samples.get(name, [])
        summarise(name, unit, values)
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
