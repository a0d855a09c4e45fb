#!/usr/bin/env python3
"""The figure gate: a regenerated `--nodes 32` set against results/.

    results/figures.sh DIR && python3 results/figures_gate.py DIR
    python3 results/figures_gate.py --record DIR... > results/figures_n32_runs.txt

Every line of every file but the header must equal the committed file in
results/, on every column. The rows VARYING lists differ between runs of
one build (thread interleaving; ROADMAP item 2(ii) is to make them
deterministic, and only then does the list shrink). For a listed row the
text around its numbers must be equal, and each number (a bar's W, P and =
counts included) must lie within the range it showed over the runs
recorded in figures_n32_runs.txt (at least 20) and results/, widened by
that range's width on each side: the bare min..max of n runs excludes a
further run's value with probability 2/(n+1) per number, and over the
73 listed numbers it failed 21 of 24 leave-one-out checks of the
recorded runs. A number that never varied must stay equal.

`--record` checks that every unlisted row of each DIR equals results/ and
prints the listed rows of each, one line per row and run.
"""


import re
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent
FILES = ["fig4.txt", "table1.txt", "fig5_n32.txt", "fig6_n32.txt", "fig7_n32.txt", "sweep_n32.txt"]
RUNS = RESULTS / "figures_n32_runs.txt"
MIN_RUNS = 20

# Rows that vary between runs, per file, as patterns matched at the
# line's start. fig7's are keyed by version name: the chosen block size
# in the label is one of the row's numbers.
VARYING = {
    "fig5_n32.txt": [r"C\*\* (un)?optimized \(256B\)", r"best optimized vs best unoptimized:"],
    "fig7_n32.txt": [r"Splash \(transparent shm\)", r"opt vs Splash:"],
    "sweep_n32.txt": [r"barnes +1024B", r"adaptive +(64|128|256|512|1024)B"],
}

NUMBER = re.compile(r"\d+(?:\.\d+)?")
BAR = re.compile(r"^[WP=]+$")


def body(path):
    """The file's lines after its header, numbered as in the file."""
    return list(enumerate(path.read_text().splitlines(), start=1))[1:]


def listed(name, line):
    return any(re.match(p, line) for p in VARYING.get(name, []))


def split(line):
    """The line's words with each number as `#` and a bar as `|`, and its
    numbers in order (a bar's as its W, P and = counts)."""
    words, numbers = [], []
    for word in line.split():
        if BAR.match(word):
            words.append("|")
            numbers += [word.count(c) for c in "WP="]
        else:
            words.append(NUMBER.sub("#", word))
            numbers += [float(x) for x in NUMBER.findall(word)]
    return words, numbers


def recorded():
    """Listed rows of the recorded runs: {(file, line number): [row, ...]}."""
    rows, runs = {}, 0
    for line in RUNS.read_text().splitlines():
        if line.startswith("# run "):
            runs += 1
        elif line and not line.startswith("#"):
            name, no, text = line.split(":", 2)
            rows.setdefault((name, int(no)), []).append(text)
    return rows, runs


def compare(name, ref, new):
    """Problems of `new` against `ref` for unlisted rows, and the listed
    rows of `new` as (line number, reference text, new text)."""
    problems, rows = [], []
    if len(ref) != len(new):
        return [f"{name}: {len(new)} lines, results/ has {len(ref)}"], rows
    for (no, a), (_, b) in zip(ref, new):
        if listed(name, a):
            rows.append((no, a, b))
        elif a != b:
            problems.append(f"{name}:{no}: an unlisted row changed\n  - {a}\n  + {b}")
    return problems, rows


def gate(new_dir):
    runs, n_runs = recorded()
    problems = []
    if n_runs < MIN_RUNS:
        problems.append(f"{RUNS.name} records {n_runs} runs, fewer than {MIN_RUNS}")
    for name, patterns in VARYING.items():
        for p in patterns:
            if not any(re.match(p, a) for _, a in body(RESULTS / name)):
                problems.append(f"{name}: the listed pattern {p!r} matches no row")
    n_exact = n_listed = 0
    for name in FILES:
        ref = body(RESULTS / name)
        found, rows = compare(name, ref, body(Path(new_dir) / name))
        problems += found
        n_exact += len(ref) - len(rows)
        for no, a, b in rows:
            n_listed += 1
            seen = [split(t) for t in [a] + runs.get((name, no), [])]
            words, numbers = split(b)
            if any(w != words or len(n) != len(numbers) for w, n in seen):
                problems.append(f"{name}:{no}: a listed row's text changed\n  - {a}\n  + {b}")
                continue
            for k, x in enumerate(numbers):
                lo, hi = min(n[k] for _, n in seen), max(n[k] for _, n in seen)
                if not lo - (hi - lo) <= x <= hi + (hi - lo):
                    problems.append(
                        f"{name}:{no}: number {k + 1} is {x:g}, outside the "
                        f"{len(seen)}-run range {lo:g}..{hi:g} widened by its width\n  {b}"
                    )
    for p in problems:
        print(f"::error::{p}")
    verdict = "FAILED" if problems else "ok"
    print(
        f"{verdict}: {n_exact} unlisted rows, {n_listed} listed rows against "
        f"{n_runs} recorded runs + results/"
    )
    return 1 if problems else 0


def record(dirs):
    problems, out = [], []
    for k, d in enumerate(dirs, start=1):
        out.append(f"# run {k}")
        for name in FILES:
            found, rows = compare(name, body(RESULTS / name), body(Path(d) / name))
            problems += found
            out += [f"{name}:{no}:{b}" for no, _, b in rows]
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(
        "# The listed rows (results/figures_gate.py VARYING) of each recorded run of\n"
        "# `results/figures.sh DIR`; every unlisted row of every run equalled results/."
    )
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--record"] and len(args) > 1:
        sys.exit(record(args[1:]))
    if len(args) == 1 and not args[0].startswith("-"):
        sys.exit(gate(args[0]))
    sys.exit(__doc__)
