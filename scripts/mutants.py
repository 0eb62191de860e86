"""A mutation check of the test suite: each mutant is a one-text edit of
the package, run against tier-1 on its own copy of the repository.

Usage:
    python3 scripts/mutants.py [NAME ...]

Each mutant (name, file, old text, new text) replaces the one occurrence
of its old text in a temporary copy of the repository (``.git`` and the
caches left out), and ``pytest -x`` runs the copy's tests with its own
``src`` first on the path.  The script prints a Markdown table: the
test that caught each mutant, or "survived" when every test passed, and
the seconds each run took.  Names select mutants; the default is all of
them.  It exits 1 if any mutant survived, and it assumes that tier-1
passes on the unmutated tree.

It is not part of tier-1: a caught mutant costs up to a full run of the
suite, and a survivor costs a full run.  The README's tests paragraph
says what a survivor calls for.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

# (name, file, old text, new text)
MUTANTS = [
    (
        "unsymmetrized Pi",
        "src/dcmg/uio.py",
        "return gains, (pi_next + pi_next.T) / 2.0",
        "return gains, pi_next",
    ),
    ("Q for T Q T^T", "src/dcmg/uio.py", "t @ self.q @ t.T", "self.q"),
    (
        "sigma without M R M^T",
        "src/dcmg/sim.py",
        "np.sqrt(np.diag(pi + m @ model.r @ m.T))",
        "np.sqrt(np.diag(pi))",
    ),
    (
        "metered layer reads the wrong load",
        "src/dcmg/sim.py",
        "drive += d[span, buses]",
        "drive += d[span, buses - 1]",
    ),
    (
        "metered layer without load",
        "src/dcmg/sim.py",
        "            drive += d[span, buses].T[..., None] @ model.e.T\n",
        "",
    ),
    (
        "attack window one step late",
        "src/dcmg/sim.py",
        "block[j, k0:k1, slot] += atk.bias",
        "block[j, k0 + 1 : k1 + 1, slot] += atk.bias",
    ),
    (
        "persistence off by one",
        "src/dcmg/detect.py",
        "k = starts[long[0]] + config.persistence - 1",
        "k = starts[long[0]] + config.persistence",
    ),
    ("SIGMA_FLOOR = 1", "src/dcmg/detect.py", "SIGMA_FLOOR = 1e-12", "SIGMA_FLOOR = 1.0"),
    (
        "EWMA state not carried across blocks",
        "src/dcmg/detect.py",
        "start = s[-1].copy()",
        "start = 0.0",
    ),
    (
        "run above kappa not carried across blocks",
        "src/dcmg/detect.py",
        "starts[0] = -run[col]",
        "starts[0] = 0",
    ),
    (
        "one measurement stream per group",
        "src/dcmg/sim.py",
        "_stream(config.seeds, _TAG_MEASUREMENT, i).standard_normal",
        "_stream(config.seeds, _TAG_MEASUREMENT, group[0]).standard_normal",
    ),
    (
        "loose settle tolerance",
        "src/dcmg/sim.py",
        "    rtol = 4 * model.n * np.finfo(float).eps\n",
        "    rtol = 1e-6\n",
    ),
    (
        "state_sign dropped from x0",
        "src/dcmg/sim.py",
        "loc[:, 0] = x[0, index] * sign",
        "loc[:, 0] = x[0, index]",
    ),
    (
        "state_sign dropped from the process noise",
        "src/dcmg/sim.py",
        "            noise *= sign\n",
        "",
    ),
    (
        "trace pieces written in reverse order",
        "src/dcmg/_csvrows.py",
        "for piece in row_blocks(code.size, _PIECE_FIELD_BYTES):",
        "for piece in [*row_blocks(code.size, _PIECE_FIELD_BYTES)][::-1]:",
    ),
    (
        "writer's result() dropped",
        "src/dcmg/_csvrows.py",
        "    writing.result()\n",
        "",
    ),
    (
        "drawn.result() dropped",
        "src/dcmg/sim.py",
        "    drawn.result()\n",
        "",
    ),
    (
        "last piece written unmasked",
        "src/dcmg/_csvrows.py",
        "fh.write(np.compress(kept.view(np.bool_).reshape(-1), text))",
        "fh.write(np.compress(kept.view(np.bool_).reshape(-1), text)"
        " if piece.stop < code.size else text)",
    ),
    (
        "formatter reuses one slot buffer for every block",
        "src/dcmg/_csvrows.py",
        "words, code = slots[b % 2, : block.size]",
        "words, code = slots[0, : block.size]",
    ),
    (
        "slow field's length code off by one",
        "src/dcmg/_csvrows.py",
        "code[slow] = _TEXT_MASK + np.array",
        "code[slow] = _TEXT_MASK + 1 + np.array",
    ),
    (
        "writer gathers masks from the other buffer's codes",
        "src/dcmg/_csvrows.py",
        "todo.put((words, code))",
        "todo.put((words, codes[1 - b % 2, : block.size]))",
    ),
    (
        "comma/newline offset on the wrong word row",
        "src/dcmg/_csvrows.py",
        "groups[-1] += _COMMA",
        "groups[-2] += _COMMA",
    ),
    (
        "report drops the last partial block",
        "src/dcmg/cli.py",
        "    for rows in row_blocks(n_rows, row_nbytes):\n",
        "    for rows in [*row_blocks(n_rows, row_nbytes)][:-1]:\n",
    ),
    (
        "report does not carry a channel's scale across blocks",
        "src/dcmg/cli.py",
        "                t *= (s / peak) ** p\n",
        "",
    ),
    (
        "observer applies x^_0 = y_0 to every block",
        "src/dcmg/sim.py",
        "            if span.start == 0:\n                x_hat[0] = yj[0]\n",
        "            x_hat[0] = yj[0]\n",
    ),
    (
        "--validate-only skips prepare",
        "src/dcmg/cli.py",
        "        if validate_only:\n            prepare(config)\n",
        "        if validate_only:\n            pass\n",
    ),
    (
        "non-finite model check dropped",
        "src/dcmg/lti.py",
        "    if not np.isfinite(ex).all():\n"
        '        raise NonFinite(f"the model\'s zero-order hold at ts = {ts!r} is not finite")\n',
        "",
    ),
    (
        "ValidationError from a run exits 1",
        "src/dcmg/cli.py",
        "return 2 if isinstance(exc, (ParseError, ValidationError)) else 1",
        "return 2 if isinstance(exc, ParseError) else 1",
    ),
    ("label from the attacker's side", "src/dcmg/cli.py", "victim == agent", "source == agent"),
    (
        "window mean not divided by sigma",
        "src/dcmg/cli.py",
        "np.abs(means[1:]) / sigmas",
        "np.abs(means[1:])",
    ),
    ("bus-key form unchecked", "src/dcmg/cli.py", "if str(bus) != key:", "if False:"),
    (
        "one squaring fewer",
        "src/dcmg/lti.py",
        "    for _ in range(s):\n        r = r @ r\n",
        "    for _ in range(s - 1):\n        r = r @ r\n",
    ),
    (
        "degree 9 up to the degree-13 bound",
        "src/dcmg/lti.py",
        "    9: 2.097847961257068,\n",
        "    9: 5.371920351148152,\n",
    ),
    (
        "singular innovation left to the LU's pivots",
        "src/dcmg/uio.py",
        "    if not lam[0] > 4 * n * np.finfo(float).eps * lam[-1]:\n        raise singular\n",
        "",
    ),
    (
        "row_blocks without the one-row fold",
        "src/dcmg/lti.py",
        "stop = min(k + rows, n) - (n - k == rows + 1)",
        "stop = min(k + rows, n)",
    ),
    (
        "writer's mask buffer sized to the first piece",
        "src/dcmg/_csvrows.py",
        "keep = np.empty((first_piece.stop + 1, _WORDS), np.uint64)",
        "keep = np.empty((first_piece.stop, _WORDS), np.uint64)",
    ),
    (
        "negative noise variance accepted",
        "src/dcmg/sim.py",
        "if not (math.isfinite(value) and value >= 0):",
        "if not math.isfinite(value):",
    ),
    (
        "prepare skips the first gain step",
        "src/dcmg/sim.py",
        "            gain_step(model, t @ model.r @ t.T)\n",
        "            pass\n",
    ),
]

_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"
)


def run_mutant(file: str, old: str, new: str) -> tuple[str, float]:
    """The first test that fails on the mutated copy, or "survived"."""
    with tempfile.TemporaryDirectory(prefix="dcmg-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        path = copy / file
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: the old text occurs {text.count(old)} times")
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"],
                cwd=copy,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return (f"`{failed[1]}`" if failed else f"pytest exit {proc.returncode}"), seconds


def main(argv: list[str]) -> int:
    names = {name for name, *_ in MUTANTS}
    unknown = sorted(set(argv) - names)
    if unknown:
        print(f"error: unknown mutant {unknown[0]!r}", file=sys.stderr)
        return 2
    print("| mutant | file | caught by | s |")
    print("|---|---|---|---|")
    survived = 0
    for name, file, old, new in MUTANTS:
        if argv and name not in argv:
            continue
        result, seconds = run_mutant(file, old, new)
        survived += result == "survived"
        print(f"| {name} | `{file}` | {result} | {seconds:.1f} |", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
