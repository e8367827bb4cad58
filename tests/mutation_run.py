"""Break the code on purpose, one known way at a time, and check that the
tests notice.

Each row of MUTANTS names a file of the checkout under src/ or tests/, a
text that must occur in it exactly once, the text to put in its place,
and the test file that must then fail. For each row the script copies
src/ and tests/ into a fresh temporary directory, links the other
entries of the checkout but the hidden ones (the tests only read them;
git and the test caches stay out), applies the one replacement and runs
`python -m pytest -x -q` on the named test file for at most TIMEOUT
seconds. A mutant is caught when that run fails or runs out of time.

    python tests/mutation_run.py

exits 1 if any mutant survives or any old text does not occur exactly
once. The file is not named test_*.py, so the tier-1 run does not
collect it. A surviving mutant is a gap in the tests: mend the tests,
never the row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seconds each mutant's test run may take; each caught one took 1.6-13 s on a 2-core VM
TIMEOUT = 120

SIC4 = "src/sicfield/sic4.py"
SEARCH = "src/sicfield/search.py"
EXPRESSIONS = "src/sicfield/expressions.py"
TOWER = "src/sicfield/tower.py"

#: (file, old text, new text, test file)
MUTANTS = [
    # sic4 holds its neighbours as modules, so verify-d4 runs no minpoly
    (SIC4, "from . import matrices, minpoly, tower, weyl\n",
     "from . import matrices, minpoly, tower, weyl\n"
     "from .minpoly import minimal_polynomial\n",
     "tests/test_lazy_imports.py"),
    # a warm start searches C^d through the identity, with no basis matrix
    (SEARCH, "return np.asarray, np.asarray, tables",
     "return np.eye(d).__matmul__, np.eye(d).__matmul__, tables",
     "tests/test_search.py"),
    (SIC4, "kernel * 2 ** (twos % 2)", "kernel", "tests/test_sic4.py"),
    (SIC4, "return kernel if root * root == n else kernel * n", "return kernel * n",
     "tests/test_sic4.py"),
    (SIC4, "sums[(y - w) % 4]", "sums[(w - y) % 4]", "tests/test_sic4.py"),
    (SIC4, "weyl._tau_powers()[2]", "weyl._tau_powers()[6]", "tests/test_sic4.py"),
    (SIC4, "powers[-e % 8]", "powers[e % 8]", "tests/test_sic4.py"),
    (SIC4, "phases[i][j].conjugate() != sign * mirrored",
     "phases[i][j].conjugate() != mirrored", "tests/test_sic4.py"),
    (SIC4, 'CheckResult("idempotent", matrices.mat_mul(proj, proj) == proj)',
     'CheckResult("idempotent", True)', "tests/test_sic4.py"),
    ("src/sicfield/weyl.py", "(i * j + 2 * j * k) % (2 * d)", "(i * j + j * k) % (2 * d)",
     "tests/test_weyl.py"),
    ("src/sicfield/weyl.py", "[((k + i) % d, ", "[((k - i) % d, ", "tests/test_weyl.py"),
    (SEARCH, "np.add.outer(rows, r)", "np.subtract.outer(rows, r)", "tests/test_search.py"),
    # the gradient's factor 8 lives in the conjugate DFT table
    (SEARCH, "8 * roots.conj()", "4 * roots.conj()", "tests/test_search.py"),
    (SEARCH, "weights = np.ones((d, d))\n    weights[0, 0] = 0.0\n",
     "weights = np.ones((d, d))\n", "tests/test_search.py"),
    (SEARCH, "phases = np.sqrt(d + 1.0) * tau * m", "phases = np.sqrt(d + 1.0) * m",
     "tests/test_search.py"),
    (SEARCH, '        else:\n            stop_reason = "stalled"\n',
     '        else:\n            stop_reason = "budget"\n', "tests/test_search.py"),
    (SEARCH, "if not np.isfinite(initial).all():", "if False:", "tests/test_search.py"),
    # the stall rule the scipy cross-check certifies, the L-BFGS pair formed
    # where the next gradient is computed, and no gradient at the last point
    (SEARCH, "MIN_DECREASE = 1e-6", "MIN_DECREASE = 1e-5", "tests/test_search.py"),
    (SEARCH, "y = gradient - previous", "y = previous - gradient", "tests/test_search.py"),
    (SEARCH, '    if converged:\n        stop_reason = "converged"\n',
     '    _tangent_gradient(back, x, point, tables)\n'
     '    if converged:\n        stop_reason = "converged"\n', "tests/test_search.py"),
    # the squared moduli from one square of M's float view, the residual
    # as one dot, and the one stored pair's closed form
    (SEARCH, "squares[:, 1::2]", "squares[:, 0::2]", "tests/test_search.py"),
    (SEARCH, "np.vdot(weighted, devs)", "np.vdot(weighted, weighted)",
     "tests/test_search.py"),
    (SEARCH, "            q = q + (a - rho * y.dot(q)) * s\n", "", "tests/test_search.py"),
    (SEARCH, "@lru_cache(maxsize=1)\ndef _tables", "@lru_cache(maxsize=None)\ndef _tables",
     "tests/test_search.py"),
    ("src/sicfield/minpoly.py", "abs(self.primitive.coeffs[0]) == 1",
     "abs(self.primitive.coeffs[0]) >= 1", "tests/test_minpoly.py"),
    ("src/sicfield/minpoly.py", "self.primitive.coeffs[-1] == 1",
     "self.primitive.coeffs[-1] >= 1", "tests/test_minpoly.py"),
    ("src/sicfield/minpoly.py", "remainder = remainder - RatPoly.monomial(n - k) * lift",
     "remainder = remainder + RatPoly.monomial(n - k) * lift", "tests/test_minpoly.py"),
    ("src/sicfield/minpoly.py", "next_coeffs[k] = next_coeffs[k] - c * root",
     "next_coeffs[k] = next_coeffs[k] + c * root", "tests/test_minpoly.py"),
    ("src/sicfield/linalg.py", "reduced[k][f] = Fraction(-c[p], c[f])",
     "reduced[k][f] = Fraction(c[p], c[f])", "tests/test_linalg.py"),
    ("src/sicfield/linalg.py", "return [Fraction(-a, c[-1]) for a in c[:-1]]",
     "return [Fraction(-a, c[-1]) for a in reversed(c[:-1])]", "tests/test_linalg.py"),
    ("src/sicfield/linalg.py", "row = [p * a - x * b for", "row = [p * a + x * b for",
     "tests/test_linalg.py"),
    ("src/sicfield/galois.py", "act=lambda g, k: (g.apply(k[0]), g.apply(k[1]))",
     "act=lambda g, k: (g.apply(k[0]), k[1])", "tests/test_galois.py"),
    (TOWER, "_ROUNDING_FACTOR = 64", "_ROUNDING_FACTOR = 0", "tests/test_tower.py"),
    # the inverse by the norm down the tower, and the integer power vectors
    # of the minimal polynomial
    (TOWER, "Automorphism(-_U, -_R), ", "", "tests/test_tower.py"),
    (TOWER, "if not n.is_rational():", "if False:", "tests/test_tower.py"),
    (TOWER, "powers[k])) >> k", "powers[k])) >> (k - 1)", "tests/test_minpoly.py"),
    (TOWER, "(2 * a.den) ** (n - k)", "(2 * a.den) ** k", "tests/test_minpoly.py"),
    ("src/sicfield/cli.py", "except (ValueError, ZeroDivisionError) as err:",
     "except ValueError as err:", "tests/test_cli.py"),
    ("src/sicfield/cli.py", "ctx.rounding = ROUND_HALF_EVEN", 'ctx.rounding = "ROUND_HALF_UP"',
     "tests/test_cli.py"),
    (EXPRESSIONS, "if a.op != b.op or a.right != b.right:",
     "if a.right != b.right:", "tests/test_expressions.py"),
    (EXPRESSIONS, "if self.depth > MAX_NESTING:", "if False:", "tests/test_expressions.py"),
    # the token scan, the consume test and the operator loop
    (EXPRESSIONS, "|(?P<bad>\\S))", "|(?P<bad>.))", "tests/test_expressions.py"),
    (EXPRESSIONS, "BinOp(op, node, operand())", "BinOp(op, operand(), node)",
     "tests/test_expressions.py"),
    (EXPRESSIONS, "if token[0] != kind or (texts and token[1] not in texts):",
     "if token[0] != kind:", "tests/test_expressions.py"),
    (EXPRESSIONS, "Pow(node, sign * exponent)", "Pow(node, exponent)",
     "tests/test_expressions.py"),
    # a long literal is bounded by its significant digits, before int()
    (EXPRESSIONS, "if int(c)), len(text) - 1)", "if c != '0'), len(text) - 1)",
     "tests/test_expressions.py"),
    (EXPRESSIONS, "            text = text[next(", "            text = text[0 * next(",
     "tests/test_cli.py"),
    (EXPRESSIONS, "math.ceil(MAX_VALUE_BITS * math.log10(2))",
     "math.floor(MAX_VALUE_BITS * math.log10(2))", "tests/test_expressions.py"),
    (EXPRESSIONS, "math.ceil(MAX_VALUE_BITS * math.log10(2))",
     "math.ceil(MAX_VALUE_BITS * math.log10(2)) + 1", "tests/test_expressions.py"),
    # `python -m sicfield.cli` finds the module already registered and
    # warns, which only a fresh interpreter with warnings as errors sees
    ("src/sicfield/__init__.py", '"sic4", "search", "expressions")}',
     '"sic4", "search", "expressions", "cli")}', "tests/test_golden_cli.py"),
]


def run(path: str, old: str, new: str, test: str) -> tuple[str, str]:
    """'caught', 'timeout' or 'SURVIVED' for one mutant, and the first
    test that failed."""
    with tempfile.TemporaryDirectory(prefix="sicfield-mutant-") as tmp:
        workdir = Path(tmp)
        for entry in ROOT.iterdir():
            if entry.name in ("src", "tests"):
                shutil.copytree(entry, workdir / entry.name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            elif not entry.name.startswith("."):
                (workdir / entry.name).symlink_to(entry)
        target = workdir / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
                cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT, check=False)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        failed = [line for line in proc.stdout.decode().splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return ("SURVIVED" if proc.returncode == 0 else "caught"), (failed or [""])[0]


def main() -> int:
    bad = [(path, old) for path, old, _, _ in MUTANTS
           if (ROOT / path).read_text().count(old) != 1]
    for path, old in bad:
        print(f"{path}: old text does not occur exactly once: {old!r}")
    if bad:
        return 1
    survived = 0
    start = time.perf_counter()
    for k, (path, old, new, test) in enumerate(MUTANTS):
        began = time.perf_counter()
        verdict, failed = run(path, old, new, test)
        survived += verdict == "SURVIVED"
        print(f"{k:2d} {verdict:8s} {time.perf_counter() - began:6.1f} s  {path}: "
              f"{old.strip()!r} -> {new.strip()!r}  [{test}]\n   {failed}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
