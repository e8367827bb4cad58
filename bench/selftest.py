"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the root of a checkout. For each check it builds a right answer
with the package and confirms that the check passes it; then it plants
one wrong answer at a time and confirms that the check reports it, under
the planted kind. It exits 1 if a right answer is refused or a planted
error goes unnoticed.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import field  # noqa: E402
import sicfield  # noqa: E402

C = field.CONSTANTS


def expression_case():
    text = "(u + r)^3 / (sqrt2 - 1/3)"
    value = field.mul(field.power(field.add(C["u"], C["r"]), 3),
                      field.inv(field.sub(C["sqrt2"], field.rational(Fraction(1, 3)))))
    elem = sicfield.evaluate_expression(text)
    result = sicfield.minimal_polynomial(elem)
    z = sicfield.embed(elem)
    reply = {"coords": [str(c) for c in elem.coords],
             "monic": [str(c) for c in result.monic.coeffs], "degree": result.degree,
             "unit": sicfield.is_unit(elem), "embed": [z.real, z.imag]}

    def plant_value(r):
        r["coords"][0] = str(Fraction(r["coords"][0]) + 1)

    def plant_minpoly(r):
        r["monic"][0] = str(Fraction(r["monic"][0]) + 1)

    def plant_degree(r):
        r["degree"] = 3

    def plant_unit(r):
        r["unit"] = not r["unit"]

    def plant_embed(r):
        r["embed"][0] *= 1 + 1e-6

    plants = {"value": plant_value, "minpoly": plant_minpoly, "degree": plant_degree,
              "unit": plant_unit, "embed": plant_embed}
    return reply, plants, lambda r: checks.check_expression(r, value, field.degree(value))


def search_case():
    result = sicfield.search(sicfield.SearchConfig(dimension=4, rng_seed=1))
    reply = {"converged": result.converged, "residual": result.residual,
             "tolerance": 1e-10, "fiducial": [[z.real, z.imag] for z in result.fiducial]}

    def plant_norm(r):
        r["fiducial"] = [[1.001 * re, 1.001 * im] for re, im in r["fiducial"]]

    def plant_residual(r):
        r["residual"] += 1e-9

    def plant_converged(r):
        r["converged"] = not r["converged"]

    plants = {"norm": plant_norm, "residual": plant_residual, "converged": plant_converged}
    return reply, plants, lambda r: checks.check_search(r, 4)


def cli_case():
    golden = (BENCH / "golden" / "verify-d4.json").read_bytes()
    reply = {"stdout": golden, "code": 0}

    def plant_output(r):
        r["stdout"] = r["stdout"].replace(b"pass", b"fail", 1)

    def plant_exit(r):
        r["code"] = 1

    plants = {"output": plant_output, "exit": plant_exit}
    return reply, plants, lambda r: checks.check_cli(r["stdout"], r["code"], golden, 0)


def main() -> int:
    ok = True
    for case in (expression_case, search_case, cli_case):
        reply, plants, check = case()
        if check(reply):
            print(f"{case.__name__}: the right answer was refused: {check(reply)}")
            ok = False
        for kind, plant in plants.items():
            wrong = copy.deepcopy(reply)
            plant(wrong)
            caught = {k for k, _ in check(wrong)}
            print(f"{case.__name__}: planted {kind}: {'caught' if kind in caught else 'MISSED'}")
            ok = ok and kind in caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
