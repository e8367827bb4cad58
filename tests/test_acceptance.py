"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and states its tolerance inline; the exact
checks use field arithmetic and so carry no tolerance at all. A summary
with one line per criterion is printed at the end of the run.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from sicfield.cli import main as cli_main
from sicfield.galois import (
    action_table,
    certify_structure,
    fixed_subfield_check,
    generate_group,
    is_abelian,
    is_normal,
    standard_generators,
)
from sicfield.minpoly import (
    is_unit,
    minimal_polynomial,
    palindrome_reduce,
    verify_split,
)
from sicfield.polynomials import RatPoly, palindromic_lift
from sicfield.search import (
    SearchConfig,
    extract_phases,
    fourth_moment,
    known_fiducial,
    residual_gradient,
    search,
    sic_residual,
    tau_phase,
)
from sicfield.sic4 import (
    canonical_phase_matrix,
    discriminant,
    fiducial_projector,
    monomial,
    overlap,
    verify_sic_projector,
)
from sicfield.tower import U_MIN_POLY, X_MIN_POLY, FieldElement, constant, embed

U = constant("u")
R = constant("r")


def test_criterion_01_exact_sic_verification():
    # projector reconstruction plus every defining identity, with
    # exact rational arithmetic (zero tolerance) in under a minute
    start = time.perf_counter()
    checks = verify_sic_projector()
    elapsed = time.perf_counter() - start
    names = {c.name for c in checks}
    assert {"hermitian", "trace_one", "idempotent"} <= names
    assert sum(1 for n in names if n.startswith("overlap_")) == 15
    assert all(c.passed for c in checks)
    proj = fiducial_projector()
    for i in range(4):
        for j in range(4):
            if (i, j) != (0, 0):
                assert overlap(proj, i, j) == FieldElement.from_rational(
                    Fraction(1, 5))
    assert elapsed < 60


def test_criterion_02_minimal_polynomials():
    assert minimal_polynomial(U).primitive == RatPoly(
        [1, 0, -2, 0, -2, 0, -2, 0, 1])
    assert minimal_polynomial(U + U.inverse()).primitive == RatPoly(
        [4, 0, -6, 0, 1])
    assert minimal_polynomial(FieldElement.from_rational(-1)).primitive == RatPoly(
        [1, 1])


def test_criterion_03_palindrome_machinery():
    p1 = RatPoly([1, 0, -2, 0, -2, 0, -2, 0, 1])
    px = RatPoly([4, 0, -6, 0, 1])
    assert palindrome_reduce(p1) == px
    assert palindromic_lift(px) == p1


def test_criterion_04_splitting():
    p1 = RatPoly([1, 0, -2, 0, -2, 0, -2, 0, 1])
    roots = [U, -U, U.inverse(), -U.inverse(),
             R, -R, R.inverse(), -R.inverse()]
    assert verify_split(p1, roots)


def test_criterion_05_field_relations():
    x = U + U.inverse()
    y = U - U.inverse()
    assert constant("sqrt5") == FieldElement.from_rational(3) - x * x
    assert constant("sqrt2") == -(x * y * y) / 2
    assert x * (R + R.inverse()) == FieldElement.from_rational(-2)
    assert y * (R - R.inverse()) == FieldElement.from_rational(-2) * constant("i")


def test_criterion_06_galois_group():
    gens = standard_generators()
    g1, g2, g3, g4 = (gens[k] for k in ("g1", "g2", "g3", "g4"))
    group = generate_group([g1, g2, g3, g4])
    assert len(group) == 16

    inner = generate_group([g1, g2, g3])
    assert len(inner) == 8
    assert is_abelian(inner)
    assert is_normal(group, inner)
    assert len(group) // len(inner) == 2

    g4inv = g4.inverse()
    assert g4 * g1 * g4inv == g3
    assert g4 * g2 * g4inv == g2
    assert g4 * g3 * g4inv == g1

    cert = certify_structure(group)
    assert cert.certified
    assert cert.isomorphism_type == "Z2 x D8"

    # soluble chain e < H < G: both quotients abelian
    assert is_abelian(inner) and len(group) // len(inner) == 2

    assert fixed_subfield_check(inner, constant("sqrt5"))
    assert not fixed_subfield_check(group, constant("sqrt5"))

    # the generator table, entry by entry; the g4 row follows from its
    # defining images u -> r, r -> u
    columns = {name: constant(name)
               for name in ("u", "r", "sqrt5", "sqrt2", "isqrt_sqrt5p1",
                            "i", "tau")}
    sqrt5, sqrt2 = constant("sqrt5"), constant("sqrt2")
    isqrt, i, tau = constant("isqrt_sqrt5p1"), constant("i"), constant("tau")
    expected = {
        "g1": (U.inverse(), R, sqrt5, sqrt2, -isqrt, -i, tau.conjugate()),
        "g2": (-U, -R, sqrt5, -sqrt2, -isqrt, i, -tau),
        "g3": (U, R.inverse(), sqrt5, sqrt2, isqrt, -i, tau.conjugate()),
        "g4": (R, U, -sqrt5, sqrt2, R - R.inverse(), i, tau),
    }
    rows = action_table([g1, g2, g3, g4], columns)
    for name, row in zip(("g1", "g2", "g3", "g4"), rows):
        for col, want in zip(columns, expected[name]):
            assert row[col] == want, f"{name}({col})"


def test_criterion_07_degree_bookkeeping():
    assert minimal_polynomial(U).degree == 8
    assert len(U.coords) == 16
    assert minimal_polynomial(R).degree == 8
    # 16 = 8 * 2, and the degree is realized by a primitive element;
    # u + r will not do, since the u <-> r swap fixes it
    assert minimal_polynomial(U + R).degree == 8
    assert minimal_polynomial(U + R + R).degree == 16


def test_criterion_08_unit_audit():
    degrees = []
    for name in ("u1", "u2", "u3", "u4", "u5"):
        elem = constant(name)
        assert is_unit(elem), name
        degrees.append(minimal_polynomial(elem).degree)
    assert degrees == [2, 4, 8, 8, 8]
    assert constant("u3") == U


def test_criterion_09_discriminant():
    assert (discriminant(4).value, discriminant(4).squarefree_part) == (5, 5)
    assert discriminant(5).squarefree_part == 3
    assert discriminant(7).squarefree_part == 2
    # d = 4 lands on the same quadratic field Q(sqrt5) as the tower
    assert constant("sqrt5") * constant("sqrt5") == FieldElement.from_rational(5)


def test_criterion_10_numeric_search():
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        result = search(SearchConfig(
            dimension=d, restarts=64, tolerance=1e-10, rng_seed=d))
        assert result.converged, f"d={d}"
        assert result.residual < 1e-10
    assert time.perf_counter() - start < 300

    # warm start from the embedded exact fiducial, then read the
    # overlap phases back off and compare with the exact table
    warm = search(SearchConfig(dimension=4, restarts=1),
                  initial=known_fiducial(4))
    assert warm.converged
    phases = extract_phases(warm.fiducial)
    table = canonical_phase_matrix()
    for i in range(4):
        for j in range(4):
            assert abs(phases[i, j] - embed(table[i][j])) < 1e-8


def test_criterion_11_property_suites():
    # gradient against central differences, 1e-5 relative
    for d in (2, 3, 5):
        rng = np.random.default_rng(91 + d)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        grad = residual_gradient(d, psi)
        h = 1e-6
        fd = np.zeros(2 * d)
        for k in range(2 * d):
            bump = np.zeros(2 * d)
            bump[k] = h
            plus = (psi.real + bump[:d]) + 1j * (psi.imag + bump[d:])
            minus = (psi.real - bump[:d]) + 1j * (psi.imag - bump[d:])
            fd[k] = (sic_residual(d, plus) - sic_residual(d, minus)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)

    # fourth moment 2d/(d+1) at converged fiducials, 1e-8
    for d in (2, 3, 4):
        assert abs(fourth_moment(d, known_fiducial(d)) - 2 * d / (d + 1)) < 1e-8

    # conjugation commutes with the embedding, 1e-10
    rng = np.random.default_rng(7)
    for _ in range(50):
        coords = [Fraction(int(n), int(m)) for n, m in
                  zip(rng.integers(-9, 10, size=16),
                      rng.integers(1, 10, size=16))]
        elem = FieldElement(coords)
        z = embed(elem)
        assert abs(embed(elem.conjugate()) - z.conjugate()) \
            <= 1e-10 * max(1.0, abs(z))

    # displacement operators, built from the library's monomial rule and
    # tau, are a unitary operator basis for d <= 6
    for d in (2, 3, 4, 5, 6):
        ops = {}
        for i in range(d):
            for j in range(d):
                ops[i, j] = np.zeros((d, d), dtype=complex)
                for k, (row, e) in enumerate(monomial(d, i, j)):
                    ops[i, j][row, k] = tau_phase(d) ** e
        for a, da in ops.items():
            for b, db in ops.items():
                want = d if a == b else 0
                assert abs(np.trace(da.conj().T @ db) - want) < 1e-9

    # fixed seed gives a bitwise-stable result
    config = SearchConfig(dimension=3, restarts=4, rng_seed=5)
    first, second = search(config), search(config)
    assert np.array_equal(first.fiducial, second.fiducial)
    assert first.residual == second.residual
    assert [r.iterations for r in first.restarts] == \
        [r.iterations for r in second.restarts]


def test_criterion_12_cli_gate(capsys):
    code = cli_main(["verify-d4", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(r["status"] == "pass" for r in reports)

    code = cli_main(["verify-d4", "--corrupt", "1,2", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1
    failing = {r["check"] for r in reports if r["status"] == "fail"}
    assert any(name.startswith("overlap_") for name in failing)


def test_cli_report_determinism(capsys):
    cli_main(["search", "--dim", "2", "--restarts", "2", "--json"])
    first = capsys.readouterr().out
    cli_main(["search", "--dim", "2", "--restarts", "2", "--json"])
    second = capsys.readouterr().out
    assert first == second
