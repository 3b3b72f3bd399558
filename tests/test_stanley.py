"""k = n+1 forms, Verified by theorem with no elimination.

A = K[x]/(x_1^D, ..., x_n^D) has the strong Lefschetz property in
characteristic 0 with l = x_1 + ... + x_n (Stanley, SIAM J. Algebraic
Discrete Methods 1, 1980; Reid, Roberts & Roitman, Canad. Math. Bull. 34,
1991), so multiplication by l^D has maximal rank in every degree and
A/(l^D) has the series max(0, a_e - a_{e-D}), a the coefficients of
((1 - t^D)/(1 - t))^n. These tests check that this is the conjectured
series of n+1 forms, and that the theorem record's series is what
elimination finds at the l^D point and at the pure-power point.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import genforms
from genforms import modp
from genforms.macaulay import FormFamily, ModPPoly, power, quotient_series
from genforms.series import DegreeList, conjectured_series
from genforms.verifier import (
    TABLE_CELLS,
    VERIFIED,
    CaseSpec,
    VerificationRecord,
    pure_power_family,
    verify_case,
)


def lefschetz_series(n, D, trunc):
    """max(0, a_e - a_{e-D}) for e = 0..trunc, a the coefficients of
    (1 + t + ... + t^{D-1})^n."""
    a = [1]
    for _ in range(n):
        a = [sum(a[max(0, e - D + 1): e + 1]) for e in range(len(a) + D - 1)]

    def coeff(e):
        return a[e] if 0 <= e < len(a) else 0

    return tuple(max(0, coeff(e) - coeff(e - D)) for e in range(trunc + 1))


@pytest.mark.parametrize("n", range(2, 9))
def test_conjectured_series_of_n_plus_one_forms_is_the_lefschetz_series(n):
    """D = 2..30, past the last nonzero coefficient of either series."""
    for D in range(2, 31):
        trunc = n * (D - 1) + D
        conjectured = conjectured_series(DegreeList(n, (D,) * (n + 1)), trunc)
        assert conjectured.coeffs == lefschetz_series(n, D, trunc), (n, D)


def lefschetz_point(spec):
    """x_1^D, ..., x_n^D, l^D with D = md and l = x_1 + ... + x_n: the m-th
    powers of x_1^d, ..., x_n^d, l^d."""
    n, p = spec.n, spec.prime
    pure = pure_power_family(CaseSpec(n, spec.d, spec.m, n, prime=p), spec.seed).forms
    ones = {tuple(int(i == j) for j in range(n)): 1 for i in range(n)}
    line = FormFamily(n, (ModPPoly.from_monomial_dict(n, 1, ones, p),), p, spec.seed)
    return FormFamily(n, pure + power(line, spec.effective_degree).forms, p, spec.seed)


N3_CELLS = tuple((3, d, m) for d in range(2, 7) for m in range(2, 7) if d * m <= 12)
AH_CELLS = tuple((n, 1, m) for n in range(3, 7) for m in range(2, 6))


@pytest.mark.parametrize("n, d, m", TABLE_CELLS + N3_CELLS + AH_CELLS)
def test_both_points_eliminate_to_the_theorem_record(n, d, m):
    """The table cells, the n=3 cells with d*m <= 12 and the d = 1 grid:
    elimination at the l^D point and at the pure-power point finds the
    theorem record's series."""
    spec = CaseSpec(n, d, m, n + 1)
    record = verify_case(spec)
    assert (record.verdict, record.method, record.seeds_tried) == (VERIFIED, "theorem", ())
    for family in (lefschetz_point(spec), pure_power_family(spec, spec.seed)):
        assert quotient_series(family, record.trunc) == record.computed


def test_n_plus_one_forms_draw_and_eliminate_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a form was drawn or a RowReducer built")

    monkeypatch.setattr(modp, "RowReducer", refuse)
    monkeypatch.setattr(FormFamily, "random", refuse)
    spec = CaseSpec(8, 2, 2, 9)
    record = verify_case(spec)
    assert record.verdict == VERIFIED and record.computed == record.conjectured
    assert VerificationRecord.from_dict(record.to_dict(), spec) == record


# Records of each method, printed without millis.
_RECORDS = """
import json
from genforms.verifier import CaseSpec, verify_case
for case in ((4, 2, 2, 5), (8, 2, 2, 9), (3, 2, 1, 4), (4, 2, 2, 6), (4, 2, 2, 3),
             (3, 1, 3, 5)):
    rec = verify_case(CaseSpec(*case)).to_dict()
    del rec["millis"]
    print(json.dumps(rec))
"""


def test_records_are_the_same_under_python_O():
    src = str(Path(genforms.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-c", _RECORDS],
            env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        for flags in ((), ("-O",))
    ]
    assert [proc.returncode for proc in outs] == [0, 0], outs[1].stderr
    assert outs[0].stdout == outs[1].stdout
    methods = [json.loads(line)["method"] for line in outs[1].stdout.splitlines()]
    assert methods == ["theorem"] * 3 + ["pure-power"] * 2 + ["random"]
