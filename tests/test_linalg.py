"""Tests for the shared linear-algebra helpers."""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import rkhs_oed
from rkhs_oed.linalg import (IllConditionedWarning, dedupe_rows, inv_spd,
                             min_eig, pinv, solve_spd, sym)


def test_sym_symmetrizes():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = sym(a)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])


def test_pinv_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(0)
    for shape in [(3, 5), (5, 3), (4, 4)]:
        a = rng.standard_normal(shape)
        assert np.allclose(pinv(a), np.linalg.pinv(a), atol=1e-10)


def test_pinv_rank_deficient():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    p = pinv(a)
    # Moore-Penrose identities
    assert np.allclose(a @ p @ a, a, atol=1e-12)
    assert np.allclose(p @ a @ p, p, atol=1e-12)


def test_pinv_zero_matrix():
    assert np.array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_solve_spd_matches_direct_solve():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    a = a @ a.T + np.eye(4)
    b = rng.standard_normal((4, 2))
    assert np.allclose(solve_spd(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_solve_spd_warns_on_ill_conditioning():
    a = np.diag([1.0, 1e-13])
    with pytest.warns(IllConditionedWarning):
        solve_spd(a, np.ones(2))


@pytest.mark.parametrize("n", [2, 5, 20, 60])
def test_solve_spd_warns_iff_condition_exceeds_1e12(n):
    # prescribed spectra far from the cutoff on both sides, so the slack of
    # LAPACK's 1-norm estimate cannot flip the decision
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    for cond, warns in [(1.0, False), (1e6, False), (1e10, False),
                        (1e14, True), (1e16, True)]:
        a = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_spd(a, b)
        hits = [w for w in caught
                if issubclass(w.category, IllConditionedWarning)]
        assert bool(hits) == warns, (n, cond)


def test_solve_spd_singular_falls_back_to_pseudo_solve():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([2.0, 2.0])
    with pytest.warns(IllConditionedWarning):
        x = solve_spd(a, b)
    # least-squares solution of the consistent singular system
    assert np.allclose(a @ x, b, atol=1e-10)


def test_inv_spd():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    a = a @ a.T + np.eye(3)
    inv = inv_spd(a)
    assert np.allclose(inv @ a, np.eye(3), atol=1e-10)
    assert np.array_equal(inv, inv.T)


def test_min_eig():
    assert min_eig(np.diag([3.0, -1.0, 2.0])) == pytest.approx(-1.0)


def test_dedupe_rows_averages_duplicates_in_order():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, 5.0, 3.0, 2.0])
    xu, yu = dedupe_rows(x, y)
    assert np.array_equal(xu, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(yu, [2.0, 5.0])


def test_dedupe_rows_without_y():
    xu, yu = dedupe_rows(np.array([[1.0], [1.0], [2.0]]))
    assert np.array_equal(xu, [[1.0], [2.0]])
    assert yu is None


def _dedupe_rows_loop(x, y):
    """Reference: group byte-identical rows in first-appearance order."""
    groups = {}
    for i, row in enumerate(x):
        groups.setdefault(row.tobytes(), []).append(i)
    idx = list(groups.values())
    return (np.stack([x[g[0]] for g in idx]),
            np.array([y[g].mean() for g in idx]))


def test_dedupe_rows_matches_loop_reference():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((5, 3))
    base[1] = [0.0, 1.0, 2.0]
    base[2] = [-0.0, 1.0, 2.0]          # differs from row 1 only in its bytes
    x = base[rng.integers(0, 5, size=40)]
    y = rng.standard_normal(40)
    xu, yu = dedupe_rows(x, y)
    xr, yr = _dedupe_rows_loop(x, y)
    assert np.array_equal(xu, xr)
    assert np.array_equal(np.signbit(xu), np.signbit(xr))
    assert np.allclose(yu, yr, rtol=1e-14, atol=1e-15)


def test_dedupe_rows_no_duplicates_is_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    xu, yu = dedupe_rows(x, y)
    assert np.array_equal(xu, x)
    assert np.array_equal(yu, y)


# numpy.linalg routines that factor, invert or take determinants; outside
# rkhs_oed.linalg they would bypass its one Cholesky path and its
# ill-conditioning checks
FACTORING = {"solve", "inv", "slogdet", "det", "cholesky"}


def _factoring_uses(source):
    """(line, name) of every np.linalg / numpy.linalg routine in FACTORING
    that source references or imports."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in FACTORING
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            uses.append((node.lineno, node.attr))
        elif (isinstance(node, ast.ImportFrom)
              and node.module == "numpy.linalg"):
            uses += [(node.lineno, a.name) for a in node.names
                     if a.name in FACTORING]
    return sorted(uses)


def test_factoring_scan_finds_every_form():
    source = ("import numpy as np\nfrom numpy.linalg import det\n"
              "x = np.linalg.solve(a, b)\nf = numpy.linalg.cholesky\n"
              "y = np.linalg.svd(a)\n")
    assert _factoring_uses(source) == [(2, "det"), (3, "solve"),
                                       (4, "cholesky")]


def test_only_linalg_module_factors_matrices():
    root = pathlib.Path(rkhs_oed.__file__).parent
    found = [f"{path.relative_to(root)}:{line} {name}"
             for path in sorted(root.rglob("*.py"))
             if path != root / "linalg.py"
             for line, name in _factoring_uses(path.read_text())]
    assert found == []
