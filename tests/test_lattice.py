import itertools
import random
from math import gcd, lcm, prod

import pytest

from equitor import lattice
from equitor.errors import CappedComputationError, InputError
from equitor.lattice import (
    EMPTY,
    FM_MAX_ROWS,
    FOUND,
    IntMatrix,
    QuotientGroup,
    Sublattice,
    column_hnf,
    coset_orthant_search,
    kernel_basis,
    matrix_rank,
    quotient_structure,
    rational_shifted_cone_nonempty,
    smith_normal_form,
    solve_diophantine,
)
from equitor.semigroup import Budget
from conftest import identity_matrix


def diag_entries(S):
    return [S.entries[i][i] for i in range(min(S.rows, S.cols))]


def matmul(A, B):
    cols = tuple(zip(*B.entries))
    return IntMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A.entries))


def is_diagonal(M):
    return all(x == 0 for i, row in enumerate(M.entries) for j, x in enumerate(row) if i != j)


def check_snf(M):
    S, U, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V).entries == S.entries
    assert is_diagonal(S)
    d = [abs(x) for x in diag_entries(S)]
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # unimodularity via SNF of the transforms themselves: all diag +-1
    for T in (U, V):
        D, _, _ = smith_normal_form(T)
        assert all(abs(x) == 1 for x in diag_entries(D))
    return S


def test_snf_diag_2_3():
    S = check_snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert [abs(x) for x in diag_entries(S)] == [1, 6]


def test_snf_single_row():
    S = check_snf(IntMatrix.from_rows([[1, 1, 1, -3]]))
    assert S.entries == ((1, 0, 0, 0),)


def test_snf_random_reconstruction():
    rng = random.Random(7)
    for _ in range(30):
        M = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        )
        check_snf(M)


def test_snf_empty_and_degenerate():
    check_snf(IntMatrix.from_rows([]))
    check_snf(IntMatrix.from_rows([[0, 0], [0, 0]]))
    check_snf(IntMatrix.from_rows([[5]]))


def smith_form(rng, rows, cols):
    """A random matrix already in Smith form: a divisibility chain of
    positive entries, repeats included, then a zero tail."""
    n = min(rows, cols)
    d = [1]
    for _ in range(rng.randint(0, n)):
        d.append(d[-1] * rng.choice([1, 1, 2, 3]))
    d = d[1:] + [0] * (n - len(d) + 1)
    return IntMatrix.from_rows([[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)])


def test_smith_form_inputs_return_at_once():
    rng = random.Random(41)
    # an IntMatrix without rows has no columns either, so 0 x n is 0 x 0;
    # from_cols builds n x 0 from no columns
    mats = [IntMatrix.from_rows([]), IntMatrix.from_cols([], 3), IntMatrix.from_cols([(), (), ()], 0)]
    mats += [smith_form(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(80)]
    mats += [IntMatrix.from_rows([[2, 0, 0], [0, 2, 0]]), IntMatrix.from_rows([[1, 0], [0, 0], [0, 0]])]
    for M in mats:
        assert smith_normal_form(M) == (M, identity_matrix(M.rows), identity_matrix(M.cols))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0], [0, 2]],  # a zero before a positive entry
        [[4, 0], [0, 2]],  # no divisibility chain
        [[-1, 0], [0, 2]],  # a negative diagonal entry
        [[2, 0], [0, -4]],
        [[1, 1], [0, 1]],  # one off-diagonal entry
        [[2, 0, 0], [0, 4, 6]],
        [[3], [1]],
    ],
)
def test_near_smith_inputs_take_the_elimination(rows):
    M = IntMatrix.from_rows(rows)
    S = check_snf(M)
    assert smith_normal_form(M) != (M, identity_matrix(M.rows), identity_matrix(M.cols))
    assert smith_normal_form(S) == (S, identity_matrix(S.rows), identity_matrix(S.cols))


def test_solve_diophantine_basic():
    sol = solve_diophantine(IntMatrix.from_rows([[2]]), (4,))
    assert sol is not None
    x0, cols = sol
    ker = Sublattice.from_columns(cols, 1)
    assert x0 == (2,)
    assert ker.rank == 0

    assert solve_diophantine(IntMatrix.from_rows([[2]]), (3,)) is None


def test_solve_diophantine_kernel():
    M = IntMatrix.from_rows([[1, 1, 1, -3]])
    sol = solve_diophantine(M, (0,))
    assert sol is not None
    x0, cols = sol
    ker = Sublattice.from_columns(cols, M.cols)
    assert M.mul_vec(x0) == (0,)
    assert ker.rank == 3
    for col in ker.basis:
        assert M.mul_vec(col) == (0,)
    assert ker.contains((1, -1, 0, 0))


def test_solve_diophantine_random_against_kernel():
    rng = random.Random(11)
    for _ in range(25):
        M = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)])
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        b = M.mul_vec(x)
        sol = solve_diophantine(M, b)
        assert sol is not None
        x0, cols = sol
        ker = Sublattice.from_columns(cols, M.cols)
        assert M.mul_vec(x0) == b
        diff = tuple(a - c for a, c in zip(x, x0))
        assert ker.contains(diff)


def test_solve_diophantine_factors_once(monkeypatch):
    """One Smith factorization per solve, whose V also gives the kernel."""
    calls = []

    def counted(M):
        calls.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    rng = random.Random(13)
    shapes = [(0, 0), (2, 0), (1, 3), (3, 1)]
    shapes += [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(30)]
    for rows, cols in shapes:
        M = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        x = tuple(rng.randint(-3, 3) for _ in range(cols))
        calls.clear()
        sol = solve_diophantine(M, M.mul_vec(x))
        assert len(calls) == 1
        x0, cols = sol
        assert M.mul_vec(x0) == M.mul_vec(x)
        ker = Sublattice.from_columns(cols, M.cols)
        assert ker == Sublattice.from_columns(kernel_basis(M), M.cols)
        b = tuple(rng.randint(-3, 3) for _ in range(rows))
        calls.clear()
        sol = solve_diophantine(M, b)
        assert len(calls) == 1
        assert sol is None or M.mul_vec(sol[0]) == b


def test_class_order_example_mod3():
    # facet class in Z^3 / {m : m1+m2+m3 = 0 mod 3} has order 3
    L = Sublattice.from_columns([(1, -1, 0), (0, 1, -1), (3, 0, 0)], 3)
    assert QuotientGroup.of(L).order_of((1, 0, 0)) == 3
    assert QuotientGroup.of(L).order_of((1, 1, 1)) == 1  # 3 | 3 -> in L
    assert QuotientGroup.of(L).order_of((1, 2, 0)) == 1


def test_class_order_trivial_and_infinite():
    L = Sublattice.from_columns([(0, 1)], 2)
    assert QuotientGroup.of(L).order_of((0, 5)) == 1
    assert QuotientGroup.of(L).order_of((1, 0)) is None


def test_class_order_matches_direct_membership():
    rng = random.Random(5)
    for _ in range(40):
        cols = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        L = Sublattice.from_columns(cols + [(6, 0, 0), (0, 6, 0), (0, 0, 6)], 3)
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        m = QuotientGroup.of(L).order_of(v)
        assert m is not None and m <= 1000
        assert L.contains(tuple(m * x for x in v))
        for k in range(1, m):
            assert not L.contains(tuple(k * x for x in v))


def test_hnf_canonical_for_equal_lattices():
    rng = random.Random(3)
    for _ in range(20):
        cols = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4)]
        L = Sublattice.from_columns(cols, 4)
        # shuffle + unimodular mix generates the same lattice
        mixed = [tuple(a + b for a, b in zip(cols[0], cols[1]))] + cols[1:] + cols[:1]
        rng.shuffle(mixed)
        assert Sublattice.from_columns(mixed, 4) == L


def test_subgroup_algebra_examples():
    two = Sublattice.from_columns([(2,)], 1)
    three = Sublattice.from_columns([(3,)], 1)
    assert two.sum(three) == Sublattice.from_columns([(1,)], 1)
    assert two.intersect(three) == Sublattice.from_columns([(6,)], 1)
    assert two.scale(2) == Sublattice.from_columns([(4,)], 1)
    assert two.contains((4,)) is True
    assert two.contains((3,)) is False


def test_subgroup_algebra_commutes_and_associates():
    rng = random.Random(17)
    for _ in range(12):
        lats = [
            Sublattice.from_columns(
                [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(rng.randint(1, 4))], 4
            )
            for _ in range(3)
        ]
        a, b, c = lats
        assert a.sum(b) == b.sum(a)
        assert a.intersect(b) == b.intersect(a)
        assert a.sum(b.sum(c)) == a.sum(b).sum(c)
        assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)


def _combination(rng, cols, ambient):
    v = [0] * ambient
    for c in cols:
        k = rng.randint(-6, 6)
        v = [x + k * y for x, y in zip(v, c)]
    return tuple(v)


def test_intersect_against_membership():
    rng = random.Random(23)
    for _ in range(15):
        a = Sublattice.from_columns(
            [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)] + [(4, 0, 0), (0, 4, 0), (0, 0, 4)], 3
        )
        b = Sublattice.from_columns(
            [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)] + [(6, 0, 0), (0, 6, 0), (0, 0, 6)], 3
        )
        both = a.intersect(b)
        for col in both.basis:
            assert a.contains(col) and b.contains(col)
        for _ in range(20):
            v = tuple(rng.randint(-6, 6) for _ in range(3))
            assert both.contains(v) == (a.contains(v) and b.contains(v))
    # ambient 5, lattices of rank 0 to 4 that share some directions (scaled
    # by 2 in a and by 3 in b), a with a dependent generator; test vectors
    # are drawn from each lattice and from the shared span, so that
    # membership goes every way
    for _ in range(40):
        shared = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(rng.randint(0, 2))]
        gens_a = [tuple(rng.choice([1, 2]) * x for x in c) for c in shared]
        gens_a += [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(rng.randint(0, 2))]
        if gens_a:
            gens_a.append(tuple(x - 2 * y for x, y in zip(gens_a[0], gens_a[-1])))
        gens_b = [tuple(rng.choice([1, 3]) * x for x in c) for c in shared]
        gens_b += [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(rng.randint(0, 2))]
        a, b = Sublattice.from_columns(gens_a, 5), Sublattice.from_columns(gens_b, 5)
        both = a.intersect(b)
        assert both == b.intersect(a)
        for col in both.basis:
            assert a.contains(col) and b.contains(col)
        for _ in range(10):
            for gens in (a.basis, b.basis, shared):
                v = _combination(rng, gens, 5)
                assert both.contains(v) == (a.contains(v) and b.contains(v))


def test_kernel_basis_shapes():
    ker = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert Sublattice.from_columns(ker, 2) == Sublattice.from_columns([(1, -1)], 2)
    M = IntMatrix.from_rows([[1, 1, 1]])
    ker = kernel_basis(M)
    assert len(ker) == 2
    for col in ker:
        assert M.mul_vec(col) == (0,)
    # random shapes with zero rows, zero columns and dependent rows: the
    # columns are an independent kernel set spanning what the Smith route spans
    rng = random.Random(19)
    mats = [IntMatrix.from_rows([]), IntMatrix.from_cols([], 2), IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])]
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            A[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in A:
                row[j] = 0
        if rng.random() < 0.3:
            A.append([x + 2 * y for x, y in zip(A[0], A[-1])])
        mats.append(IntMatrix.from_rows(A))
    for M in mats:
        ker = kernel_basis(M)
        for col in ker:
            assert len(col) == M.cols and M.mul_vec(col) == (0,) * M.rows
        assert matrix_rank(ker) == len(ker)
        spanned = Sublattice.from_columns(solve_diophantine(M, (0,) * M.rows)[1], M.cols)
        assert Sublattice.from_columns(ker, M.cols) == spanned


def test_matrix_rank():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(0, 0)]) == 0
    assert matrix_rank([]) == 0
    rng = random.Random(31)
    for _ in range(20):
        rows = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(2)]
        v = tuple(2 * a + 3 * b for a, b in zip(rows[0], rows[1]))
        assert matrix_rank(rows + [v]) == matrix_rank(rows)


def test_quotient_group_structure():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    q = QuotientGroup.of(Sublattice.from_columns([(2, 0), (0, 3)], 2))
    assert q.invariant_factors == (6,)
    assert prod(q.invariant_factors) == 6
    assert lcm(*q.invariant_factors) == 6
    q2 = QuotientGroup.of(Sublattice.from_columns([(2, 0)], 2))
    assert q2.invariant_factors == (2, 0)
    assert 0 in q2.invariant_factors  # a free factor: the group is infinite


def test_quotient_structure_of_subgroup():
    # subgroup <(1,0)> of Z^2 / <(3,0),(0,2)>: cyclic of order 3
    den = Sublattice.from_columns([(3, 0), (0, 2)], 2)
    assert quotient_structure([(1, 0)], den) == (3,)
    assert quotient_structure([(1, 1)], den) == (6,)
    assert quotient_structure([], den) == ()


def test_ambient_mismatch_errors():
    a = Sublattice.from_columns([(1,)], 1)
    b = Sublattice.from_columns([(1, 0)], 2)
    with pytest.raises(InputError):
        a.sum(b)
    with pytest.raises(InputError):
        QuotientGroup.of(a).order_of((1, 0))


def test_fourier_motzkin_blowup_is_a_cap():
    # 150 rows with a positive and 150 with a negative first coefficient
    # pair into more than FM_MAX_ROWS distinct rows in the first step
    n = 300
    x0 = tuple(i % 13 for i in range(n))
    cols = [
        tuple((1 if i % 2 else -1) * (1 + i % 7) for i in range(n)),
        tuple(range(n)),
        tuple(i * i % 101 for i in range(n)),
    ]
    with pytest.raises(CappedComputationError) as err:
        rational_shifted_cone_nonempty(x0, cols)
    assert err.value.cap == FM_MAX_ROWS == 20000


def test_sublattice_coordinates_round_trip():
    L = Sublattice.from_columns([(2, 0), (0, 3)], 2)
    assert L.coordinates((4, 9)) == (2, 3)
    assert L.coordinates((1, 0)) is None and not L.contains((1, 0))
    rng = random.Random(41)
    outside = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        L = Sublattice.from_columns(gens, n)
        # the cached pivots are the leading rows: positive, zeros above, increasing
        assert len(L.pivots) == L.rank and list(L.pivots) == sorted(set(L.pivots))
        assert all(col[p] > 0 and not any(col[:p]) for col, p in zip(L.basis, L.pivots))
        # reading them leaves equality and hashing to the basis (a dict key)
        fresh = Sublattice.from_columns(gens, n)
        assert L == fresh and hash(L) == hash(fresh) and {fresh: 1}[L] == 1
        coeffs = tuple(rng.randint(-5, 5) for _ in range(L.rank))
        v = tuple(sum(c * col[i] for c, col in zip(coeffs, L.basis)) for i in range(n))
        assert L.coordinates(v) == coeffs
        assert L.contains(v)
        w = tuple(rng.randint(-6, 6) for _ in range(n))
        got = L.coordinates(w)
        assert L.contains(w) == (got is not None)
        if got is None:
            # w is outside: adjoining it changes the lattice
            assert L.sum(Sublattice.from_columns([w], n)) != L
            outside += 1
        else:
            assert tuple(sum(c * col[i] for c, col in zip(got, L.basis)) for i in range(n)) == w
    assert outside >= 10


def test_coset_search_finds_every_rationally_empty_region_empty():
    # a one-node budget caps any search that reaches its first node, so an
    # EMPTY answer here comes from the projection onto y_0 alone
    rng = random.Random(43)
    empties = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        x0 = tuple(rng.randint(-4, 3) for _ in range(n))
        cols = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        if not rational_shifted_cone_nonempty(x0, cols):
            assert coset_orthant_search(x0, cols, Budget(max_nodes=1)) == (EMPTY, None)
            empties += 1
    assert empties >= 50


def test_rank_one_coset_is_decided_without_search_nodes():
    one = Budget(max_nodes=1)
    # both ends bounded: the lower end
    assert coset_orthant_search((-3, 5), [(1, -1)], one) == (FOUND, (0, 2))
    # only a lower end, only an upper end, no end at all
    assert coset_orthant_search((-3, 0), [(1, 1)], one) == (FOUND, (0, 3))
    assert coset_orthant_search((3,), [(-1,)], one) == (FOUND, (0,))
    assert coset_orthant_search((1, 2), [(0, 0)], one) == (FOUND, (1, 2))
    # an empty interval, and a zero column under a negative entry
    assert coset_orthant_search((-1, -1), [(1, -1)], one) == (EMPTY, None)
    assert coset_orthant_search((3, -1), [(-1, 0)], one) == (EMPTY, None)


def test_coset_search_matches_a_box_scan_on_bounded_regions():
    # rows B - y_j >= 0 and B + y_j >= 0 keep each region inside [-B, B]^r,
    # so a scan of that box decides it; two random slabs k <= c . y <= k + w
    # make the region thin, often with no integer point inside a rational one
    rng = random.Random(47)
    B = 3
    found = empty = walked_dry = 0
    for _ in range(200):
        r = rng.randint(2, 3)
        x0 = [B] * (2 * r)
        rows = [tuple(s * (i == j) for j in range(r)) for i in range(r) for s in (-1, 1)]
        for _ in range(2):
            c = tuple(rng.randint(-4, 4) for _ in range(r))
            k, w = rng.randint(-6, 6), rng.randint(0, 2)
            x0 += [-k, k + w]
            rows += [c, tuple(-v for v in c)]
        cols = [tuple(row[j] for row in rows) for j in range(r)]

        def point(y):
            return tuple(a + sum(v * c[i] for v, c in zip(y, cols)) for i, a in enumerate(x0))

        region = {point(y) for y in itertools.product(range(-B, B + 1), repeat=r)}
        region = {p for p in region if min(p) >= 0}
        status, got = coset_orthant_search(tuple(x0), cols, Budget())
        if region:
            assert status == FOUND and got in region
            found += 1
        else:
            assert (status, got) == (EMPTY, None)
            empty += 1
            walked_dry += rational_shifted_cone_nonempty(tuple(x0), cols)
    assert found >= 60 and empty >= 60 and walked_dry >= 40


def test_one_search_runs_one_elimination_chain(monkeypatch):
    calls = []
    step = lattice._fm_eliminate

    def spy(cons, *args):
        calls.append(args)
        return step(cons, *args)

    monkeypatch.setattr(lattice, "_fm_eliminate", spy)
    # the box [0, 2]^3 cut by y_0 + y_1 + y_2 >= 4: y_2 then y_1 go, once each
    x0 = (0, 0, 0, 2, 2, 2, -4)
    cols = [(1, 0, 0, -1, 0, 0, 1), (0, 1, 0, 0, -1, 0, 1), (0, 0, 1, 0, 0, -1, 1)]
    assert coset_orthant_search(x0, cols, Budget()) == (FOUND, (0, 2, 2, 2, 0, 0, 0))
    assert calls == [(2,), (1,)]
