import itertools
import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitor import lattice
from equitor.errors import CappedComputationError, InputError
from equitor.lattice import (
    EMPTY,
    FM_MAX_ROWS,
    FOUND,
    QuotientGroup,
    Sublattice,
    column_hnf,
    coset_orthant_search,
    kernel_basis,
    mat_vec,
    matrix_rank,
    quotient_structure,
    rational_shifted_cone_nonempty,
    smith_normal_form,
    solve_diophantine,
)
from equitor.semigroup import Budget
from conftest import identity_matrix


def matrix(entries):
    """A matrix as the engine holds it: a tuple of row tuples."""
    return tuple(map(tuple, entries))


def width(M):
    return len(M[0]) if M else 0


def diag_entries(S):
    return [S[i][i] for i in range(min(len(S), width(S)))]


def matmul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A)


def is_diagonal(M):
    return all(x == 0 for i, row in enumerate(M) for j, x in enumerate(row) if i != j)


def check_snf(M):
    S, U, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == S
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
    S = check_snf(matrix([[2, 0], [0, 3]]))
    assert [abs(x) for x in diag_entries(S)] == [1, 6]


def test_snf_single_row():
    S = check_snf(matrix([[1, 1, 1, -3]]))
    assert S == ((1, 0, 0, 0),)


def test_snf_random_reconstruction():
    rng = random.Random(7)
    for _ in range(30):
        M = matrix([[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)])
        check_snf(M)


def test_snf_empty_and_degenerate():
    check_snf(matrix([]))
    check_snf(matrix([[0, 0], [0, 0]]))
    check_snf(matrix([[5]]))


def smith_form(rng, rows, cols):
    """A random matrix already in Smith form: a divisibility chain of
    positive entries, repeats included, then a zero tail."""
    n = min(rows, cols)
    d = [1]
    for _ in range(rng.randint(0, n)):
        d.append(d[-1] * rng.choice([1, 1, 2, 3]))
    d = d[1:] + [0] * (n - len(d) + 1)
    return matrix([[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)])


def test_smith_form_inputs_return_at_once():
    rng = random.Random(41)
    # a matrix without rows has no columns either, so 0 x n is 0 x 0; an
    # n x 0 matrix is n empty rows
    mats = [(), ((),) * 3]
    mats += [smith_form(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(80)]
    mats += [matrix([[2, 0, 0], [0, 2, 0]]), matrix([[1, 0], [0, 0], [0, 0]])]
    for M in mats:
        assert smith_normal_form(M) == (M, identity_matrix(len(M)), identity_matrix(width(M)))


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
    M = matrix(rows)
    S = check_snf(M)
    assert smith_normal_form(M) != (M, identity_matrix(len(M)), identity_matrix(width(M)))
    assert smith_normal_form(S) == (S, identity_matrix(len(S)), identity_matrix(width(S)))


def test_solve_diophantine_basic():
    sol = solve_diophantine(matrix([[2]]), (4,))
    assert sol is not None
    x0, cols = sol
    ker = Sublattice.from_columns(cols, 1)
    assert x0 == (2,)
    assert ker.rank == 0

    assert solve_diophantine(matrix([[2]]), (3,)) is None


def test_solve_diophantine_kernel():
    M = matrix([[1, 1, 1, -3]])
    sol = solve_diophantine(M, (0,))
    assert sol is not None
    x0, cols = sol
    ker = Sublattice.from_columns(cols, width(M))
    assert mat_vec(M, x0) == (0,)
    assert ker.rank == 3
    for col in ker.basis:
        assert mat_vec(M, col) == (0,)
    assert ker.contains((1, -1, 0, 0))


def test_solve_diophantine_random_against_kernel():
    rng = random.Random(11)
    for _ in range(25):
        M = matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)])
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        b = mat_vec(M, x)
        sol = solve_diophantine(M, b)
        assert sol is not None
        x0, cols = sol
        ker = Sublattice.from_columns(cols, width(M))
        assert mat_vec(M, x0) == b
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
        M = matrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        x = tuple(rng.randint(-3, 3) for _ in range(cols))
        calls.clear()
        sol = solve_diophantine(M, mat_vec(M, x))
        assert len(calls) == 1
        x0, cols = sol
        assert mat_vec(M, x0) == mat_vec(M, x)
        ker = Sublattice.from_columns(cols, width(M))
        assert ker == Sublattice.from_columns(kernel_basis(M), width(M))
        b = tuple(rng.randint(-3, 3) for _ in range(rows))
        calls.clear()
        sol = solve_diophantine(M, b)
        assert len(calls) == 1
        assert sol is None or mat_vec(M, sol[0]) == b


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


def _eliminated_intersection(a, b):
    """L ∩ M by elimination alone: the kernel of (L | -M) mapped through L."""
    if not a.basis or not b.basis:
        return Sublattice(a.ambient, ())
    stacked = tuple(zip(*a.basis, *[tuple(-x for x in c) for c in b.basis]))
    bmat = tuple(zip(*a.basis))
    return Sublattice.from_columns([mat_vec(bmat, k[: a.rank]) for k in kernel_basis(stacked)], a.ambient)


def _eliminated_quotient(generators, denominator):
    """The invariant factors of (span + D) / D by the Hermite and Smith forms
    alone: D in the numerator's basis, then its quotient's factors."""
    num = Sublattice.from_columns(list(generators) + list(denominator.basis), denominator.ambient)
    if num.rank == 0:
        return ()
    xcols = [num.coordinates(c) for c in denominator.basis]
    return QuotientGroup.of(Sublattice.from_columns(xcols, num.rank)).invariant_factors


@st.composite
def lattice_pairs(draw):
    """Two sublattices of Z^1..Z^5 that are nested (either way round), equal,
    zero on one side, or drawn apart; with a torsion relation lattice
    (m e_i) inside both when one is drawn, as in a character group."""
    n = draw(st.integers(1, 5))
    vecs = st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=4)
    moduli = draw(st.lists(st.integers(2, 6), max_size=n))
    rel = [tuple(m * (j == n - 1 - i) for j in range(n)) for i, m in enumerate(moduli)]
    a_cols = draw(vecs) + rel
    kind = draw(st.sampled_from(["nested", "equal", "zero", "apart"]))
    if kind == "nested":
        coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(a_cols), max_size=len(a_cols)), max_size=4))
        b_cols = [tuple(sum(k * c[i] for k, c in zip(ks, a_cols)) for i in range(n)) for ks in coeffs]
        b_cols += [tuple(draw(st.integers(1, 3)) * x for x in c) for c in rel]
    elif kind == "equal":
        b_cols = list(reversed(a_cols)) + [tuple(x + y for x, y in zip(c, a_cols[0])) for c in a_cols[1:]]
    elif kind == "zero":
        b_cols = []
    else:
        b_cols = draw(vecs) + rel
    a, b = Sublattice.from_columns(a_cols, n), Sublattice.from_columns(b_cols, n)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=300, deadline=None)
@given(lattice_pairs())
def test_intersect_and_sum_match_the_elimination_route(pair):
    # a containment short-circuit returns the operand as it is, which must
    # be the canonical form that the kernel and the Hermite form give
    a, b = pair
    assert a.intersect(b) == _eliminated_intersection(a, b)
    assert a.sum(b) == Sublattice.from_columns(list(a.basis) + list(b.basis), a.ambient)


@settings(max_examples=300, deadline=None)
@given(lattice_pairs(), st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=3), st.integers(0, 3))
def test_quotient_structure_matches_the_elimination_route(pair, coeffs, outside):
    # generators inside the denominator (combinations of its basis), then
    # up to `outside` more from the other lattice, which may leave it
    denominator, other = pair
    n = denominator.ambient
    inside = [
        tuple(sum(k * c[i] for k, c in zip(ks, denominator.basis)) for i in range(n)) for ks in coeffs
    ]
    gens = inside + list(other.basis[:outside])
    assert quotient_structure(gens, denominator) == _eliminated_quotient(gens, denominator)


def test_kernel_basis_shapes():
    ker = kernel_basis(matrix([[1, 1]]))
    assert Sublattice.from_columns(ker, 2) == Sublattice.from_columns([(1, -1)], 2)
    M = matrix([[1, 1, 1]])
    ker = kernel_basis(M)
    assert len(ker) == 2
    for col in ker:
        assert mat_vec(M, col) == (0,)
    # random shapes with zero rows, zero columns and dependent rows: the
    # columns are an independent kernel set spanning what the Smith route spans
    rng = random.Random(19)
    mats = [(), ((),) * 2, matrix([[0, 0, 0], [0, 0, 0]])]
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
        mats.append(matrix(A))
    for M in mats:
        ker = kernel_basis(M)
        for col in ker:
            assert len(col) == width(M) and mat_vec(M, col) == (0,) * len(M)
        assert matrix_rank(ker) == len(ker)
        spanned = Sublattice.from_columns(solve_diophantine(M, (0,) * len(M))[1], width(M))
        assert Sublattice.from_columns(ker, width(M)) == spanned


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
