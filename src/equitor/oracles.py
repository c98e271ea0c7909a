"""Brute-force ground truth, deliberately naive and independent of the
divisor-theoretic path: null-fiber dimension by face enumeration, bounded
module freeness by degree slices, divisor class orders by direct
diophantine solves, and unit weights by the Hilbert basis of a paired
system."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CappedComputationError, InputError
from .lattice import matrix_rank, solve_diophantine
from .semigroup import (
    AffineSemigroup,
    Budget,
    Vec,
    WeightedAction,
    enumerate_fiber,
    hilbert_basis,
)
from .subgroups import SubgroupOfA

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FaceLatticeSlice:
    """Distinct faces of cone(S): Hilbert-basis index set, rank, and the
    coordinates forced to zero by a defining facet subset."""

    faces: tuple[tuple[frozenset[int], int, frozenset[int]], ...]


MAX_FACES = 4096


def face_lattice(S: AffineSemigroup) -> FaceLatticeSlice:
    """All faces of cone(S), as intersections of facets."""
    hb = S.hilbert_basis
    all_idx = frozenset(range(len(hb)))
    seen: dict[frozenset[int], tuple[int, frozenset[int]]] = {}
    n_facets = S.facet_count
    for r in range(n_facets + 1):
        for subset in combinations(range(n_facets), r):
            idx = all_idx
            for fi in subset:
                idx &= S.facets[fi].zero_set
            if idx not in seen:
                if len(seen) >= MAX_FACES:
                    raise CappedComputationError("face enumeration", MAX_FACES)
                coords = frozenset(S.facets[fi].coord for fi in subset)
                seen[idx] = (matrix_rank([hb[i] for i in idx]), coords)
    faces = tuple(
        sorted(((k, v[0], v[1]) for k, v in seen.items()), key=lambda t: (t[1], sorted(t[0])))
    )
    return FaceLatticeSlice(faces)


def null_fiber_dimension(
    S_X: AffineSemigroup, S_G: AffineSemigroup
) -> tuple[int, bool]:
    """Dimension of the fiber over the cone point, and the verdict that it
    matches the generic fiber dimension (equidimensionality of the quotient).

    A face carries no invariants iff no nonzero invariant generator vanishes
    on all its defining coordinates; the null fiber is the union of such
    faces, so its dimension is their maximal rank.
    """
    slice_ = face_lattice(S_X)
    best = 0
    for _idx, rank, coords in slice_.faces:
        if rank <= best:
            continue
        if not _face_has_invariants(coords, S_G):
            best = rank
    expected = S_X.rank - S_G.rank
    return best, best == expected


def _face_has_invariants(zero_coords: frozenset[int], S_G: AffineSemigroup) -> bool:
    for h in S_G.hilbert_basis:
        if any(h) and all(h[c] == 0 for c in zero_coords):
            return True
    return False


def bounded_freeness_oracle(
    S_G: AffineSemigroup,
    action: WeightedAction,
    chi: Vec,
    degree_cap: int,
    budget: Budget,
) -> str:
    """Tri-state freeness check on the degree slice [0, degree_cap].

    Finds the minimal-degree fiber monomial and compares the sliced fiber
    with its translate of the invariant semigroup; a violation inside the
    slice is conclusive, agreement is a verdict only at this cap.
    """
    fiber = enumerate_fiber(action, chi, degree_cap, budget=budget)
    if not fiber:
        return INCONCLUSIVE
    a = fiber[0]
    for b in fiber:
        diff = tuple(x - y for x, y in zip(b, a))
        if not S_G.contains(diff):
            return NO
    return YES


def brute_force_class_order(
    S: AffineSemigroup, coeffs: Vec, bound: int
) -> int | None:
    """Least m <= bound with m * D in the valuation image, by direct solves."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    basis = S.lattice.basis
    nf = S.facet_count
    if len(coeffs) != nf:
        raise InputError("one coefficient per facet required")
    from .lattice import IntMatrix

    val_cols = [S.valuation_vector(col) for col in basis]
    M = IntMatrix.from_cols(val_cols, nf) if val_cols else IntMatrix.from_rows([() for _ in range(nf)])
    for m in range(1, bound + 1):
        target = tuple(m * c for c in coeffs)
        if val_cols:
            if solve_diophantine(M, target) is not None:
                return m
        else:
            if all(c == 0 for c in target):
                return m
    return None


def paired_unit_lattice(action: WeightedAction, budget: Budget) -> SubgroupOfA:
    """Unit-weight subgroup from the paired system {(a,b): wt(a) + wt(b) = 0}:
    the weights of the first halves of its Hilbert basis generate the units.
    Reference route for `weight_unit_lattice`."""
    n = action.ambient_dim
    congs = []
    for coeffs, m in action.congruences:
        congs.append((tuple(coeffs) + (0,) * n, m))
        congs.append(((0,) * n + tuple(coeffs), m))
    for coeffs, m in action.weight_rows():
        congs.append((tuple(coeffs) + tuple(coeffs), m))
    pairs = hilbert_basis(tuple(congs), 2 * n, budget)
    return SubgroupOfA.generated_by(action, [action.raw_weight(p[:n]) for p in pairs])
