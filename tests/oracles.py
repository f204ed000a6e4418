"""Test oracles shared by several test files: independent re-checks of what
the library builds, kept out of the library itself."""

from dgkit.complexes import ChainMap, Complex, Violation
from dgkit.dga import DgAlgebra, DgBimodule, DgModule, regular_bimodule
from dgkit.homtensor import tensor_over
from dgkit.modops import DgModuleMap, FreeModule, matrices_from_images


def validate_complex(C: Complex):
    """Check d*d = 0 everywhere; returns True or a Violation whose witness is
    (column, the dense column of d*d there)."""
    for n in list(C.diffs):
        prod = C.d(n - 1) * C.d(n)
        for j, col in enumerate(prod.columns):
            if col:
                dense = tuple(col.get(i, C.field.zero) for i in range(prod.rows))
                return Violation(n, "d ∘ d != 0", (j, dense))
    return True


def tensor_unit_iso(A: DgAlgebra, N) -> ChainMap:
    """The unit-law quasi-isomorphism A ⊗_A N -> N (it is an isomorphism)."""
    T = tensor_over(A, regular_bimodule(A), N)
    act = N.act_left if isinstance(N, DgBimodule) else N.act
    # the ground pair (a, n) maps to a·n
    mats = matrices_from_images(T, N, lambda pair, d: act.get(pair, {}))
    return ChainMap(T.complex, N.underlying(), mats)


def augmentation(free: FreeModule, target: DgModule) -> DgModuleMap:
    """ε: the generators' eps values extended A-linearly, a·g ↦ a·ε(g)."""
    one = free.algebra.field.one

    def image(idx, n):
        g, a = free.split(idx)
        return target.act_elem({a: one}, free.gens[g].eps)

    M = free.module
    return DgModuleMap(M, target, matrices_from_images(M, target, image))
