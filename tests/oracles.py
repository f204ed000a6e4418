"""Test oracles shared by several test files: independent re-checks of what
the library builds, kept out of the library itself."""

from dgkit.complexes import ChainMap, Complex, Violation
from dgkit.dga import DgAlgebra, DgBimodule, regular_bimodule
from dgkit.homtensor import tensor_over
from dgkit.modops import matrices_from_images


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
