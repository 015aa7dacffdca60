"""Recovering the classical categories at integer t.

At t = n the trace pairing degenerates; its radical is the tensor ideal of
negligible morphisms, and the quotient Hom dimensions match the classical
representation category of S_n.  An explicit matrix oracle realizes every
diagram on honest tensor powers of the n-dimensional representation and
confirms the composition law pair by pair.
"""

from fractions import Fraction

from interpcat import (
    KaroubiObject,
    annihilated_simples,
    compose,
    diagram_morphism,
    dim_simple,
    e_matrix,
    functor_image_rank,
    gram,
    gram_determinant_symbolic,
    hom_dim_classical,
    identity,
    is_negligible,
    negligible_basis,
    partition_diagram,
    quotient_dim,
    RF_T,
    sig_s,
    verify_structure_constants,
    young_symmetrizer,
)

# --- the Gram matrix of the trace pairing ------------------------------------

print("symbolic Gram determinant on End([1]):", gram_determinant_symbolic(1, 1))
for t0 in (1, 2, Fraction(5, 2)):
    rep = gram(1, 1, t0)
    print(f"at t = {t0}: rank {rep.rank}, nullity {rep.nullity}")

# At t = 1 the difference of the two basis diagrams becomes invisible to
# every trace: a negligible morphism.
pi = partition_diagram(1, 1, [(1,), (-1,)])
f = identity(sig_s(1)) - diagram_morphism(pi)
print("\nid - pi negligible at t = 1:", is_negligible(f, 1))
print("id - pi negligible at t = 2:", is_negligible(f, 2))
print("radical basis of End([1]) at t = 1:", [str(v) for v in negligible_basis(1, 1, 1)])

# Quotient Hom dimensions recover classical ones.
print("\nquotient dim of End(V (x) V) at n = 2:", quotient_dim(2, 2, 2))
print("classical dim by matrix rank         :", hom_dim_classical(2, 2, 2))

# Simples killed by the quotient: |lambda| + lambda_1 > n.
for n in range(4):
    print(f"annihilated at n = {n}:", annihilated_simples(n, 2))

# --- the matrix oracle -------------------------------------------------------

print("\ne-matrix of pi at n = 3 (the all-ones averaging map):")
print("[" + "\n ".join("[" + " ".join(map(str, row)) + "]" for row in e_matrix(pi, 3)) + "]")

rep = verify_structure_constants(2, 1, 2, 3)
print("\nstructure constants on Hom([2],[1]) x Hom([1],[2]) at n = 3:",
      f"{rep['pairs']} pairs, passed = {rep['passed']}")

# The interpolation functor sends ([m], e) to the image of e's matrix; its
# rank equals the generic dimension wherever the object survives.
std = KaroubiObject(sig_s(1), identity(sig_s(1)) - diagram_morphism(pi) / RF_T)
print("\nstandard-representation ranks for n = 2..6:",
      [functor_image_rank(std, n) for n in range(2, 7)],
      " (generic dim:", str(dim_simple((1,))) + ")")

sym = KaroubiObject(sig_s(2), young_symmetrizer((2,)))
print("S^2 V ranks for n = 2..6:", [functor_image_rank(sym, n) for n in range(2, 7)],
      " (n(n+1)/2)")
