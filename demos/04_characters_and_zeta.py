"""Characters and the zeta-regularization identity.

Two self-contained q-series facts close the circle: the highest-weight
characters at t = omega^{-1} q^{(k+2)/2} match a Virasoro-style alternating
sum, and the divergent self-contraction of a current, regularized by
zeta(1-2m), knows the p-binomial vacuum eigenvalues exactly.
"""

from deformedw.characters import (admissible_spins, dza_character,
                                  partition_series, rocha_caridi,
                                  verify_char_identity)
from deformedw.context import DEFAULT_GENERIC_POINTS, ScalarCtx
from deformedw.exact import rat
from deformedw.zeta import (a_coefficients, bernoulli, verify_zeta_identity,
                            verify_vacuum_eigenvalue, zeta_value)

print("partition generating function (1/(y;y)):",
      [int(partition_series(9).coefficient(n)) for n in range(9)])

print("\nclassical cross-check, the (3,4) vacuum character:")
ch = rocha_caridi(3, 4, 1, 1, 8)
print(" ", [int(ch.coefficient(n)) for n in range(7)])

print("\ncharacter identity for k = 2, all spins, cutoff y^20:")
for j in admissible_spins(2):
    rec = verify_char_identity(2, j, 20)
    dza = dza_character(2, j, 6)
    lead = rat(min(dza.coeffs), dza.res)
    print(f"  j = {j}: {rec.status}   leading term y^({lead})")

print("\nbernoulli numbers (positive convention) and zeta values:")
print(" ", {m: str(bernoulli(m)) for m in (1, 2, 3)})
print("  zeta(-1) =", zeta_value(1), " (12 * zeta(-1) =", 12 * zeta_value(1),
      "-- the bosonic-string normal-ordering shift)")

print("\nthe zeta-regularized self-contraction identity, N = 2:")
beta = rat(3, 2)
a = a_coefficients(2, 1, beta, 3)
print(f"  expansion coefficients a_2m at beta = {beta}:",
      {m: str(v) for m, v in a.items()})
rec = verify_zeta_identity(2, 1, beta, M=6)
print("  exp(sum a_2m zeta(1-2m) hbar^2m) = ([2]_p / 2)^2:", rec.status,
      "-", rec.detail)

print("\nvacuum eigenvalues are p-binomials (exact, generic point):")
q, t = DEFAULT_GENERIC_POINTS[0]
for N in (2, 3, 4):
    ctx = ScalarCtx.generic(N, q, t)
    marks = [verify_vacuum_eigenvalue(ctx, i).status for i in range(N + 1)]
    print(f"  N = {N}:", marks)
