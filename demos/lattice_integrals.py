"""Tour of the lattice side: the Hamiltonian, its commuting family, and
the two classical degenerations.

The Hamiltonian acts on functions of a partition lambda by nearest-level
hops with coefficients v+/v- built from q-Pochhammer ratios; the higher
integrals H_l hop along index sets of size up to l.  Everything here is
exact rational arithmetic.
"""

from fractions import Fraction

from rsmorse.latticeop import (
    LatticeFunction,
    apply_H,
    apply_Hl,
    commutator_on_delta,
    hop_terms,
    morse_vanishing_limit_check,
    ruijsenaars_limit_check,
    v_minus,
    v_plus,
)
from rsmorse.qcore import params_from_hat

params = params_from_hat(
    Fraction(1, 4), Fraction(1, 3), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))
)
print("couplings:", params.as_dict())
print()

lam = (2, 1)
print(f"hop coefficients at lambda = {lam}:")
for j in (1, 2):
    print(f"  v+_{j} = {v_plus(lam, j, params)}   v-_{j} = {v_minus(lam, j, params)}")
print()

delta = LatticeFunction.delta(lam)
image = apply_H(delta, params)
print(f"H delta_{lam} is supported on {sorted(image.values)}:")
for mu, val in sorted(image.values.items()):
    print(f"  {mu}: {val}")
print()

print("level-2 hop terms at (1, 1):")
for target, coeff in hop_terms(2, (1, 1), params):
    # J+ and J- are the sites the hop moves up and down
    step = [b - a for a, b in zip((1, 1), target)]
    Jp = tuple(j for j, d in enumerate(step, 1) if d > 0)
    Jm = tuple(j for j, d in enumerate(step, 1) if d < 0)
    print(f"  J+={Jp} J-={Jm} -> {target}  coeff {coeff}")
print()

# the integrals commute exactly, checked on delta functions
for lam0 in ((2, 0), (3, 1)):
    comm = commutator_on_delta(1, 2, lam0, params)
    print(f"[H_1, H_2] delta_{lam0} == 0 : {comm.is_zero()}")
print()

print("H_2 applied to delta_(1,1):")
for mu, val in sorted(apply_Hl(2, LatticeFunction.delta((1, 1)), params).values.items()):
    print(f"  {mu}: {val}")
print()

# degeneration 1: switching off the Morse coupling (that2 = 0) collapses
# the one-body dressing to the reduced two-coupling form
reduced = params_from_hat(
    params.q, params.t, (params.that[0], params.that[1], Fraction(0)), validate=False
)
rep = morse_vanishing_limit_check(reduced, 2, 4)
print(f"vanishing Morse coupling: {rep.checked} coefficients match exactly -> {rep.ok}")

# degeneration 2: for small coupling eps the pair potential approaches the
# Ruijsenaars form linearly, so shrinking eps by 100 shrinks the error by 100
rl = ruijsenaars_limit_check(2, params)
print("pair-potential limit error ratios across eps = 1e-4 -> 1e-6:")
print("  ", ["%.2f" % r for r in rl["error_ratios"]], "(linear scaling gives 100)")
