"""Orthogonality on the alcove and the polynomial Fourier transform.

The polynomials are orthogonal for the weight Delta-hat on the ordered
angle region; the squared norms have closed product form.  The same
structure gives a Fourier pair between lattice functions and functions
of the angles, demonstrated by a roundtrip on a delta function.
"""

from fractions import Fraction

from rsmorse.latticeop import LatticeFunction
from rsmorse.polynomials import PolynomialFamily
from rsmorse.qcore import params_from_hat
from rsmorse.spectral import (
    QuadSpec,
    fourier_forward,
    fourier_inverse,
    gram_report,
    norm_Delta,
)

params = params_from_hat(
    Fraction(1, 4), Fraction(1, 3), (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))
)
family = PolynomialFamily(params=params, seed=0)

print("single-variable gram matrix vs closed-form norms (200 nodes):")
for row in gram_report([(k,) for k in range(4)], family, QuadSpec(nodes=200)):
    print(
        f"  <P_{row['lambda']}, P_{row['mu']}> = {row['value']: .3e}"
        f"   target {row['target']: .3e}   rel err {row['rel_err']:.1e}"
    )
print()

print("two-variable diagonal entries (120^2 grid):")
for row in gram_report([(0, 0), (1, 0), (1, 1)], family, QuadSpec(nodes=120)):
    if row["lambda"] == row["mu"]:
        print(f"  lambda={row['lambda']}: norm {row['value']:.6e}, rel err {row['rel_err']:.1e}")
print()

quad = QuadSpec(nodes=200)
pts, _ = quad.grid(1)
start = LatticeFunction.delta((2,))
fhat = fourier_forward(start, pts, family)
print("Fourier roundtrip of delta_(2,):")
for mu in [(0,), (1,), (2,), (3,)]:
    print(f"  inverse at {mu}: {fourier_inverse(fhat, mu, family, quad): .3e}")
print()
print("norm of the ground delta in the spectral measure:", norm_Delta((0,), params))
