"""Lattice hyperbolic Ruijsenaars-Schneider system with a Morse term.

Exact commuting lattice Hamiltonians, their bispectral dual q-difference
operators, the joint eigenpolynomials, orthogonality and Fourier
structure on the alcove, and the factorized scattering matrix, with
every identity exposed as a checkable residual.

Each object has one home, its module: for example
``from rsmorse.polynomials import PolynomialFamily``.  Importing the
package alone loads none of its modules; numpy loads with ``spectral``
only, which the CLI imports for ``ortho`` and ``evolve``.
"""

__version__ = "0.1.0"
