"""Finite Blaschke model spaces, Clark bases, and representability checks.

The package answers one concrete question: when is a 3x3 complex symmetric
matrix the matrix of a truncated Toeplitz operator with respect to a
conjugation-fixed orthonormal basis of a 3-dimensional model space?  It
provides the function-theoretic layer (Blaschke products, reproducing
kernels, the canonical conjugation), the modified Clark bases, the two
decision procedures (determinant test and single-relation test), a seeded
SO(3) search for basis changes, and a JSON command line.  Each name is
imported from its defining module; the package itself imports nothing.
"""
