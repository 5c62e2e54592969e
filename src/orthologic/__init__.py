"""Finite-dimensional classical and quantum propositional systems.

Classical propositions are subsets of a finite phase space with set
operations; quantum propositions are closed subspaces of C^d with meet,
join and orthogonal complement.  The package verifies the lattice laws
separating the two logics, assigns projection-valued truth values to
prepared states, and checks constructively that composite classical
systems are cartesian products and composite quantum systems tensor
products.  Each name is imported from its module, ``Subspace`` from
``orthologic.subspace`` for one; the root holds only ``__version__``.
"""

__version__ = "0.1.0"
