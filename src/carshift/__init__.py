"""Numerical workbench for quasifree CAR dynamics.

Subpackages cover operator helpers (opalg: dense, low-rank and sector-graded
norms, and the polar decomposition of an antilinear map given by its
matrix), a Jordan-Wigner Fock simulator (fock), quasifree states and their
doubled GNS representation (quasifree), finite-dimensional Tomita-Takesaki
data (modular), Hilbert-Schmidt criteria for Bogoliubov endomorphisms
(bogoliubov), exact calculus on windowed exponential combinations
(expcalc), the Hardy-space / shift-semigroup machinery with unitary
dilations (hardyshift), and the experiment runner behind the ``carshift``
command (cli).
"""

# cli is imported on first use (``from carshift import cli``), so that
# ``python -m carshift.cli`` does not find it imported already.
from . import opalg, fock, quasifree, modular, bogoliubov, expcalc, hardyshift

__all__ = ["opalg", "fock", "quasifree", "modular", "bogoliubov", "expcalc", "hardyshift", "cli"]
__version__ = "0.1.0"
