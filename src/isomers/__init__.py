"""Enumeration of substitution isomers via permutation-group orbits of tabloids.

The package exports nothing itself: import each name from its module, such
as ``from isomers.orbits import orbit_space``.  Each module's ``__all__``
lists its public names.
"""

__version__ = "0.1.0"
