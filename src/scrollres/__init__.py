"""Exact toolkit for relative canonical resolutions of genus-9 curves with a
degree-6 pencil, the K3 surfaces cut out by their linear syzygies, and the
integer-lattice certificates attached to those surfaces.

Everything is computed over a prime field (default p = 10007) with exact
arithmetic: float64 holds only integers below 2**53, where it is exact.
"""

__version__ = "0.1.0"

#: version of the report layout; canonical_json output changes only with it
SCHEMA_VERSION = 3

DEFAULT_PRIME = 10007
