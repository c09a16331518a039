"""resatlas: exact analysis of length-3 free-resolution formats via the
Kac-Moody combinatorics of T_{p,q,r} graphs.

Everything is exact, in integers; no floating point anywhere.  Import the
modules themselves: `resatlas.cli`, `formats`, `kacmoody`, `rings`,
`complexes`, `exact`, `schur` and `checks`.
"""
