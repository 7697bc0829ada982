"""Central numeric tolerance constants.

Every invariant threshold used by the library lives here so that tests and
callers agree on one set of defaults.  All values are absolute tolerances
unless noted otherwise.
"""

# Max elementwise |rho - rho^dag| accepted when constructing a density matrix.
HERMITICITY_ATOL = 1e-12

# Density-matrix eigenvalues may undershoot zero by at most this much.
EIGENVALUE_FLOOR = -1e-10

# Trace of a density matrix must lie in (0, 1 + TRACE_UPPER_SLACK].
TRACE_UPPER_SLACK = 1e-12

# Kraus families must satisfy max |sum K^dag K - I| <= KRAUS_COMPLETENESS_ATOL.
KRAUS_COMPLETENESS_ATOL = 1e-12

# Unitaries must satisfy max |U^dag U - I| <= UNITARITY_ATOL.
UNITARITY_ATOL = 1e-10

# Heralding branches with probability at or below this are treated as
# impossible (conditioning on them is meaningless).
HERALD_MIN_PROBABILITY = 1e-14

# Every DensityMatrix is block diagonal in n_A - n_B: an element between
# blocks may reach this times the trace, and a larger one signals a circuit
# bug upstream.  The moments are read from photon numbers on that condition.
OFF_BLOCK_ATOL = 1e-9

# Cauchy-Schwarz slack allowed on cross moments.
CROSS_MOMENT_SLACK = 1e-9

# Round-trip accuracy demanded from the equivalent-state solver.
EQUIV_SOLVER_ATOL = 1e-9
