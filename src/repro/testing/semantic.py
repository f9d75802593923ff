"""The Theorem-2 round ceiling.

A run must finish within :data:`DEFAULT_BOUND_FACTOR` times the
unit-constant Theorem 2 bound
(:func:`repro.analysis.complexity.theorem2_total_bound`); the repository
benchmark gates every execution with it.  The engines themselves are
held to each other's digests (``tests/test_engine_equivalence.py``).
"""

#: Absolute ceiling as a multiple of the unit-constant Theorem 2 bound;
#: matches the chaos harness's calibration (see
#: :data:`repro.resilience.chaos.oracles.DEFAULT_ROUND_BOUND_FACTOR`).
DEFAULT_BOUND_FACTOR = 200.0
