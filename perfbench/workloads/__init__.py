"""The benchmark's workloads, one module each.

Each module provides ``plan(seed)`` (raw inputs drawn from the seed, without
importing ahalg), ``contexts(plan)`` (the FieldSpec/AhContext objects: the
set-up that ``setup_s`` times), ``cases(plan, contexts)`` (the operations
with their untimed checks), ``SETUP_MODULES`` and ``TRACE_ROUNDS``.
"""
