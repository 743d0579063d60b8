"""Slow reference implementations the tests pin the production code against.

Each module here is an earlier implementation kept verbatim: the seed
closure-based autodiff (``closure_reference``), the seed per-row loops
behind ``TransitionTable`` and ``truncate_to_fill_factor``, the seed
per-column SPAI solve and two dense accuracy measures of an approximate
inverse (``reference``).  They are test oracles, not library code.
"""
