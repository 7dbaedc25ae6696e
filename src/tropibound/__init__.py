"""tropibound: exact lower bounds on positive real roots of vertically
parametrized polynomial systems, via the positive part of tropicalized
kernels, with a decorated-simplex cross-check and a floating-point
witness harness.

The package namespace holds only ``__version__``; import from the modules
(``tropibound.systems``, ``tropibound.intersection``, ``tropibound.rational``,
...)."""

__version__ = "0.1.0"
