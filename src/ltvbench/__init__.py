"""ltvbench: LTV identification, finite-horizon LQR, and tracking benchmarks
on perturbed and reconfiguring spring-mass-damper plants."""

__version__ = "0.1.0"
