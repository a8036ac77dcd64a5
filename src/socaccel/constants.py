"""Physical constants in SI units (CODATA 2018 exact values)."""

__all__ = ["HBAR", "K_B"]

HBAR = 1.054571817e-34  # reduced Planck constant, J s
K_B = 1.380649e-23      # Boltzmann constant, J/K
