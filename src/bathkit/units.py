"""Unit conventions and physical constants.

All frequencies and energies are wavenumbers (cm^-1), times are
femtoseconds, temperatures are kelvin.  A wavenumber enters a phase as
omega_rad = 2*pi*c*omega_cm1 with c in cm/fs, so exp(-i*omega*t) terms
always use RAD_PER_FS_PER_CM1 * omega_cm1 * t_fs.
"""

import math

# Boltzmann constant, cm^-1 per kelvin (CODATA).
KB_CM1_PER_K = 0.69503480

# Speed of light, cm per fs.
C_CM_PER_FS = 2.99792458e-5

# Angular frequency (rad/fs) carried by 1 cm^-1.
RAD_PER_FS_PER_CM1 = 2.0 * math.pi * C_CM_PER_FS

