"""Physical constants used throughout the package.

Values follow the 2018 CODATA adjustment (SI defining constants are exact);
each is written to 10 significant digits so that results are reproducible
bit-for-bit across installations.
"""

CONSTANTS_VERSION = "codata-2018"

#: the package release, ``becmirror.__version__``, as sweep headers record it
PACKAGE_VERSION = "0.1.0"

SPEED_OF_LIGHT = 2.997924580e8  # m/s (exact)
PLANCK_H = 6.626070150e-34      # J s (exact)
HBAR = 1.054571817e-34          # J s, h / (2 pi), 10 significant digits
BOLTZMANN_K = 1.380649000e-23   # J/K (exact)
