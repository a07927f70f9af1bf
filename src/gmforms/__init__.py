"""Gaussian Mersenne norms, x^2 + d*y^2 representations, and the class-group
audits behind their mod-8 congruences."""

__version__ = "0.1.0"

from . import arith, classgroup, gm, represent, verify
