"""
sqglab: pseudo-spectral simulation of the subcritical dissipative surface
quasi-geostrophic equation, a whole-space alpha-stable heat-kernel toolbox,
and a verification harness for the pointwise comparability, asymptotic, and
gradient estimates of its mild solutions.
"""

__version__ = "0.1.0"
