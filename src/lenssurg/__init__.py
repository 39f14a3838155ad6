"""Exact-arithmetic certification and enumeration of lens-space surgeries
on L-space homology spheres."""

__version__ = "0.1.0"
