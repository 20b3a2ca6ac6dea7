"""qeuclid: exact workbench for the quantum Euclidean 2n-space at odd
roots of unity -- module construction, verification, and PI-degree.
"""

__version__ = "0.1.0"
