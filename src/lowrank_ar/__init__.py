"""Low-rank autoregressive parameter recovery and sequence embeddings.

Fits one autoregressive weight matrix per sequence in a collection, ties the
sequences together through a nuclear-norm constraint on the stacked parameter
matrix, and reads per-sequence embeddings off the SVD of the recovered matrix.
The package is used through its modules: lowrank_ar.solver,
lowrank_ar.evalkit, lowrank_ar.cli and the rest.
"""

__version__ = "0.1.0"
