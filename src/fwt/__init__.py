"""Fee-and-waiting-tax mechanism toolkit.

Analytic solver for the three-stage storage-fee game (miner transaction
selection, user generation rates over a two-class priority queue, and the
designer's optimal fee menu plus waiting-tax vector), cross-validated by a
discrete-event Monte Carlo simulator and brute-force best-response oracles.
"""

__version__ = "0.1.0"
