"""Partition-bagging ensembles for extremely imbalanced pre/post pair classification.

The library trains many small siamese pair classifiers, each on the full
k-shot positive set plus one disjoint chunk of the negative pool, and
averages their scores at inference. It ships with calibration diagnostics
(equal-mass-binned RMS/MAD errors), a seeded experiment harness, and a CLI.
Import public names from their modules; the package exports only __version__.
"""

__version__ = "0.1.0"
