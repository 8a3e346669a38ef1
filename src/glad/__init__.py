"""GLAD: group anomaly detection in social networks.

A hierarchical Bayes model family that groups people jointly from who they
link to and what they do, then flags groups whose role mixture deviates from
the population norm.  Three backends are provided:

* ``glad_vem``   -- variational EM for the static aggregate-count model,
* ``glad0_vem``  -- variational EM for the activity-level variant with
                    per-pair link memberships,
* ``dglad_mc``   -- blocked Monte Carlo + particle filtering for the dynamic
                    variant whose mixture rates follow a Gaussian random walk.

``generator`` samples synthetic data (including planted-anomaly benchmarks),
``scoring`` turns fits into anomaly rankings and detection metrics,
``baselines`` holds the two-stage MMSB + mixture comparison method, ``io``
defines the plain-text artifact formats, and ``cli`` exposes the whole
pipeline as ``glad`` subcommands.
"""

from .model import (
    ActivityDataset,
    Dataset,
    DynamicDataset,
    GladNumericsError,
    GladVariational,
    ModelParams,
    PROB_EPS,
    SIMPLEX_FLOOR,
    digamma,
    softmax,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityDataset",
    "Dataset",
    "DynamicDataset",
    "GladNumericsError",
    "GladVariational",
    "ModelParams",
    "PROB_EPS",
    "SIMPLEX_FLOOR",
    "digamma",
    "softmax",
    "validate_params",
    "__version__",
]
