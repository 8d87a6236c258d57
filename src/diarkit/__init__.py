"""Speaker diarization toolkit built on numpy/scipy.

Acoustic front-end, x-vector embedding networks (plain, extended, and
factorized TDNN stacks with optional multi-branch statistics pooling),
a PLDA clustering back-end, and a collar-aware diarization error scorer.

scipy is imported inside the function that calls it, so ``synth``,
``train``, ``embed`` and ``diarize`` never load it.
"""

__version__ = "0.1.0"

from . import backend, clustering, der, features, network, pipeline, synthdata, training
from .errors import DiarkitError, FormatError, InvalidInputError, TrainingDivergedError
