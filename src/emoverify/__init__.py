"""Two-stage speaker verification for emotional speech.

Stage a identifies an utterance's emotion with fused acoustic and
suprasegmental models; stage b verifies the claimed speaker with an
emotion-specific log-likelihood-ratio test against the same speaker's
other-emotion models.  Submodules:

- frontend: WAV loading, MFCC and prosodic feature extraction
- hmm: left-to-right Gaussian-mixture HMMs (training, scoring, decoding)
- sphmm: suprasegmental models fused with acoustic scores
- manifest / featureio / synthetic: corpus tables, feature files, and
  seeded synthetic corpora
- stage_a / stage_b: emotion identification and verification trials
- evaluation: EER/DET metrics, paired experiments, report writing
- cli: the ``emoverify`` command-line entry points
"""

from .errors import EmoverifyError, FormatError, ManifestError
from .evaluation import ExperimentConfig, run_experiment, write_report
from .frontend import AudioClip, ObservationPair, extract, load_wav
from .manifest import CorpusManifest, UtteranceRef, grid_manifest, load_manifest, save_manifest
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "CorpusManifest",
    "EmoverifyError",
    "ExperimentConfig",
    "FormatError",
    "ManifestError",
    "ObservationPair",
    "SyntheticSpec",
    "UtteranceRef",
    "extract",
    "generate_synthetic",
    "grid_manifest",
    "load_manifest",
    "load_wav",
    "run_experiment",
    "save_manifest",
    "write_report",
    "__version__",
]
