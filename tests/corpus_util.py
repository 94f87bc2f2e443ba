"""Shared helpers: small in-memory synthetic corpora for pipeline tests, and
the per-model score chain that the model bank's scores are held to."""

from emoverify.hmm import avg_frame_ll
from emoverify.synthetic import base_manifest, generator_models, synthesize_utterance


def make_corpus(spec):
    """(manifest, {utterance id -> ObservationPair}, generator models)."""
    models = generator_models(spec)
    manifest = base_manifest(spec)
    features = {u.id: synthesize_utterance(spec, models, u) for u in manifest.utterances}
    return manifest, features, models


def reference_stream_scores(model, obs):
    """(acoustic, prosodic) scores of one SphmmModel, prosodic None for a
    plain one, by the per-model chain that ModelBank.stream_scores is held
    to bit for bit: avg_frame_ll plus the prior / T, and the composite
    log-density / T_p."""
    t_len = obs.acoustic.shape[0]
    acoustic = avg_frame_ll(model.acoustic, obs.acoustic) + model.log_priors[0] / t_len
    if model.prosodic is None:
        return acoustic, None
    tp_len = obs.prosodic.shape[0]
    prosodic = avg_frame_ll(model.prosodic.hmm, obs.prosodic)
    if model.prosodic.composite is not None:
        prosodic += model.prosodic.composite.log_density(obs.prosodic.mean(axis=0)) / tp_len
    return acoustic, prosodic + model.log_priors[1] / tp_len
