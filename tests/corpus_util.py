"""Shared helpers: small in-memory synthetic corpora for pipeline tests, the
per-model score chain that the model bank's scores are held to, and the
per-utterance EM that lockstep training is held to."""

import numpy as np

from emoverify.hmm import (
    GmmEmission,
    HmmModel,
    TrainConfig,
    _canonical_order,
    _check_obs,
    _check_valid,
    _forward,
    _log_add,
    _log_densities,
    _model_arrays,
    _reestimate,
    _stack,
    avg_frame_ll,
    logsumexp,
)
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


def reference_accumulate_stats(stack, obs):
    """One E-step of a one-model stack on one utterance: log-likelihood plus
    sufficient statistics.  The per-utterance E-step that hmm._e_step
    replaced, kept verbatim."""
    t_len = obs.shape[0]
    la = stack.log_trans[0]
    n = la.shape[0]

    comp, logb = (x[0] for x in _log_densities(stack, obs))
    beta = np.zeros((t_len, n))
    trans = np.zeros((n, n))
    if stack.running_sums:
        # one state that never leaves: both recursions are running sums, the
        # same additions that a one-element logsumexp (which returns its
        # input) and a 0.0 log-transition leave the general loops doing.
        # _reestimate pins the one row, so no transition count is taken.
        alpha = np.cumsum(logb, axis=0)
        beta[:-1, 0] = np.cumsum(logb[:0:-1, 0])[::-1]
        ll = float(alpha[-1, 0])
    else:
        alpha = _forward(logb[None], stack.log_trans, stack.banded)[0]
        ll = float(logsumexp(alpha[-1]))
        if stack.banded:
            stay, move = np.diagonal(la), np.diagonal(la, 1)
            moved = np.full(n, -np.inf)  # moved[i]: on to state i + 1, none from N
            with np.errstate(invalid="ignore"):
                for t in range(t_len - 2, -1, -1):
                    w = logb[t + 1] + beta[t + 1]
                    np.add(move, w[1:], out=moved[:-1])
                    _log_add(stay + w, moved, out=beta[t])
        else:
            for t in range(t_len - 2, -1, -1):
                beta[t] = logsumexp(la + (logb[t + 1] + beta[t + 1])[None, :], axis=1)
        if t_len > 1:  # a running sum adds frames in order; a pairwise reduce rounds otherwise
            xi = np.exp(alpha[:-1, :, None] + la + (logb[1:] + beta[1:])[:, None, :] - ll)
            trans = np.add.accumulate(xi)[-1]

    log_gamma = alpha + beta - ll  # (T, N)
    with np.errstate(invalid="ignore"):
        log_resp = comp - logb[:, :, None]  # within-state mixture responsibility
    log_resp[~np.isfinite(logb), :] = -np.inf
    gamma_m = np.exp(log_gamma[:, :, None] + log_resp)  # (T, N, M)

    occ = gamma_m.sum(axis=0)  # (N, M)
    first = np.einsum("tnm,td->nmd", gamma_m, obs)
    second = np.einsum("tnm,td->nmd", gamma_m, obs * obs)
    return ll, trans, occ, first, second


def reference_train_baum_welch(init, utterances, cfg=None):
    """EM over one model's utterances, one E-step per utterance: the loop
    that hmm.train_models replaced, kept verbatim, with its E-step above."""
    cfg = cfg or TrainConfig()
    if not utterances:
        raise ValueError("training set is empty")
    utterances = [_check_obs(u, init.dim) for u in utterances]
    _check_valid(init)
    order = _canonical_order(utterances)

    params = tuple(x[0] for x in _model_arrays((init,)))
    history: list[float] = []
    for _ in range(cfg.max_iterations):
        stack = _stack(*(x[None] for x in params))
        per_utt = [reference_accumulate_stats(stack, utterances[i]) for i in order]
        total_ll = sum(s[0] for s in per_utt)
        trans = sum(s[1] for s in per_utt)
        occ = sum(s[2] for s in per_utt)
        first = sum(s[3] for s in per_utt)
        second = sum(s[4] for s in per_utt)
        history.append(total_ll)
        params = _reestimate(params, trans, occ, first, second)
        if len(history) >= 2 and abs(history[-1] - history[-2]) < cfg.convergence_delta * len(
            utterances
        ):
            break
    a, w, mu, var = params
    return HmmModel(a, tuple(map(GmmEmission, w, mu, var)), max_skip=init.max_skip), history
