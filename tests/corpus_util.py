"""Shared helpers: small in-memory synthetic corpora for pipeline tests, the
per-model score chain that the model bank's scores are held to, the
per-state density loop that the all-state kernel is held to, the
per-utterance EM that lockstep training is held to, the per-state model
checks and sampler that the arrays-first model and the hoisted sampler are
held to, and the curve-row EER rule that the array EER is held to."""

import numpy as np

from emoverify import hmm
from emoverify.hmm import (
    ROW_SUM_TOL,
    GmmEmission,
    HmmModel,
    TrainConfig,
    _canonical_order,
    _check_obs,
    _check_valid,
    _forward,
    _off_band,
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


def reference_log_densities(stack, obs, owner=None):
    """hmm._log_densities state by state, each block's mixtures reduced by
    the general logsumexp: the kernel that the all-state pass with exact
    M <= 2 reductions replaced, kept verbatim but for reading PAIR_FRAMES
    at call time."""
    k, n, m, d = stack.means.shape
    lead = (k,) if owner is None else ()
    comp = np.empty(lead + (len(obs), n, m))
    logb = np.empty(lead + (len(obs), n))
    step = max(1, hmm.PAIR_FRAMES // ((k if owner is None else 1) * m * d))
    for i in range(0, len(obs), step):
        at = (slice(None), None) if owner is None else (owner[i:i + step],)
        part = comp[..., i:i + step, :, :]
        for j in range(n):  # state by state, in place
            diff = obs[i:i + step, None, :] - stack.means[at + (j,)]
            diff *= diff
            diff /= stack.variances[at + (j,)]
            part[..., j, :] = np.sum(diff, axis=-1)
        part *= -0.5  # then log_wn - 0.5 * maha, bit for bit
        part += stack.log_wn[at]
        logb[..., i:i + step, :] = logsumexp(part, axis=-1)
    return comp, logb


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


def reference_validate(model, variance_floor):
    """hmm.validate as a loop over states, reading the per-state view: the
    checks that whole-array validation replaced, kept verbatim but for the
    component-count and dim checks, which HmmModel's constructor now makes."""
    errors = []
    a = model.transitions
    if np.any(a < 0):
        errors.append("negative transition probability")
    row_sums = a.sum(axis=1)
    for i in range(model.n_states):
        if abs(row_sums[i] - 1.0) > ROW_SUM_TOL:
            errors.append(f"transition row {i + 1} sums to {row_sums[i]:.10g}")
    for i, j in zip(*np.nonzero(_off_band(a, model.max_skip))):  # row-major order
        errors.append(f"non-Bakis transition ({i + 1}→{j + 1})")
    for i, em in enumerate(model.emissions):
        if np.any(em.weights < 0):
            errors.append(f"state {i + 1} has a negative mixture weight")
        wsum = em.weights.sum()
        if abs(wsum - 1.0) > ROW_SUM_TOL:
            errors.append(f"state {i + 1} weights sum {wsum:.10g}")
        if np.any(em.variances < variance_floor * (1 - 1e-12)):
            errors.append(f"state {i + 1} has a variance below the floor {variance_floor:g}")
    return errors


def reference_sample_sequence(model, t_len, seed):
    """hmm.sample_sequence with a per-state object read in its frame loop,
    and each draw's cumulative row summed and searched inside the loop: the
    sampler that reads the arrays, and then the one that hoists that set-up
    out of the loop, replaced, kept verbatim."""
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    _check_valid(model)
    rng = np.random.default_rng(seed)
    n = model.n_states

    states = np.empty(t_len, dtype=np.int64)
    states[0] = 0
    for t in range(1, t_len):
        row = np.cumsum(model.transitions[states[t - 1]])
        states[t] = min(int(np.searchsorted(row, rng.random(), side="right")), n - 1)

    out = np.empty((t_len, model.dim))
    for t in range(t_len):
        em = model.emissions[states[t]]
        m = min(int(np.searchsorted(np.cumsum(em.weights), rng.random(), side="right")),
                em.n_components - 1)
        out[t] = em.means[m] + rng.standard_normal(model.dim) * np.sqrt(em.variances[m])
    return out


def reference_far_frr_curve(scores):
    """evaluation.far_frr_curve as a list built row by row from its arrays:
    the curve that the array curve function replaced, kept verbatim."""
    if not scores.target or not scores.nontarget:
        raise ValueError(f"score set {scores.label!r} has an empty class")
    target = np.sort(np.asarray(scores.target))
    nontarget = np.sort(np.asarray(scores.nontarget))
    thresholds = np.unique(np.concatenate([target, nontarget]))
    thresholds = np.concatenate(([-np.inf], thresholds, [np.inf]))
    far = (nontarget.size - np.searchsorted(nontarget, thresholds, side="left")) / nontarget.size
    frr = np.searchsorted(target, thresholds, side="left") / target.size
    return [(float(t), float(fa), float(fr)) for t, fa, fr in zip(thresholds, far, frr)]


def reference_eer(scores):
    """(EER%, threshold) by the lexicographic rule over the curve's inner
    rows, least |FAR - FRR| and then least threshold: the choice that the
    array EER's first argmin replaced, kept verbatim."""
    curve = reference_far_frr_curve(scores)
    theta, fa, fr = min(curve[1:-1], key=lambda row: (abs(row[1] - row[2]), row[0]))
    return 50.0 * (fa + fr), theta
