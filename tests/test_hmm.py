"""Unit tests for the Bakis HMM core, checked against path enumeration."""

import dataclasses
import io
import itertools

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from corpus_util import reference_log_densities, reference_train_baum_welch
from emoverify import hmm
from emoverify.errors import FormatError
from emoverify.hmm import (
    VARIANCE_FLOOR,
    WEIGHT_FLOOR,
    GmmEmission,
    HmmModel,
    TrainConfig,
    avg_frame_ll,
    init_model,
    load_hmm,
    log_forward,
    read_hmm,
    sample_sequence,
    save_hmm,
    train_baum_welch,
    validate,
    viterbi,
    write_hmm,
)


def random_model(rng, n_states, n_mixtures, dim, max_skip=1):
    a = np.zeros((n_states, n_states))
    for i in range(n_states):
        hi = min(i + max_skip, n_states - 1)
        row = rng.uniform(0.2, 1.0, size=hi - i + 1)
        a[i, i : hi + 1] = row / row.sum()
    emissions = []
    for _ in range(n_states):
        w = rng.uniform(0.2, 1.0, size=n_mixtures)
        emissions.append(
            GmmEmission(
                w / w.sum(),
                rng.normal(0.0, 2.0, size=(n_mixtures, dim)),
                rng.uniform(0.3, 1.5, size=(n_mixtures, dim)),
            )
        )
    return HmmModel(a, tuple(emissions), max_skip=max_skip)


def enumerate_paths(n_states, t_len, max_skip):
    """All state paths allowed by the Bakis band, 0-based."""
    paths = []

    def extend(prefix):
        if len(prefix) == t_len:
            paths.append(tuple(prefix))
            return
        last = prefix[-1]
        for j in range(last, min(last + max_skip, n_states - 1) + 1):
            extend(prefix + [j])

    extend([0])
    return paths


def gmm_logpdf(em, frame):
    comps = [
        np.log(em.weights[k]) + norm.logpdf(frame, em.means[k], np.sqrt(em.variances[k])).sum()
        for k in range(em.n_components)
    ]
    return logsumexp(comps)


def oracle_scores(model, obs):
    """Per-path log-probabilities by brute force enumeration."""
    t_len = obs.shape[0]
    logb = np.array(
        [[gmm_logpdf(em, obs[t]) for em in model.emissions] for t in range(t_len)]
    )
    with np.errstate(divide="ignore"):
        la = np.log(model.transitions)
    out = {}
    for path in enumerate_paths(model.n_states, t_len, model.max_skip):
        lp = logb[0, path[0]]
        for t in range(1, t_len):
            lp += la[path[t - 1], path[t]] + logb[t, path[t]]
        out[path] = lp
    return out


def replica_cases(rng, count):
    """Arrays of 1-3 dims with -inf entries, all--inf slices, tied maxima,
    integer values, scales from 1 to 1e3, and NaN, +inf and +-1e308 entries."""
    for i in range(count):
        shape = tuple(int(d) for d in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        a = rng.normal(size=shape) * (1.0, 30.0, 1e3)[i % 3]
        if i % 4 == 0:
            a = np.round(a)
        if i % 5 == 0:
            a[rng.random(shape) < 0.3] = -np.inf
        if i % 6 == 0:
            a.flat[int(rng.integers(a.size))] = a.max()
        if i % 7 == 0:
            a[..., 0] = -np.inf  # every first element, so 1-wide slices are all -inf
        if i % 11 == 0:
            a[...] = -np.inf
        if i % 8 == 0:
            a.flat[int(rng.integers(a.size))] = (np.nan, np.inf, 1e308, -1e308)[i // 8 % 4]
        yield a


class TestLogsumexpReplica:
    """hmm.logsumexp performs SciPy's operations without its dispatch; a
    SciPy release that computes differently fails here, not in report bytes."""

    @staticmethod
    def assert_same(a, axis):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 - -1e308
            want = logsumexp(a, axis=axis)
        got = hmm.logsumexp(a, axis=axis)
        assert type(got) is type(want), (a, axis)
        assert np.shape(got) == np.shape(want), (a, axis)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, axis, got, want)

    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for a in replica_cases(rng, 2000):
            for axis in (None, *range(a.ndim)):
                self.assert_same(a, axis)

    @pytest.mark.parametrize("a", [
        np.array([-np.inf]),
        np.array([-np.inf, -np.inf]),
        np.array([[-np.inf, 0.0], [-np.inf, -np.inf]]),
        np.array([3.0, 3.0, 3.0]),
        np.array([[1.0, 1.0], [2.0, -np.inf]]),
        np.array([np.inf, 1.0]),
        np.array([-745.0, -746.0, -800.0]),
        np.array([2.5]),
    ], ids=repr)
    def test_edge_cases_match_scipy(self, a):
        for axis in (None, *range(a.ndim)):
            self.assert_same(a, axis)


def one_stack(model):
    return hmm._stack(*hmm._model_arrays([model]))


def one_pair_e_step(stack, obs):
    """_e_step's one-pair form: the log-likelihood, as a float, and the
    statistics of a one-model stack on one utterance."""
    ll, *stats = hmm._e_step(stack, np.zeros(1, np.intp), [obs])
    return (float(ll[0]), *(s[0] for s in stats))


def general_stats(model, obs):
    """one_pair_e_step by the general recursion: explicit forward and
    backward loops, each taking SciPy's logsumexp over all N candidates,
    SciPy's logsumexp for the total, and transition counts added one frame
    at a time."""
    stack = one_stack(model)
    comp, logb = (x[0] for x in hmm._log_densities(stack, obs))
    la = stack.log_trans[0]
    alpha = np.full(logb.shape, -np.inf)
    alpha[0, 0] = logb[0, 0]
    for t in range(1, len(obs)):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + la, axis=0) + logb[t]
    ll = float(logsumexp(alpha[-1]))
    beta = np.zeros(logb.shape)
    for t in range(len(obs) - 2, -1, -1):
        beta[t] = logsumexp(la + (logb[t + 1] + beta[t + 1])[None, :], axis=1)
    with np.errstate(invalid="ignore"):
        log_resp = comp - logb[:, :, None]
    log_resp[~np.isfinite(logb), :] = -np.inf
    gamma_m = np.exp((alpha + beta - ll)[:, :, None] + log_resp)
    trans = np.zeros(la.shape)
    for t in range(len(obs) - 1):
        trans += np.exp(alpha[t][:, None] + la + (logb[t + 1] + beta[t + 1])[None, :] - ll)
    return (ll, trans, gamma_m.sum(axis=0), np.einsum("tnm,td->nmd", gamma_m, obs),
            np.einsum("tnm,td->nmd", gamma_m, obs * obs))


def assert_same_stats(got, want):
    assert type(got[0]) is float and got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def model_bytes(model):
    buf = io.BytesIO()
    write_hmm(buf, model)
    return buf.getvalue()


def one_model_arrays(model):
    return tuple(x[0] for x in hmm._model_arrays([model]))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestOneStateEStep:
    def test_running_sums_equal_the_general_recursion(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            model = random_model(rng, 1, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            obs = rng.normal(0.0, 3.0, size=(int(rng.integers(1, 40)), model.dim))
            stack = one_stack(model)
            assert stack.log_trans[0, 0, 0] == 0.0
            got, want = one_pair_e_step(stack, obs), general_stats(model, obs)
            # ll, occupancies and moments bit for bit; the transition count is
            # not taken, since _reestimate pins a one-state model's only row,
            # so both statistics re-estimate the same parameters byte for byte
            assert not got[1].any()
            assert_same_stats(got[:1] + got[2:], want[:1] + want[2:])
            params = one_model_arrays(model)
            assert_same_arrays(hmm._reestimate(params, *got[1:]),
                               hmm._reestimate(params, *want[1:]))

    def test_inexact_self_loop_takes_the_general_path(self):
        rng = np.random.default_rng(47)
        base = random_model(rng, 1, 2, 2)
        model = HmmModel(np.array([[1.0 - 5e-10]]), base.emissions)
        assert validate(model) == []
        stack = one_stack(model)
        assert stack.log_trans[0, 0, 0] != 0.0
        obs = rng.normal(size=(12, 2))
        got = one_pair_e_step(stack, obs)
        assert np.isfinite(got[0])
        assert_same_stats(got, general_stats(model, obs))
        assert got[0] != one_pair_e_step(one_stack(base), obs)[0]


class TestGeneralEStep:
    def test_statistics_equal_the_frame_by_frame_loops(self):
        # the transition counts are one running sum over the frame axis;
        # the frame loop of general_stats must give the same bits.  A
        # one-state model with an inexact self-loop takes the general path.
        rng = np.random.default_rng(53)
        for n in range(1, 7):
            for skip in (1, 2):
                for trial in range(12):
                    model = random_model(rng, n, int(rng.integers(1, 4)),
                                         int(rng.integers(1, 4)), skip)
                    if n == 1:
                        model = HmmModel(np.array([[1.0 - 5e-10]]), model.emissions)
                    t_len = 1 + (trial * 13 + n) % 40 if trial else 1
                    obs = rng.normal(0.0, 2.0, size=(t_len, model.dim))
                    got = one_pair_e_step(one_stack(model), obs)
                    assert_same_stats(got, general_stats(model, obs))
                    if t_len == 1:  # no transition, so nothing counted
                        assert not got[1].any()


def band_log_trans(rng, k, n):
    """Random log transitions (K, N, N) that only stay or move on, some -inf."""
    la = np.full((k, n, n), -np.inf)
    i = np.arange(n)
    la[:, i, i] = rng.normal(size=(k, n))
    la[:, i[:-1], i[1:]] = rng.normal(size=(k, n - 1))
    return la


class TestBandKernel:
    """The two-candidate kernel and the recursions built on it give the
    general logsumexp path's bits."""

    @staticmethod
    def kernel_cases(rng, count):
        """Pairs with ties, one or both -inf, NaN, +inf and values up to +-700,
        after the edge cases (-1.2, 0.0 is where np.logaddexp rounds apart)."""
        yield (np.array([-np.inf, -np.inf, 2.0, np.nan, -1.2, 700.0, np.inf, -745.0]),
               np.array([-np.inf, 0.5, 2.0, 1.0, 0.0, -700.0, np.inf, -745.0]))
        for trial in range(count):
            size = int(rng.integers(1, 40))
            u, v = (rng.normal(size=size) * (1.0, 30.0, 700.0)[trial % 3] for _ in range(2))
            if trial % 2:
                u, v = np.round(u), np.round(v)  # more exact ties
            tie = rng.random(size) < 0.2
            v[tie] = u[tie]
            u[rng.random(size) < 0.15] = -np.inf  # one -inf, and both where v is too
            v[rng.random(size) < 0.15] = -np.inf
            if trial % 5 == 0:
                u[rng.random(size) < 0.1] = np.nan
            if trial % 7 == 0:
                v[rng.random(size) < 0.1] = (np.inf, 700.0, -700.0)[trial // 7 % 3]
            yield u, v

    def test_kernel_matches_logsumexp_of_the_pair(self):
        for u, v in self.kernel_cases(np.random.default_rng(71), 400):
            want = hmm.logsumexp(np.stack([u, v]), axis=0)
            with np.errstate(invalid="ignore"):
                got = hmm._log_add(u, v, np.empty(len(u)))
            assert got.tobytes() == want.tobytes(), (u, v, got, want)

    def test_forward_matches_the_general_recursion(self):
        rng = np.random.default_rng(73)
        for trial in range(300):
            k, n, t_len = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(1, 60))
            la = band_log_trans(rng, k, n)
            logb = rng.normal(0.0, 5.0, size=(k, t_len, n))
            if trial % 2:  # quantized, so candidates tie exactly
                la, logb = np.round(la * 2) / 2, np.round(logb)
            if trial % 3 == 0:
                la[rng.random(la.shape) < 0.2] = -np.inf
            logb[rng.random(logb.shape) < 0.1] = -np.inf
            got = hmm._forward(logb, la, True)
            assert got.tobytes() == hmm._forward(logb, la, False).tobytes()

    def test_training_matches_the_general_recursion(self, monkeypatch):
        rng = np.random.default_rng(83)
        cases = []
        for trial in range(12):
            n, m, d = int(rng.integers(2, 6)), int(rng.integers(1, 3)), int(rng.integers(2, 9))
            utts = [rng.normal(0.0, 2.0, size=(int(rng.integers(2, 30)), d))
                    for _ in range(int(rng.integers(3, 12)))]
            cfg = TrainConfig(max_iterations=8, seed=trial)
            init = init_model(utts, n, m, cfg)
            assert one_stack(init).banded
            model, history = train_baum_welch(init, utts, cfg)
            cases.append((init, utts, cfg, model_bytes(model), history))
        stack = hmm._stack  # from here on, every stack takes the general path
        monkeypatch.setattr(hmm, "_stack",
                            lambda *arrays: dataclasses.replace(stack(*arrays), banded=False))
        for init, utts, cfg, want_bytes, want_history in cases:
            assert not one_stack(init).banded
            model, history = train_baum_welch(init, utts, cfg)
            assert model_bytes(model) == want_bytes and history == want_history


class TestDensityKernel:
    """The all-state density pass, with its M <= 2 mixture reductions, gives
    the per-state loop's and logsumexp's bits (reference_log_densities)."""

    @staticmethod
    def random_stack(rng, k, n, m, d):
        weights = rng.uniform(0.2, 1.0, (k, n, m))
        weights /= weights.sum(axis=-1, keepdims=True)
        weights[rng.random(weights.shape) < 0.1] = 0.0  # -inf components
        return hmm._stack(np.broadcast_to(np.eye(n), (k, n, n)), weights,
                          rng.normal(0.0, 2.0, (k, n, m, d)), rng.uniform(0.3, 1.5, (k, n, m, d)))

    @staticmethod
    def assert_as_reference(stack, obs, owner=None):
        got = hmm._log_densities(stack, obs, owner)
        want = reference_log_densities(stack, obs, owner)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("budget", [1, 23, 700, hmm.PAIR_FRAMES])
    def test_random_shapes_stacked_and_owned(self, monkeypatch, budget):
        # D >= 8 takes numpy's unrolled pairwise sum; small budgets cut
        # each call into many blocks, down to one frame a block
        rng = np.random.default_rng(89 + budget)
        monkeypatch.setattr(hmm, "PAIR_FRAMES", budget)
        for _ in range(60):
            k, n, m, d = (int(rng.integers(1, hi)) for hi in (7, 6, 5, 13))
            stack = self.random_stack(rng, k, n, m, d)
            t_len = int(rng.integers(1, 50))
            obs = rng.normal(0.0, 2.0, (t_len, d))
            self.assert_as_reference(stack, obs)
            self.assert_as_reference(stack, obs, rng.integers(0, k, t_len))

    @pytest.mark.parametrize("m", [1, 2])
    def test_edge_components(self, m):
        # every frame sits on every mean, so each component is exactly its
        # log_wn: each state holds one combination of -inf, NaN, -0.0, +0.0,
        # +inf and finite values, ties included
        values = (-np.inf, np.nan, -0.0, 0.0, -1.5, 2.0, np.inf)
        log_wn = np.array(list(itertools.product(values, repeat=m)))[None]  # (1, N, M)
        n, d = log_wn.shape[1], 3
        v = np.random.default_rng(101).normal(size=d)
        stack = hmm._Stack(np.broadcast_to(v, (1, n, m, d)), np.ones((1, n, m, d)), log_wn,
                           np.zeros((1, n, n)), False, False)
        obs = np.broadcast_to(v, (5, d)).copy()
        self.assert_as_reference(stack, obs)
        self.assert_as_reference(stack, obs, np.zeros(5, np.intp))
        if m == 1:  # a -0.0 component is reachable and its state density is +0.0
            comp, logb = hmm._log_densities(stack, obs)
            zero = values.index(-0.0)
            assert np.signbit(comp[..., zero, 0]).all() and not np.signbit(logb[..., zero]).any()


def reference_reestimate(
    model: HmmModel,
    trans: np.ndarray,
    occ: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> HmmModel:
    """The object-based M-step that hmm._reestimate replaced, kept verbatim."""
    n = model.n_states
    tiny = 1e-12

    new_a = model.transitions.copy()
    for i in range(n):
        row = trans[i]
        total = row.sum()
        if total > tiny:
            new_a[i] = row / total
    # structural zeros can only shrink (xi is zero outside the Bakis band);
    # pin the final row and renormalize defensively
    new_a[-1, :] = 0.0
    new_a[-1, -1] = 1.0
    new_a /= new_a.sum(axis=1, keepdims=True)

    emissions = []
    for j, em in enumerate(model.emissions):
        state_occ = occ[j].sum()
        if state_occ <= tiny:
            emissions.append(em)  # state never visited: keep previous parameters
            continue
        weights = np.maximum(occ[j] / state_occ, WEIGHT_FLOOR)
        weights = weights / weights.sum()
        means = em.means.copy()
        variances = em.variances.copy()
        for k in range(em.n_components):
            if occ[j, k] <= tiny:
                continue  # starved component: keep previous parameters
            mu = first[j, k] / occ[j, k]
            var = second[j, k] / occ[j, k] - mu * mu
            means[k] = mu
            variances[k] = np.maximum(var, VARIANCE_FLOOR)
        emissions.append(GmmEmission(weights, means, variances))
    return HmmModel(new_a, tuple(emissions), max_skip=model.max_skip)


class TestReestimateMatchesReference:
    """The whole-array M-step gives the object-based M-step's bits."""

    @staticmethod
    def random_stats(rng, model):
        n, m, d = model.n_states, model.n_mixtures, model.dim
        # zero or below-cut (1e-12) counts: rows kept, components starved, states unvisited
        trans = np.triu(rng.exponential(size=(n, n)) * rng.uniform(0.0, 30.0))
        trans[rng.random(n) < 0.3] *= rng.choice([0.0, 1e-13])
        occ = rng.exponential(size=(n, m)) * rng.uniform(1e-13, 40.0)
        starved = rng.random((n, m)) < 0.3
        occ[starved] = rng.choice([0.0, 1e-13, 1e-12, 2e-12], size=int(starved.sum()))
        occ[rng.random(n) < 0.25] = rng.choice([0.0, 1e-13])
        first = occ[:, :, None] * rng.normal(0.0, 3.0, size=(n, m, d))
        second = first * first / np.maximum(occ, 1e-300)[:, :, None] + \
            occ[:, :, None] * rng.choice([0.0, 1e-6, 1.0], size=(n, m, d))
        return trans, occ, first, second

    def test_random_statistics_bit_for_bit(self):
        rng = np.random.default_rng(59)
        for trial in range(300):
            n = int(rng.integers(1, 7))
            model = random_model(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                 int(rng.integers(1, 3)))
            stats = self.random_stats(rng, model)
            got = hmm._reestimate(one_model_arrays(model), *stats)
            want = reference_reestimate(model, *stats)
            assert_same_arrays(got, one_model_arrays(want))

    def test_nan_occupancy_is_reestimated_not_kept(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, 2, 2, 2)
        trans, occ, first, second = self.random_stats(rng, model)
        occ[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            reference_reestimate(model, trans, occ, first, second)
        _, w, mu, var = hmm._reestimate(one_model_arrays(model), trans, occ, first, second)
        assert np.isnan(w[0]).all() and np.isnan(mu[0, 0]).all() and np.isnan(var[0, 0]).all()


class TestForwardAgainstEnumeration:
    def test_random_models_match_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            skip = int(rng.integers(1, n + 1)) if n > 1 else 1
            model = random_model(rng, n, int(rng.integers(1, 3)), int(rng.integers(1, 4)), skip)
            t_len = int(rng.integers(1, 7))
            obs = rng.normal(0.0, 2.0, size=(t_len, model.dim))
            expected = logsumexp(list(oracle_scores(model, obs).values()))
            np.testing.assert_allclose(log_forward(model, obs), expected, atol=1e-9, rtol=0)

    def test_tiny_densities_stay_finite(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 2, 2)
        obs = rng.normal(40.0, 0.5, size=(5, 2))  # ~ e-700 scale frame densities
        got = log_forward(model, obs)
        assert np.isfinite(got)
        expected = logsumexp(list(oracle_scores(model, obs).values()))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, 2, 3)
        obs = rng.normal(size=(8, 3))
        shift = rng.normal(size=3)
        shifted = HmmModel(
            model.transitions,
            tuple(
                GmmEmission(em.weights, em.means + shift, em.variances)
                for em in model.emissions
            ),
            max_skip=model.max_skip,
        )
        np.testing.assert_allclose(
            log_forward(model, obs), log_forward(shifted, obs + shift), atol=1e-9
        )

    def test_avg_frame_ll_divides_by_length(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 2, 2)
        obs = rng.normal(size=(10, 2))
        np.testing.assert_allclose(avg_frame_ll(model, obs), log_forward(model, obs) / 10)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 1, 3)
        with pytest.raises(ValueError, match="dim"):
            log_forward(model, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            log_forward(model, np.zeros((0, 3)))


class TestHmmBank:
    def test_out_of_range_position_is_rejected(self):
        rng = np.random.default_rng(47)
        models = [random_model(rng, 2, 1, 2), random_model(rng, 3, 2, 2)]
        bank = hmm.HmmBank(models)
        obs = rng.normal(size=(4, 2))
        for rows in ([5], [2], [-1, 0], [0, -2], [1, 3]):
            with pytest.raises(IndexError, match="outside 0..1"):
                bank.log_forward(obs, rows)
        want = [log_forward(models[1], obs), log_forward(models[0], obs)]
        assert bank.log_forward(obs, [1, 0]).tolist() == want

    @staticmethod
    def one_state(self_loop):
        return HmmModel(np.array([[self_loop]]), (GmmEmission([1.0], [[0.0]], [[1.0]]),))

    def test_inexact_self_loop_scores_as_the_e_step_does(self):
        # summing frames would drop the 49 log self-loops, about -2.45e-8
        exact, inexact = self.one_state(1.0), self.one_state(1.0 - 5e-10)
        obs = np.random.default_rng(1).normal(size=(50, 1))
        got = log_forward(inexact, obs)
        assert got == one_pair_e_step(one_stack(inexact), obs)[0]
        assert got != log_forward(exact, obs)
        assert abs(got - log_forward(exact, obs) - 49 * np.log(1.0 - 5e-10)) < 1e-12

    def test_exact_and_inexact_one_state_models_share_no_stack(self):
        rng = np.random.default_rng(59)
        models = [HmmModel(np.array([[loop]]), random_model(rng, 1, 2, 2).emissions)
                  for loop in (1.0, 1.0 - 5e-10, 1.0)]
        obs = rng.normal(size=(30, 2))
        want = [log_forward(m, obs) for m in models]
        assert hmm.HmmBank(models).log_forward(obs).tolist() == want
        assert hmm.HmmBank(models).log_forward(obs, [1, 2, 0]).tolist() == [want[1], want[2], want[0]]

    @staticmethod
    def skip_two(rng, skip_prob):
        """A 3-state max_skip 2 model whose 1→3 transition is skip_prob."""
        base = random_model(rng, 3, 2, 2)
        a = np.array([[0.5 - skip_prob, 0.5, skip_prob], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        return HmmModel(a, base.emissions, max_skip=2)

    def test_band_decision(self):
        rng = np.random.default_rng(89)
        assert not one_stack(self.skip_two(rng, 0.1)).banded
        assert one_stack(self.skip_two(rng, 0.0)).banded
        assert one_stack(random_model(rng, 4, 1, 2)).banded
        assert one_stack(self.one_state(1.0 - 5e-10)).banded

    def test_take_keeps_the_flags(self):
        rng = np.random.default_rng(97)
        for models in ([self.skip_two(rng, 0.1), self.skip_two(rng, 0.2)],
                       [random_model(rng, 3, 2, 2) for _ in range(3)],
                       [self.one_state(1.0)] * 2):
            stack = hmm._stack(*hmm._model_arrays(models))
            part = stack.take([1])
            assert (part.banded, part.running_sums) == (stack.banded, stack.running_sums)

    def test_unbanded_model_takes_no_banded_one_off_the_kernel(self):
        rng = np.random.default_rng(101)
        models = [self.skip_two(rng, 0.0), self.skip_two(rng, 0.1), self.skip_two(rng, 0.0)]
        bank = hmm.HmmBank(models)
        assert sorted((sorted(place), stack.banded) for place, stack in bank._stacks) == \
            [([0, 2], True), ([1], False)]
        obs = rng.normal(size=(25, 2))
        want = [log_forward(m, obs) for m in models]
        assert bank.log_forward(obs).tolist() == want
        assert bank.log_forward(obs, [1, 2, 0]).tolist() == [want[1], want[2], want[0]]

    @staticmethod
    def mixed_bank_models(rng, dim):
        """Models of mixed (N, M) shapes: running-sum, banded and unbanded
        stacks, an inexact one-state model and a 9-state unbanded one."""
        inexact = HmmModel(np.array([[1.0 - 5e-10]]), random_model(rng, 1, 2, dim).emissions)
        return [random_model(rng, 3, 2, dim), random_model(rng, 1, 2, dim),
                random_model(rng, 4, 1, dim, 2), random_model(rng, 3, 2, dim),
                random_model(rng, 1, 1, dim), inexact, random_model(rng, 2, 3, dim),
                random_model(rng, 4, 1, dim, 2), random_model(rng, 9, 1, dim, 3),
                random_model(rng, 1, 2, dim)]

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_scores_as_each_model_alone(self, seed):
        # each (utterance, model) pair of a padded batch gets the bits of
        # scoring that model alone, whatever the batch around it and its order
        rng = np.random.default_rng(7000 + seed)
        models = self.mixed_bank_models(rng, 2)
        bank = hmm.HmmBank(models)
        assert len(bank._stacks) == 7
        lengths = [1, 2, 30, 5, 1, 17, 9]
        observations = [rng.normal(0.0, 2.0, size=(t, 2)) for t in lengths]
        rows = [rng.integers(0, len(models), size=int(rng.integers(1, 2 * len(models))))
                for _ in lengths]
        rows[1] = [4, 1, 4]  # running-sum models only, one repeated
        rows[3] = [8, 0, 8, 0]  # no model of most stacks
        rows[5] = list(range(len(models)))[::-1]
        alone = [[log_forward(models[k], obs) for k in r] for obs, r in zip(observations, rows)]
        for order in (range(len(lengths)), rng.permutation(len(lengths))):
            got = bank.log_forward_batch([observations[b] for b in order], [rows[b] for b in order])
            assert len(got) == len(lengths)
            for b, scores in zip(order, got):
                assert scores.tobytes() == np.array(alone[b]).tobytes()

    def test_batch_inputs_are_checked_before_any_scoring(self, monkeypatch):
        # the bad utterance comes last, and no density or recursion runs
        # before the batch is refused with the one-utterance message
        rng = np.random.default_rng(113)
        models = [random_model(rng, 3, 2, 2), random_model(rng, 1, 2, 2)]
        bank = hmm.HmmBank(models)
        good = [rng.normal(size=(t, 2)) for t in (4, 9)]
        nan = rng.normal(size=(6, 2))
        nan[5, 1] = np.nan
        scored = []
        for name in ("_log_densities", "_forward"):
            real = getattr(hmm, name)
            monkeypatch.setattr(hmm, name, lambda *a, real=real: scored.append(a) or real(*a))
        cases = (
            (nan, [0, 1], ValueError, "observation contains non-finite values"),
            (rng.normal(size=(6, 3)), [0], ValueError,
             "observation dim 3 does not match model dim 2"),
            (np.zeros((0, 2)), [0], ValueError, r"observation must be a nonempty \(T, D\) matrix"),
            (rng.normal(size=(6, 2)), [1, 2], IndexError, r"bank positions \[1, 2\] outside 0..1"),
            (rng.normal(size=(6, 2)), [-1], IndexError, r"bank positions \[-1\] outside 0..1"),
        )
        for bad, bad_rows, error, message in cases:
            with pytest.raises(error, match=f"^{message}$"):
                bank.log_forward_batch([*good, bad], [[0, 1], [1], bad_rows])
            with pytest.raises(error, match=f"^{message}$"):
                bank.log_forward(bad, bad_rows)
            assert scored == []
        with pytest.raises(ValueError, match="2 observations but 1 row lists"):
            bank.log_forward_batch(good, [[0]])
        assert [x.tolist() for x in bank.log_forward_batch(good, [[0, 1], [1]])] == [
            [log_forward(models[0], good[0]), log_forward(models[1], good[0])],
            [log_forward(models[1], good[1])]]


class TestViterbi:
    def test_matches_enumeration_argmax(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            skip = int(rng.integers(1, n + 1)) if n > 1 else 1
            model = random_model(rng, n, int(rng.integers(1, 3)), int(rng.integers(1, 3)), skip)
            t_len = int(rng.integers(1, 7))
            obs = rng.normal(0.0, 2.0, size=(t_len, model.dim))
            scores = oracle_scores(model, obs)
            best_lp = max(scores.values())
            best_paths = sorted(p for p, lp in scores.items() if lp >= best_lp - 1e-9)
            path, lp = viterbi(model, obs)
            assert tuple(path - 1) in best_paths
            np.testing.assert_allclose(lp, best_lp, atol=1e-9, rtol=0)

    def test_single_state_path_is_all_ones(self):
        model = HmmModel(
            np.array([[1.0]]), (GmmEmission([1.0], [[0.0]], [[1.0]]),)
        )
        path, _ = viterbi(model, np.zeros((5, 1)))
        assert path.tolist() == [1, 1, 1, 1, 1]

    def test_tie_prefers_smaller_state(self):
        # states 2 and 3 are mirror images (means +-1) and both reachable
        # from state 1 with equal probability, so the two optimal paths tie
        # bitwise; the smaller-state path must come back
        a = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        emissions = (
            GmmEmission([1.0], [[0.0]], [[1.0]]),
            GmmEmission([1.0], [[1.0]], [[1.0]]),
            GmmEmission([1.0], [[-1.0]], [[1.0]]),
        )
        model = HmmModel(a, emissions, max_skip=2)
        path, _ = viterbi(model, np.zeros((3, 1)))
        assert path.tolist() == [1, 2, 2]

    def test_identical_emissions_advance_immediately(self):
        # with equal emissions everywhere the absorbing last state makes the
        # earliest-advancing path strictly best
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        em = GmmEmission([1.0], [[0.0]], [[1.0]])
        model = HmmModel(a, (em, em, em))
        path, _ = viterbi(model, np.zeros((5, 1)))
        assert path.tolist() == [1, 2, 3, 3, 3]

    def test_nan_frame_is_rejected(self):
        # refused before any recursion runs, so no NaN score or path comes back
        rng = np.random.default_rng(67)
        for n, skip in ((1, 1), (3, 1), (4, 2), (5, 2)):
            model = random_model(rng, n, 2, 2, skip)
            for k in (0, 4, 8):
                obs = rng.normal(size=(9, 2))
                obs[k, 1] = np.nan
                with pytest.raises(ValueError, match="non-finite"):
                    viterbi(model, obs)


class TestValidate:
    def test_clean_model_passes(self):
        rng = np.random.default_rng(1)
        assert validate(random_model(rng, 3, 2, 2)) == []

    def test_reports_non_bakis_transition(self):
        a = np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        em = GmmEmission([1.0], [[0.0]], [[1.0]])
        msgs = validate(HmmModel(a, (em, em, em), max_skip=1))
        assert any("(1→3)" in m for m in msgs)

    def test_reports_backward_transition(self):
        a = np.array([[0.5, 0.5], [0.1, 0.9]])
        em = GmmEmission([1.0], [[0.0]], [[1.0]])
        msgs = validate(HmmModel(a, (em, em)))
        assert any("(2→1)" in m for m in msgs)

    def test_reports_every_violation_in_order(self):
        em = GmmEmission([1.0], [[0.0]], [[1.0]])
        a = np.array([[0.4, 0.3, 0.4, 0.0],
                      [0.1, 0.5, 0.0, 0.4],
                      [0.2, 0.0, 0.3, 0.3],
                      [0.0, 0.3, -0.1, 0.8]])
        assert validate(HmmModel(a, (em,) * 4)) == [
            "negative transition probability",
            "transition row 1 sums to 1.1",
            "transition row 3 sums to 0.8",
            "non-Bakis transition (1→3)",
            "non-Bakis transition (2→1)",
            "non-Bakis transition (2→4)",
            "non-Bakis transition (3→1)",
            "non-Bakis transition (4→2)",
            "non-Bakis transition (4→3)",
        ]
        assert validate(HmmModel(a, (em,) * 4, max_skip=2)) == [
            "negative transition probability",
            "transition row 1 sums to 1.1",
            "transition row 3 sums to 0.8",
            "non-Bakis transition (2→1)",
            "non-Bakis transition (3→1)",
            "non-Bakis transition (4→2)",
            "non-Bakis transition (4→3)",
        ]

    def test_reports_bad_row_sum_and_weights(self):
        a = np.array([[0.5, 0.4], [0.0, 1.0]])
        em_bad = GmmEmission([0.6, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])
        em_ok = GmmEmission([1.0], [[0.0]], [[1.0]])
        # a ragged model cannot be held as (N, M, D) arrays: refused at construction
        with pytest.raises(ValueError, match="state 2 has 1 components, expected 2"):
            HmmModel(a, (em_bad, em_ok))
        msgs = validate(HmmModel(a, (em_bad, em_bad)))
        assert any("row 1 sums" in m for m in msgs)
        assert any("weights sum" in m for m in msgs)

    def test_reports_floored_variance(self):
        a = np.array([[1.0]])
        em = GmmEmission([1.0], [[0.0]], [[1e-7]])
        msgs = validate(HmmModel(a, (em,)))
        assert any("variance" in m for m in msgs)


class TestTraining:
    def test_loglik_monotone_and_model_valid(self):
        rng = np.random.default_rng(19)
        for trial in range(5):
            gen = random_model(rng, 3, 2, 2)
            utts = [
                sample_sequence(gen, int(rng.integers(12, 25)), int(rng.integers(1e6)))
                for _ in range(6)
            ]
            init = init_model(utts, 3, 2, TrainConfig(seed=trial))
            model, history = train_baum_welch(init, utts, TrainConfig(max_iterations=15))
            diffs = np.diff(history)
            assert np.all(diffs >= -1e-6), f"ll decreased: {diffs.min()}"
            assert validate(model) == []

    def test_order_invariance(self):
        rng = np.random.default_rng(23)
        gen = random_model(rng, 2, 1, 2)
        utts = [sample_sequence(gen, 15, s) for s in range(8)]
        cfg = TrainConfig(max_iterations=5, seed=9)
        init = init_model(utts, 2, 2, cfg)
        m1, h1 = train_baum_welch(init, utts, cfg)
        shuffled = [utts[i] for i in [5, 2, 7, 0, 3, 6, 1, 4]]
        m2, h2 = train_baum_welch(init, shuffled, cfg)
        assert h1 == h2
        np.testing.assert_array_equal(m1.transitions, m2.transitions)
        for e1, e2 in zip(m1.emissions, m2.emissions):
            np.testing.assert_array_equal(e1.means, e2.means)

    def test_improves_fit_on_generator_data(self):
        rng = np.random.default_rng(29)
        gen = random_model(rng, 2, 1, 2)
        utts = [sample_sequence(gen, 30, s) for s in range(10)]
        init = init_model(utts, 2, 1, TrainConfig(seed=0))
        model, history = train_baum_welch(init, utts, TrainConfig(max_iterations=10))
        assert history[-1] >= history[0]

    def test_init_reduces_mixtures_for_short_segments(self, caplog):
        utts = [np.zeros((3, 2)), np.ones((3, 2))]
        with caplog.at_level("WARNING"):
            model = init_model(utts, 3, 5, TrainConfig(seed=0))
        assert model.n_mixtures < 5
        assert any("lowered" in r.message for r in caplog.records)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            init_model([], 2, 2)

    @pytest.mark.parametrize("n_states, n_mixtures", [(0, 1), (1, 0), (-1, 2)])
    def test_non_positive_model_size_rejected(self, n_states, n_mixtures):
        utts = [np.random.default_rng(0).normal(size=(6, 2))]
        with pytest.raises(ValueError, match="^model sizes must be positive$"):
            init_model(utts, n_states, n_mixtures)


class TestLockstepTraining:
    """train_models gives each model of a set what the per-utterance EM
    (corpus_util.reference_train_baum_welch) gives it alone, bit for bit."""

    @staticmethod
    def job(rng, kind, dim):
        """(init, utterances) of one kind of model, over 1-12 utterances of
        1-40 frames (more than 8 tell Python's sum from a pairwise one)."""
        utts = [rng.normal(0.0, 2.0, size=(int(rng.integers(1, 41)), dim))
                for _ in range(int(rng.integers(1, 13)))]
        seed = TrainConfig(seed=int(rng.integers(1000)))
        if kind == "lowered":  # too few frames per state for 6 components
            utts = [u[:int(rng.integers(1, 4))] for u in utts[:2]]
            init = init_model(utts, int(rng.integers(2, 4)), 6, seed)
            assert init.n_mixtures < 6
            return init, utts
        n = {"running": 1, "inexact": 1, "band3": 3, "band4": 4, "skip2": 3}[kind]
        init = init_model(utts, n, int(rng.integers(1, 4)), seed)
        if kind == "inexact":  # an inexact self-loop takes the general path
            init = HmmModel(np.array([[1.0 - 5e-10]]), init.emissions)
        elif kind == "skip2":
            init = HmmModel(random_model(rng, 3, 1, 1, max_skip=2).transitions,
                            init.emissions, max_skip=2)
            assert not hmm._banded(init.transitions)
        return init, utts

    KINDS = ("running", "inexact", "band3", "band4", "skip2", "lowered")

    def random_set(self, rng, size):
        dim = int(rng.integers(1, 4))
        return [self.job(rng, self.KINDS[int(rng.integers(len(self.KINDS)))], dim)
                for _ in range(size)]

    @staticmethod
    def assert_as_alone(jobs, cfg):
        got = hmm.train_models(jobs, cfg)
        assert len(got) == len(jobs)
        for (init, utts), (model, history) in zip(jobs, got):
            want_model, want_history = reference_train_baum_welch(init, utts, cfg)
            assert model_bytes(model) == model_bytes(want_model)
            assert model.max_skip == init.max_skip
            assert [repr(h) for h in history] == [repr(h) for h in want_history]
        return [len(history) for _, history in got]

    def test_sets_train_as_each_model_alone(self):
        rng = np.random.default_rng(101)
        lengths = set()
        for trial in range(16):
            jobs = self.random_set(rng, int(rng.integers(2, 12)))
            if trial % 4 == 0:  # every kind in one set
                jobs += [self.job(rng, kind, jobs[0][0].dim) for kind in self.KINDS]
            cfg = TrainConfig(max_iterations=int(rng.integers(1, 12)),
                              convergence_delta=float(rng.choice([1e-4, 1e-2, 0.5])))
            iterations = self.assert_as_alone(jobs, cfg)
            lengths.add(len(set(iterations)) > 1)
        assert lengths == {True, False}  # some sets stop their models at different iterations

    @pytest.mark.parametrize("budget", [1, 40, 200])
    def test_pair_frame_budget_moves_no_bit(self, monkeypatch, budget):
        # at 1 every pair is a run of its own; at 40 and 200 runs cut a
        # model's pairs apart, so its sums carry from run to run
        rng = np.random.default_rng(103 + budget)
        monkeypatch.setattr(hmm, "PAIR_FRAMES", budget)
        for trial in range(4):
            jobs = [self.job(rng, kind, 2) for kind in self.KINDS for _ in range(2)]
            self.assert_as_alone(jobs, TrainConfig(max_iterations=6, convergence_delta=1e-2))

    def test_one_e_step_per_stack_and_iteration(self, monkeypatch):
        rng = np.random.default_rng(107)
        jobs = []
        for n in (3, 3, 3, 1, 1):  # two stacks: banded 3-state and running sums
            utts = [rng.normal(size=(int(rng.integers(10, 41)), 2)) for _ in range(3)]
            jobs.append((init_model(utts, n, 2, TrainConfig(seed=n)), utts))
        calls = []
        real = hmm._e_step
        monkeypatch.setattr(hmm, "_e_step", lambda *a: calls.append(len(a[1])) or real(*a))
        hmm.train_models(jobs, TrainConfig(max_iterations=3, convergence_delta=1e-12))
        assert calls == [9, 6] * 3

    def test_train_baum_welch_is_the_one_model_case(self):
        rng = np.random.default_rng(109)
        for kind in self.KINDS:
            init, utts = self.job(rng, kind, 3)
            cfg = TrainConfig(max_iterations=5)
            model, history = train_baum_welch(init, utts, cfg)
            want_model, want_history = reference_train_baum_welch(init, utts, cfg)
            assert model_bytes(model) == model_bytes(want_model) and history == want_history

    def test_empty_training_set_rejected(self):
        rng = np.random.default_rng(113)
        init, utts = self.job(rng, "band3", 2)
        with pytest.raises(ValueError, match="empty"):
            hmm.train_models([(init, utts), (init, [])])


class TestDegenerateInputs:
    def test_utterances_shorter_than_state_count(self):
        rng = np.random.default_rng(31)
        utts = [rng.normal(size=(2, 3)) for _ in range(3)]
        cfg = TrainConfig(max_iterations=5, seed=1)
        model, history = train_baum_welch(init_model(utts, 4, 2, cfg), utts, cfg)
        assert model.n_states == 4 and validate(model) == []
        assert np.all(np.isfinite(history))
        for u in utts:
            assert np.isfinite(avg_frame_ll(model, u))
            path, lp = viterbi(model, u)
            assert len(path) == 2 and np.isfinite(lp)
            assert path[0] == 1 and np.all(np.diff(path) >= 0) and path.max() <= 4

    def test_constant_column_trains_at_variance_floor(self):
        rng = np.random.default_rng(37)
        utts = [np.column_stack([rng.normal(size=(10, 2)), np.full(10, 3.0)]) for _ in range(3)]
        cfg = TrainConfig(max_iterations=5, seed=1)
        model, history = train_baum_welch(init_model(utts, 2, 2, cfg), utts, cfg)
        assert validate(model) == [] and np.all(np.isfinite(history))
        for em in model.emissions:
            assert np.all(em.variances[:, 2] == VARIANCE_FLOOR)
        for u in utts:
            assert np.isfinite(avg_frame_ll(model, u))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_is_rejected(self, value):
        rng = np.random.default_rng(43)
        model = random_model(rng, 3, 2, 2)
        obs = rng.normal(size=(6, 2))
        obs[2, 0] = value
        runs = (lambda: log_forward(model, obs),
                lambda: hmm.HmmBank([model, model]).log_forward(obs),
                lambda: viterbi(model, obs),
                lambda: train_baum_welch(model, [rng.normal(size=(5, 2)), obs]))
        for run in runs:
            with pytest.raises(ValueError, match="observation contains non-finite values"):
                run()


class TestSampling:
    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 3, 2, 4)
        a = sample_sequence(model, 20, seed=77)
        b = sample_sequence(model, 20, seed=77)
        np.testing.assert_array_equal(a, b)
        c = sample_sequence(model, 20, seed=78)
        assert not np.array_equal(a, c)

    def test_shape_and_statistics(self):
        em = GmmEmission([1.0], [[5.0, -3.0]], [[0.5, 2.0]])
        model = HmmModel(np.array([[1.0]]), (em,))
        draws = sample_sequence(model, 4000, seed=3)
        assert draws.shape == (4000, 2)
        np.testing.assert_allclose(draws.mean(axis=0), [5.0, -3.0], atol=0.15)
        np.testing.assert_allclose(draws.var(axis=0), [0.5, 2.0], rtol=0.15)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        model = random_model(rng, 3, 2, 5, max_skip=2)
        path = tmp_path / "m.emvh"
        save_hmm(model, path)
        back = load_hmm(path)
        np.testing.assert_array_equal(back.transitions, model.transitions)
        assert back.max_skip == 2
        for e1, e2 in zip(back.emissions, model.emissions):
            np.testing.assert_array_equal(e1.weights, e2.weights)
            np.testing.assert_array_equal(e1.means, e2.means)
            np.testing.assert_array_equal(e1.variances, e2.variances)

    def test_nested_blocks_in_one_stream(self):
        rng = np.random.default_rng(38)
        m1 = random_model(rng, 2, 1, 2)
        m2 = random_model(rng, 3, 2, 2)
        buf = io.BytesIO()
        write_hmm(buf, m1)
        write_hmm(buf, m2)
        buf.seek(0)
        r1 = read_hmm(buf)
        r2 = read_hmm(buf)
        assert r1.n_states == 2 and r2.n_states == 3
        np.testing.assert_array_equal(r2.transitions, m2.transitions)

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            read_hmm(io.BytesIO(b"XXXX" + b"\x00" * 64))

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(39)
        model = random_model(rng, 2, 1, 2)
        path = tmp_path / "m.emvh"
        save_hmm(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_hmm(path)
