import importlib
import weakref

import numpy as np
import pytest

from imtscast.config import TrainConfig
from imtscast.data import DataError, ImtsSample, RawSeries, align
from imtscast.datasets import PRESETS, SynthSpec, generate, split_samples
from imtscast.model import ForwardResult, ModelParams, forward
from imtscast.train import (
    CLIP_NORM,
    AdamState,
    DivergenceError,
    adam_step,
    build_loss,
    chunk_spans,
    clip_gradients,
    evaluate,
    inference_chunks,
    mean_predictor_baseline,
    metrics,
    shuffled_order,
    train,
)
from imtscast.tape import Tape

from conftest import chunk_of

# ``imtscast.train`` the attribute is the train() function re-exported by the
# package, so the module is fetched by its full name.
train_module = importlib.import_module("imtscast.train")


def objective(predictions, targets, counts, samples=1):
    """``build_loss`` of a hand-built chunk: flat predictions and targets,
    queries per variate sample after sample."""
    tape = Tape()
    result = ForwardResult(tape.const(np.asarray(predictions, dtype=float)[:, None]),
                           list(counts), samples)
    return float(build_loss(result, np.asarray(targets, dtype=float)).data)


class TestLossAndMetrics:
    def test_perfect_predictions(self):
        assert objective([1.0, 2.0], [1.0, 2.0], [2]) == 0.0

    def test_variate_averaged_hand_case(self):
        # variate 1: one query with residual 2; variate 2: two with residual 0
        loss = objective([2.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1, 2])
        assert loss == pytest.approx(2.0, abs=0)

    def test_queryless_variate_excluded(self):
        assert objective([1.0], [0.0], [0, 1]) == pytest.approx(1.0, abs=0)

    def test_no_queries_anywhere_rejected(self):
        with pytest.raises(DataError, match="no queries"):
            objective([], [], [0, 0])

    def test_variate_weighting_differs_from_pooled(self):
        assert objective([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1, 2]) == pytest.approx(0.5)
        pooled = metrics([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert pooled["mse"] == pytest.approx(1.0 / 3.0)

    def test_chunk_objective_sums_each_samples_variate_average(self):
        # Sample 1 has two variates with queries: residual 2 alone, and
        # residuals 1 and 0, so (4 + 0.5) / 2. Sample 2 has one: residuals
        # 1 and 3, so 5. Pooling the chunk's 5 queries would give 3.
        first = ([2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1, 2, 0])
        second = ([1.0, 3.0], [0.0, 0.0], [0, 0, 2])
        assert objective(*first) == 2.25 and objective(*second) == 5.0
        chunk = objective(first[0] + second[0], first[1] + second[1],
                          first[2] + second[2], samples=2)
        assert chunk == 7.25

    def test_metrics_symmetric_residuals(self):
        out = metrics([1.0, -1.0], [0.0, 0.0])
        assert out == {"mse": 1.0, "mae": 1.0}

    def test_metrics_single_point(self):
        out = metrics([3.0], [0.0])
        assert out["mse"] == 9.0 and out["mae"] == 3.0

    def test_metrics_match_direct_formula(self):
        rng = np.random.default_rng(0)
        pred, target = rng.standard_normal(100), rng.standard_normal(100)
        out = metrics(pred, target)
        assert out["mse"] == pytest.approx(np.mean((pred - target) ** 2), abs=0)
        assert out["mae"] == pytest.approx(np.mean(np.abs(pred - target)), abs=0)

    def test_metrics_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            metrics([], [])


class TestAdam:
    """The optimizer and the clip work on flat vectors, laid out as
    ``ModelParams.flat``."""

    def state(self, size):
        return AdamState(first=np.zeros(size), second=np.zeros(size))

    def test_zero_gradients_leave_parameters_unchanged(self):
        flat = np.array([1.0, -2.0])
        adam_step(flat, np.zeros(2), self.state(2), lr=1e-2)
        assert flat.tolist() == [1.0, -2.0]

    def test_first_step_is_signed_learning_rate(self):
        flat = np.array([0.0, 0.0])
        adam_step(flat, np.array([0.3, -7.0]), self.state(2), lr=1e-3)
        assert np.allclose(flat, [-1e-3, 1e-3], rtol=1e-6)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        flat = np.array([0.0])
        state = self.state(1)
        g = np.array([0.5])
        lr = 1e-3
        prev = flat.copy()
        for _ in range(500):
            prev = flat.copy()
            adam_step(flat, g, state, lr)
        assert abs(abs(flat[0] - prev[0]) - lr) < 1e-5

    @pytest.mark.parametrize("lr", [1e-3, 1e-2])
    def test_single_step_decreases_quadratic(self, lr):
        flat = np.array([3.0])
        before = flat[0] ** 2
        adam_step(flat, 2.0 * flat, self.state(1), lr)
        assert flat[0] ** 2 < before

    def test_non_finite_gradient_skips_step(self):
        flat = np.array([1.0])
        state = self.state(1)
        applied = adam_step(flat, np.array([np.nan]), state, lr=1e-2)
        assert not applied
        assert flat[0] == 1.0 and state.step == 0

    def test_clip_rescales_to_max_norm(self):
        grads = np.array([30.0, 40.0])
        total = clip_gradients(grads, max_norm=5.0)
        assert total == pytest.approx(50.0)
        assert np.sqrt((grads * grads).sum()) == pytest.approx(5.0)

    def test_clip_of_finite_gradients_whose_squares_overflow(self):
        # 1e200 ** 2 overflows: the plain norm is inf and max_norm / inf
        # would zero the gradients, so Adam would take a zero step.
        grads = np.array([1e200, -1e200, 1e199])
        total = clip_gradients(grads)
        assert total == pytest.approx(np.sqrt(2.01) * 1e200, rel=1e-12)
        assert np.sqrt((grads * grads).sum()) == pytest.approx(CLIP_NORM, rel=1e-12)
        assert grads[0] > 0 > grads[1]

    def test_clip_leaves_non_finite_gradients_untouched(self, recwarn):
        # max_norm / inf = 0 would write inf * 0 = NaN into the vector.
        grads = np.array([np.inf, 4.0, 3.0])
        assert clip_gradients(grads) == np.inf
        assert grads.tolist() == [np.inf, 4.0, 3.0]
        assert not recwarn.list

    def test_state_is_laid_out_as_the_parameter_vector(self):
        params = ModelParams.init(TrainConfig(hidden=8, heads=2, rff_dim=8, kernels=2,
                                              conv_channels=2, time_dim=4), seed=0)
        state = AdamState.init(params)
        assert state.first.shape == state.second.shape == params.flat.shape
        grads = np.ones_like(params.flat)
        before = params.arrays["head.w2"].copy()
        assert adam_step(params.flat, grads, state, lr=1e-3)
        # The named arrays are views of the vector the step updated.
        assert np.allclose(params.arrays["head.w2"], before - 1e-3, rtol=0, atol=1e-9)


def tiny_dataset(seed=0, n_samples=6):
    spec = SynthSpec(n_variates=2, n_samples=n_samples, mean_observations=6.0,
                     n_components=1, noise_std=0.05, queries_per_variate=2, seed=seed)
    return generate(spec)


def tiny_cfg(**kw):
    base = dict(hidden=8, heads=2, rff_dim=8, kernels=2, conv_channels=2,
                time_dim=4, blocks=1, batch_size=4, max_epochs=3, patience=50,
                learning_rate=1e-3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainingLoop:
    def test_deterministic_given_seed(self):
        samples = tiny_dataset()
        cfg = tiny_cfg()
        r1 = train(samples[:4], samples[4:], cfg)
        r2 = train(samples[:4], samples[4:], cfg)
        for name in r1.params.arrays:
            assert np.array_equal(r1.params.arrays[name], r2.params.arrays[name])
        assert [h.val_mse for h in r1.history] == [h.val_mse for h in r2.history]
        assert [h.train_loss for h in r1.history] == [h.train_loss for h in r2.history]

    def test_best_checkpoint_contract(self):
        samples = tiny_dataset(seed=1)
        cfg = tiny_cfg(max_epochs=6)
        result = train(samples[:4], samples[4:], cfg)
        assert result.best_val_mse == min(h.val_mse for h in result.history)
        stats = evaluate(result.params, samples[4:])
        assert stats["mse"] == pytest.approx(result.best_val_mse, rel=1e-12)

    def test_evaluate_frees_every_tape(self, monkeypatch):
        samples = tiny_dataset(seed=7)
        params = ModelParams.init(tiny_cfg())
        tapes = []

        def tracked_tape(**kwargs):
            tape = Tape(**kwargs)
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(train_module, "Tape", tracked_tape)
        evaluate(params, samples)
        blocks = [align(s) for s in samples]
        counts = [sum(q.size for q in s.query_times) for s in samples]
        spans = chunk_spans(blocks, counts, params.cfg)
        assert len(tapes) == len(spans)
        assert all(ref() is None for ref in tapes)

        # A caller of ``inference_chunks`` that keeps only arrays frees
        # every tape too.
        tapes.clear()
        preds = [res.predictions.data for _span, res in
                 inference_chunks(params, blocks, [s.query_times for s in samples])]
        assert len(tapes) == len(spans)
        assert all(ref() is None for ref in tapes)
        assert np.concatenate(preds).size == sum(q.size for s in samples for q in s.query_times)

    def test_evaluate_predictions_equal_a_grad_tape_forward(self):
        samples = tiny_dataset(seed=8, n_samples=9)
        params = ModelParams.init(tiny_cfg(), seed=3)
        got, want = [], []
        for span, res in inference_chunks(params, [align(s) for s in samples],
                                          [s.query_times for s in samples]):
            got.append(res.predictions.data)
            want.append(forward(Tape(), params,
                                *chunk_of(samples[span.start : span.stop])).predictions.data)
        assert len(got) < len(samples)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        targets = np.concatenate([t for s in samples for t in s.query_targets])
        assert evaluate(params, samples) == metrics(np.concatenate(want), targets)

    def test_history_is_finite(self):
        samples = tiny_dataset(seed=2)
        result = train(samples[:4], samples[4:], tiny_cfg())
        for rec in result.history:
            assert np.isfinite(rec.train_loss) and np.isfinite(rec.val_mse)

    def test_patience_stops_at_best_epoch_plus_patience(self):
        # A zero model on zero targets is exactly optimal from epoch one, so
        # the stopper must fire at precisely best_epoch + patience.
        samples = tiny_dataset(seed=3)
        zeroed = []
        for s in samples:
            targets = tuple(np.zeros_like(t) for t in s.query_targets)
            zeroed.append(type(s)(sample_id=s.sample_id, series=s.series,
                                  query_times=s.query_times, query_targets=targets))
        cfg = tiny_cfg(patience=3, max_epochs=50)
        initial = ModelParams.init(cfg)
        for arr in initial.arrays.values():
            arr[:] = 0.0
        result = train(zeroed[:4], zeroed[4:], cfg, initial=initial)
        assert result.best_epoch == 1
        assert len(result.history) == 1 + cfg.patience

    def test_divergence_reports_and_carries_state(self):
        samples = tiny_dataset(seed=4)
        cfg = tiny_cfg(learning_rate=1e9, max_epochs=5)
        with pytest.raises(DivergenceError) as info:
            train(samples[:4], samples[4:], cfg)
        assert info.value.checkpoint is not None

    def test_empty_split_rejected(self):
        samples = tiny_dataset(seed=5)
        with pytest.raises(DataError, match="non-empty"):
            train([], samples, tiny_cfg())

    def test_shuffle_is_pure_function_of_seed_and_epoch(self):
        a = shuffled_order(7, 3, 100)
        b = shuffled_order(7, 3, 100)
        c = shuffled_order(7, 4, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_baseline_of_constant_data_is_zero(self):
        samples = tiny_dataset(seed=6)
        flat = []
        for s in samples:
            series = tuple(
                type(sr)(sr.variate_id, sr.times, np.full_like(sr.values, 2.0))
                for sr in s.series
            )
            targets = tuple(np.full_like(t, 2.0) for t in s.query_targets)
            flat.append(type(s)(sample_id=s.sample_id, series=series,
                                query_times=s.query_times, query_targets=targets))
        assert mean_predictor_baseline(flat, flat) == pytest.approx(0.0, abs=1e-28)

    def test_baseline_sizes_its_means_by_the_widest_sample(self):
        # Training means: variate 1 (1 + 3) / 2 = 2, variate 2 6 / 1 = 6,
        # variate 3 never observed in training, so 0. Queried targets 5
        # (variate 1), 4 (variate 2) and 1, 3 (variate 3) give squared
        # errors 9, 4, 1 and 9: a pooled MSE of 23 / 4.
        def sample(values, targets):
            series = tuple(RawSeries(v + 1, np.arange(1.0, len(vals) + 1), np.array(vals))
                           for v, vals in enumerate(values))
            times = tuple(np.arange(10.0, 10.0 + len(t)) for t in targets)
            return ImtsSample(sample_id=len(values), series=series, query_times=times,
                              query_targets=tuple(np.array(t, dtype=float) for t in targets))

        train_split = [sample([[1.0, 3.0]], [[0.0]]), sample([[], [6.0]], [[], [0.0]])]
        eval_split = [sample([[0.0], [0.0], [0.0]], [[5.0], [4.0], [1.0, 3.0]])]
        assert mean_predictor_baseline(train_split, eval_split) == 23 / 4

    def test_empty_inputs_raise_data_errors_naming_them(self):
        samples = tiny_dataset(seed=6)
        with pytest.raises(DataError, match="^evaluate: no samples to evaluate$"):
            evaluate(ModelParams.init(tiny_cfg()), [])
        for train_split, eval_split in ((samples, []), ([], [])):
            with pytest.raises(DataError, match="^mean_predictor_baseline: the evaluation "
                                                "samples hold no queries$"):
                mean_predictor_baseline(train_split, eval_split)

    def test_train_loss_is_the_mean_of_each_samples_objective(self):
        # One batch holds the whole split, so every chunk loss of the epoch
        # is taken at the initial parameters.
        samples = tiny_dataset(seed=9, n_samples=7)
        cfg = tiny_cfg(batch_size=5, max_epochs=1)
        result = train(samples[:5], samples[5:], cfg)
        initial = ModelParams.init(cfg)
        want = [
            float(build_loss(forward(Tape(), initial, align(s), s.query_times),
                             np.concatenate(s.query_targets)).data)
            for s in samples[:5]
        ]
        assert result.history[0].train_loss == pytest.approx(np.mean(want), rel=1e-12)


class TestLearnability:
    def test_sinusoid_a_reaches_half_the_mean_predictor_baseline(self):
        # The reference task at the default config, unshrunk: 500 training
        # samples, 30 epochs.
        spec = PRESETS["sinusoid-a"]
        splits = split_samples(generate(spec), spec)
        result = train(splits["train"], splits["val"], TrainConfig(max_epochs=30))
        stats = evaluate(result.params, splits["test"])
        baseline = mean_predictor_baseline(splits["train"], splits["test"])
        assert stats["mse"] <= 0.5 * baseline, (stats["mse"], baseline)
