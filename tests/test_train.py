import importlib
import weakref

import numpy as np
import pytest

from imtscast.config import TrainConfig
from imtscast.data import DataError, align
from imtscast.datasets import PRESETS, SynthSpec, generate, split_samples
from imtscast.model import ModelParams, forward
from imtscast.train import (
    CLIP_NORM,
    AdamState,
    DivergenceError,
    adam_step,
    chunk_spans,
    clip_gradients,
    evaluate,
    mean_predictor_baseline,
    metrics,
    mse_loss,
    shuffled_order,
    train,
)
from imtscast.tape import Tape

# ``imtscast.train`` the attribute is the train() function re-exported by the
# package, so the module is fetched by its full name.
train_module = importlib.import_module("imtscast.train")


class TestLossAndMetrics:
    def test_perfect_predictions(self):
        assert mse_loss([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_variate_averaged_hand_case(self):
        # variate 1: one query with residual 2; variate 2: two with residual 0
        loss = mse_loss([[2.0], [1.0, 1.0]], [[0.0], [1.0, 1.0]])
        assert loss == pytest.approx(2.0, abs=0)

    def test_queryless_variate_excluded(self):
        assert mse_loss([[], [1.0]], [[], [0.0]]) == pytest.approx(1.0, abs=0)

    def test_no_queries_anywhere_rejected(self):
        with pytest.raises(DataError, match="zero queries"):
            mse_loss([[], []], [[], []])

    def test_variate_weighting_differs_from_pooled(self):
        preds = [[1.0], [0.0, 0.0]]
        targets = [[0.0], [0.0, 0.0]]
        assert mse_loss(preds, targets) == pytest.approx(0.5)
        pooled = metrics([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert pooled["mse"] == pytest.approx(1.0 / 3.0)

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
    def test_zero_gradients_leave_parameters_unchanged(self):
        arrays = {"w": np.array([1.0, -2.0])}
        state = AdamState(first={"w": np.zeros(2)}, second={"w": np.zeros(2)})
        adam_step(arrays, {"w": np.zeros(2)}, state, lr=1e-2)
        assert arrays["w"].tolist() == [1.0, -2.0]

    def test_first_step_is_signed_learning_rate(self):
        arrays = {"w": np.array([0.0, 0.0])}
        state = AdamState(first={"w": np.zeros(2)}, second={"w": np.zeros(2)})
        adam_step(arrays, {"w": np.array([0.3, -7.0])}, state, lr=1e-3)
        assert np.allclose(arrays["w"], [-1e-3, 1e-3], rtol=1e-6)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        arrays = {"w": np.array([0.0])}
        state = AdamState(first={"w": np.zeros(1)}, second={"w": np.zeros(1)})
        g = {"w": np.array([0.5])}
        lr = 1e-3
        prev = arrays["w"].copy()
        for _ in range(500):
            prev = arrays["w"].copy()
            adam_step(arrays, g, state, lr)
        assert abs(abs(arrays["w"][0] - prev[0]) - lr) < 1e-5

    @pytest.mark.parametrize("lr", [1e-3, 1e-2])
    def test_single_step_decreases_quadratic(self, lr):
        arrays = {"w": np.array([3.0])}
        state = AdamState(first={"w": np.zeros(1)}, second={"w": np.zeros(1)})
        before = arrays["w"][0] ** 2
        adam_step(arrays, {"w": 2.0 * arrays["w"]}, state, lr)
        assert arrays["w"][0] ** 2 < before

    def test_non_finite_gradient_skips_step(self):
        arrays = {"w": np.array([1.0])}
        state = AdamState(first={"w": np.zeros(1)}, second={"w": np.zeros(1)})
        applied = adam_step(arrays, {"w": np.array([np.nan])}, state, lr=1e-2)
        assert not applied
        assert arrays["w"][0] == 1.0 and state.step == 0

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}
        total = clip_gradients(grads, max_norm=5.0)
        assert total == pytest.approx(50.0)
        clipped = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert clipped == pytest.approx(5.0)

    def test_clip_of_finite_gradients_whose_squares_overflow(self):
        # 1e200 ** 2 overflows: the plain norm is inf and max_norm / inf
        # would zero the gradients, so Adam would take a zero step.
        grads = {"a": np.array([1e200, -1e200]), "b": np.array([1e199])}
        total = clip_gradients(grads)
        assert total == pytest.approx(np.sqrt(2.01) * 1e200, rel=1e-12)
        clipped = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert clipped == pytest.approx(CLIP_NORM, rel=1e-12)
        assert grads["a"][0] > 0 > grads["a"][1]

    def test_clip_leaves_non_finite_gradients_untouched(self, recwarn):
        # max_norm / inf = 0 would write inf * 0 = NaN into the arrays.
        grads = {"a": np.array([np.inf, 4.0]), "b": np.array([3.0])}
        assert clip_gradients(grads) == np.inf
        assert grads["a"].tolist() == [np.inf, 4.0] and grads["b"].tolist() == [3.0]
        assert not recwarn.list


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
        stats, _ = evaluate(result.params, samples[4:])
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
        stats, preds = evaluate(params, samples)
        assert len(tapes) == len(chunk_spans([align(s) for s in samples]))
        assert all(ref() is None for ref in tapes)
        assert np.concatenate(preds).size == sum(q.size for s in samples for q in s.query_times)

    def test_evaluate_predictions_equal_a_grad_tape_forward(self):
        samples = tiny_dataset(seed=8, n_samples=9)
        params = ModelParams.init(tiny_cfg(), seed=3)
        _stats, preds = evaluate(params, samples)
        triplets = [align(s) for s in samples]
        want = []
        for span in chunk_spans(triplets):
            res = forward(Tape(), params, triplets[span.start : span.stop],
                          [samples[i].query_times for i in span])
            want.extend(res.per_sample())
        assert len(preds) == len(want) == len(samples)
        assert all(np.array_equal(got, w) for got, w in zip(preds, want))

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


class TestLearnability:
    def test_sinusoid_a_reaches_half_the_mean_predictor_baseline(self):
        # The reference task at the default config, unshrunk: 500 training
        # samples, 30 epochs.
        spec = PRESETS["sinusoid-a"]
        splits = split_samples(generate(spec), spec)
        result = train(splits["train"], splits["val"], TrainConfig(max_epochs=30))
        stats, _ = evaluate(result.params, splits["test"])
        baseline = mean_predictor_baseline(splits["train"], splits["test"])
        assert stats["mse"] <= 0.5 * baseline, (stats["mse"], baseline)
