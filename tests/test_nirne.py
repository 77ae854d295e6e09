import numpy as np
import pytest

from normalbridge import nirne, toydata
from normalbridge.toydata import Domain

CHANNELS = (4, 4, 4, 4)
SIZE = 16


def _config(steps):
    return nirne.TrainConfig(steps=steps, batch_size=2, log_every=1)


@pytest.fixture(scope="module")
def real():
    return toydata.make_dataset(4, Domain.REAL, 5, size=SIZE)


@pytest.fixture(scope="module")
def synth():
    return toydata.make_dataset(4, Domain.SYNTH, 6, size=SIZE)


def _snapshot(model):
    return {k: p.data.tobytes() for k, p in model.named_parameters().items()}


class TestSeededTraining:
    def test_stage1_and_stage2_logs_repeat_bit_for_bit(self, real, synth):
        runs = []
        for _ in range(2):
            model = nirne.DualStreamModel(CHANNELS, seed=3)
            log1 = nirne.train_stage1(model, real, 3, 7, _config(3))
            log2 = nirne.train_stage2(model, synth, 3, 7, _config(3))
            runs.append((log1, log2, _snapshot(model)))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == len(runs[0][1]) == 3

    def test_other_seed_differs(self, real):
        logs = [nirne.train_stage1(nirne.DualStreamModel(CHANNELS, seed=3), real, 2, seed, _config(2))
                for seed in (7, 8)]
        assert logs[0] != logs[1]


class TestStage2Freezing:
    def test_trainable_set_is_noisy_stream_and_fusion(self):
        model = nirne.DualStreamModel(CHANNELS, seed=3)
        names = set(model.named_parameters())
        want = {k for k in names if k.startswith("noisy.") or k.startswith("fuse")}
        assert model.stage2_trainable_names() == want
        assert model.frozen_names_stage2() == names - want
        assert any(k.startswith("clean.") for k in names - want)
        assert any(k.startswith("dec") for k in names - want)

    def test_frozen_parameters_bit_identical(self, real, synth):
        model = nirne.DualStreamModel(CHANNELS, seed=3)
        nirne.train_stage1(model, real, 2, 7, _config(2))
        before = _snapshot(model)
        nirne.train_stage2(model, synth, 3, 7, _config(3))
        after = _snapshot(model)
        frozen = model.frozen_names_stage2()
        assert frozen and all(after[k] == before[k] for k in frozen)
        assert all(after[k] != before[k] for k in model.stage2_trainable_names())
        assert all(p.requires_grad for p in model.named_parameters().values())

    def test_requires_grad_restored_when_training_raises(self, real, synth, monkeypatch):
        model = nirne.DualStreamModel(CHANNELS, seed=3)
        model.stage_trained = 1

        def failing_step(*args, **kwargs):
            raise RuntimeError("injected optimizer failure")

        monkeypatch.setattr(nirne, "adamw_step", failing_step)
        with pytest.raises(RuntimeError, match="injected"):
            nirne.train_stage2(model, synth, 2, 7, _config(2))
        params = model.named_parameters()
        assert all(p.requires_grad for p in params.values())
        assert model.stage_trained == 1


class TestPredictBatch:
    def test_chunk_size_does_not_change_predictions(self):
        samples = toydata.make_dataset(32, Domain.SYNTH, 8, size=SIZE)
        model = nirne.DualStreamModel(CHANNELS, seed=1)
        want = nirne.predict_batch(model, samples, batch_size=1)
        for batch_size in (3, 4, 16, 32, None):  # 3 leaves a last chunk of 2; None is the default
            kwargs = {} if batch_size is None else {"batch_size": batch_size}
            got = nirne.predict_batch(model, samples, **kwargs)
            assert len(got) == len(samples)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.vectors, w.vectors)
                np.testing.assert_array_equal(g.mask, w.mask)
