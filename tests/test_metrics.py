"""Unit tests for metrics: accuracy, perplexity, consistency, cost."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.metrics import (
    accuracy,
    active_params,
    cost_table,
    error_rate,
    inclusion_coefficient,
    inclusion_matrix,
    measured_flops,
    perplexity,
    top_k_accuracy,
)


class TestClassificationMetrics:
    LOGITS = np.array([[2.0, 1.0, 0.0],
                       [0.0, 2.0, 1.0],
                       [0.0, 1.0, 2.0]])

    def test_accuracy(self):
        assert accuracy(self.LOGITS, np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_error_rate_complements(self):
        targets = np.array([0, 1, 2])
        assert error_rate(self.LOGITS, targets) == pytest.approx(
            1 - accuracy(self.LOGITS, targets))

    def test_topk(self):
        targets = np.array([1, 0, 1])
        assert top_k_accuracy(self.LOGITS, targets, 2) == pytest.approx(2 / 3)
        assert top_k_accuracy(self.LOGITS, targets, 1) == pytest.approx(0.0)
        assert top_k_accuracy(self.LOGITS, targets, 3) == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ShapeError):
            top_k_accuracy(self.LOGITS, np.array([0, 0, 0]), 5)


class TestPerplexity:
    def test_uniform(self):
        assert perplexity(np.log(100)) == pytest.approx(100.0)

    def test_zero_nll(self):
        assert perplexity(0.0) == pytest.approx(1.0)


class TestInclusionCoefficient:
    def test_identical_errors(self):
        mask = np.array([True, False, True])
        assert inclusion_coefficient(mask, mask) == 1.0

    def test_disjoint_errors(self):
        a = np.array([True, False, False])
        b = np.array([False, True, False])
        assert inclusion_coefficient(a, b) == 0.0

    def test_partial_overlap(self):
        large = np.array([True, True, False, False])
        small = np.array([True, False, True, False])
        assert inclusion_coefficient(large, small) == pytest.approx(0.5)

    def test_no_errors_defined_as_one(self):
        none = np.zeros(4, dtype=bool)
        some = np.array([True, False, False, False])
        assert inclusion_coefficient(none, some) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inclusion_coefficient(np.zeros(3, bool), np.zeros(4, bool))

    def test_matrix_diagonal_ones(self):
        masks = {1.0: np.array([True, False]),
                 0.5: np.array([False, True])}
        matrix = inclusion_matrix(masks)
        np.testing.assert_allclose(np.diag(matrix), 1.0)
        assert matrix[0, 1] == 0.0


class TestCostAccounting:
    def test_measured_flops_positive_and_quadratic(self):
        from repro.models import MLP
        model = MLP(16, [32, 32], 4)
        full = measured_flops(model, (1, 16), 1.0)
        half = measured_flops(model, (1, 16), 0.5)
        assert full > 0
        assert half < full * 0.5

    def test_active_params_full_equals_total(self):
        from repro.models import MLP
        model = MLP(16, [32, 32], 4)
        assert active_params(model, 1.0) == model.num_parameters()

    def test_cost_table_fractions(self):
        from repro.models import MLP
        model = MLP(16, [32, 32], 4)
        table = cost_table(model, (1, 16), [0.5, 1.0])
        assert table[1.0]["flops_fraction"] == pytest.approx(1.0)
        assert table[0.5]["flops_fraction"] < 0.5
        assert table[0.5]["params_fraction"] < 0.5

    def test_measured_flops_restores_training_mode(self):
        from repro.models import MLP
        model = MLP(8, [8], 2)
        model.train()
        measured_flops(model, (1, 8), 1.0)
        assert model.training

    def test_token_input_builder(self):
        from repro.models import NNLM
        model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8)
        flops = measured_flops(
            model, (4, 2), rate=1.0,
            input_builder=lambda shape: np.zeros(shape, dtype=np.int64),
        )
        assert flops > 0


class TestMemoryAccounting:
    def _model(self):
        from repro.models import MLP
        model = MLP(16, [32, 32], 4, seed=0)
        model.eval()
        return model

    def test_param_bytes_tracks_active_params(self):
        from repro.metrics.flops import active_params, param_bytes
        model = self._model()
        for rate in (0.25, 0.5, 1.0):
            assert param_bytes(model, rate) == \
                4 * active_params(model, rate)

    @pytest.mark.parametrize("kind", ["mlp", "vgg", "vgg_multi_bn", "tenc",
                                      "tlm"])
    def test_param_bytes_equal_compiled_plan_bytes(self, kind):
        # The cost model's weight bytes must be the bytes a replica
        # serving the profile actually holds: its compiled plan's.
        from repro.metrics.flops import param_bytes
        from repro.models import (MLP, SlicedVGG, TransformerEncoder,
                                  TransformerLM)
        from repro.models.transformer import head_ffn_profile
        from repro.slicing import compile_plan
        model = {
            "mlp": lambda: MLP(16, [32, 24], 4, seed=0),
            "vgg": lambda: SlicedVGG.cifar_mini(num_classes=5, width=8),
            # One BN per rate; only the branch a rate selects is resident.
            "vgg_multi_bn": lambda: SlicedVGG.cifar_mini(
                num_classes=5, width=8, norm="multi_bn",
                rates=[0.25, 0.5, 1.0]),
            "tenc": lambda: TransformerEncoder(
                image_size=8, patch_size=4, embed_dim=32, num_heads=4,
                ffn_dim=64, seed=0),
            "tlm": lambda: TransformerLM(31, embed_dim=32, num_heads=4,
                                         ffn_dim=64, max_seq=12, seed=0),
        }[kind]()
        profiles = [0.25, 0.5, 1.0] if kind == "vgg_multi_bn" \
            else [0.25, 0.5, 0.75, 1.0]
        if kind in ("tenc", "tlm"):
            profiles += [head_ffn_profile(model, h, f)
                         for h, f in [(0.5, 1.0), (1.0, 0.25),
                                      (0.25, 0.75)]]
            profiles.append(head_ffn_profile(model, 0.5, 0.5, default=0.5))
        for profile in profiles:
            assert param_bytes(model, profile) == \
                compile_plan(model, profile).param_bytes(), profile

    def test_peak_activations_shrink_with_rate(self):
        from repro.metrics.flops import peak_activation_bytes
        model = self._model()
        full = peak_activation_bytes(model, (8, 16), rate=1.0)
        half = peak_activation_bytes(model, (8, 16), rate=0.5)
        assert 0 < half < full

    def test_memory_of_profile_and_table(self):
        from repro.metrics.flops import memory_of_profile, memory_table
        model = self._model()
        entry = memory_of_profile(model, (2, 16), rate=0.5)
        assert entry["total_bytes"] == \
            entry["param_bytes"] + entry["peak_activation_bytes"]
        assert entry["batch"] == 2
        table = memory_table(model, (2, 16), [0.25, 1.0])
        assert table[0.25]["param_bytes"] < table[1.0]["param_bytes"]

    def test_recorder_leaves_model_functional(self):
        from repro.metrics.flops import peak_activation_bytes
        from repro.nn import Module
        model = self._model()
        before = Module.__call__
        peak_activation_bytes(model, (1, 16), rate=0.5)
        # The temporary __call__ instrumentation must be fully undone.
        assert Module.__call__ is before
        from repro.tensor import Tensor
        out = model(Tensor(np.zeros((1, 16), dtype=np.float32)))
        assert out.data.shape == (1, 4)

    def test_token_models_need_input_builder(self):
        from repro.metrics.flops import peak_activation_bytes
        from repro.models import NNLM
        model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8)
        model.eval()
        peak = peak_activation_bytes(
            model, (2, 4), rate=1.0,
            input_builder=lambda shape: np.zeros(shape, dtype=np.int64))
        assert peak > 0
