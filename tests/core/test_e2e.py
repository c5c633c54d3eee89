"""End-to-end model estimation tests."""

import pytest

from repro.core.e2e import ModelEstimator
from repro.kernels.precision import Precision
from repro.mapping.configs import config_by_name
from repro.workloads.transformer import BERT_LARGE, LLAMA2_13B


@pytest.fixture(scope="module")
def estimator():
    return ModelEstimator(Precision.FP32)


class TestModelEstimates:
    def test_totals_sum_layers(self, estimator):
        estimate = estimator.estimate(BERT_LARGE, tokens=512)
        assert estimate.total_seconds == pytest.approx(
            sum(l.total_seconds for l in estimate.layers)
        )

    def test_flops_accounted(self, estimator):
        estimate = estimator.estimate(BERT_LARGE, tokens=512)
        assert estimate.total_flops == BERT_LARGE.forward_flops(512)
        assert estimate.throughput_ops > 0

    def test_bigger_model_slower(self, estimator):
        bert = estimator.estimate(BERT_LARGE, tokens=512).total_seconds
        llama = estimator.estimate(LLAMA2_13B, tokens=512).total_seconds
        assert llama > bert

    def test_tokens_per_second_positive(self, estimator):
        assert estimator.estimate(BERT_LARGE, tokens=256).tokens_per_second > 0

    def test_dominant_layer_is_mlp(self, estimator):
        """MLP GEMMs carry ~2/3 of transformer FLOPs."""
        estimate = estimator.estimate(LLAMA2_13B, tokens=1024)
        assert estimate.dominant_layer().gemm.name.startswith("mlp")


    def test_repeated_layer_pays_setup_once(self, estimator):
        """A resident graph pays the AIE setup once, not once per call."""
        for layer in estimator.estimate(BERT_LARGE, tokens=512).layers:
            naive = layer.gemm.count * layer.single_seconds
            saved = (layer.gemm.count - 1) * layer.setup_seconds
            assert layer.setup_seconds > 0
            assert layer.total_seconds == pytest.approx(naive - saved)

    def test_e2e_with_attention_slower(self, estimator):
        base = estimator.estimate(BERT_LARGE, 1024)
        full = estimator.estimate(BERT_LARGE, 1024, include_attention=True)
        assert full.total_seconds > base.total_seconds
        assert full.total_flops > base.total_flops

class TestConfigSelection:
    def test_per_layer_selection_never_worse(self):
        per_layer = ModelEstimator(Precision.FP32, per_layer_selection=True)
        fixed = ModelEstimator(Precision.FP32, per_layer_selection=False)
        a = per_layer.estimate(BERT_LARGE, tokens=512).total_seconds
        b = fixed.estimate(BERT_LARGE, tokens=512).total_seconds
        assert a <= b * 1.0001

    def test_restricted_config_set(self):
        only_c1 = ModelEstimator(Precision.FP32, configs=(config_by_name("C1"),))
        estimate = only_c1.estimate(BERT_LARGE, tokens=256)
        assert all(l.config_name == "C1" for l in estimate.layers)

    def test_int8_estimator(self):
        estimator = ModelEstimator(Precision.INT8)
        fp32 = ModelEstimator(Precision.FP32)
        int8_t = estimator.estimate(BERT_LARGE, tokens=512).total_seconds
        fp32_t = fp32.estimate(BERT_LARGE, tokens=512).total_seconds
        assert int8_t < fp32_t  # 16x the MACs/cycle

    def test_empty_config_set_rejected(self):
        with pytest.raises(ValueError):
            ModelEstimator(Precision.FP32, configs=())
