"""Transformer workload-generator tests."""

import pytest

from repro.workloads.gemm import GemmShape
from repro.workloads.transformer import (
    BERT_LARGE,
    LLAMA2_13B,
    MODEL_ZOO,
    TransformerConfig,
    model_by_name,
)


class TestLayerGemms:
    def test_bert_large_mlp_matches_table3(self):
        """Table III's B1 (3072x4096x1024) is BERT-large's MLP-down GEMM
        at 3072 tokens; V1 is the MLP-up."""
        gemms = {g.name: g.shape for g in BERT_LARGE.layer_gemms(3072)}
        assert gemms["mlp_down"] == GemmShape(3072, 4096, 1024)
        assert gemms["mlp_up"] == GemmShape(3072, 1024, 4096)

    def test_llama13b_dimensions(self):
        assert LLAMA2_13B.hidden == 5120
        assert LLAMA2_13B.intermediate == 13824  # Table III's L1 M dimension

    def test_separate_qkv_produces_three_projections(self):
        names = [g.name for g in BERT_LARGE.layer_gemms(128)]
        assert names.count("q_proj") == 1
        assert len([n for n in names if n.endswith("_proj")]) == 3

    def test_merged_qkv(self):
        merged = TransformerConfig("m", 1024, 4096, 2, 16, separate_qkv=False)
        gemms = {g.name: g.shape for g in merged.layer_gemms(64)}
        assert gemms["qkv_proj"] == GemmShape(64, 1024, 3 * 1024)

    def test_rejects_non_positive_tokens(self):
        with pytest.raises(ValueError):
            BERT_LARGE.layer_gemms(0)


class TestForwardPass:
    def test_counts_equal_num_layers(self):
        for gemm in BERT_LARGE.forward_gemms(128):
            assert gemm.count == BERT_LARGE.num_layers

    def test_forward_flops_consistent(self):
        tokens = 256
        total = sum(g.total_flops for g in BERT_LARGE.forward_gemms(tokens))
        assert BERT_LARGE.forward_flops(tokens) == total

    def test_flops_scale_linearly_with_tokens(self):
        assert BERT_LARGE.forward_flops(512) == 2 * BERT_LARGE.forward_flops(256)

    def test_head_dim(self):
        assert LLAMA2_13B.head_dim == 128



class TestAttentionGemms:
    def test_shapes(self):
        scores, values = LLAMA2_13B.attention_gemms(2048)
        assert scores.shape == GemmShape(2048, 128, 2048)
        assert values.shape == GemmShape(2048, 2048, 128)
        assert scores.count == LLAMA2_13B.num_heads

    def test_forward_with_attention_has_more_flops(self):
        with_attn = BERT_LARGE.forward_flops(1024, include_attention=True)
        without = BERT_LARGE.forward_flops(1024, include_attention=False)
        assert with_attn > without

class TestDecodeGemms:
    def test_m_is_batch(self):
        for gemm in LLAMA2_13B.decode_gemms(batch=4):
            assert gemm.shape.m == 4

    def test_k_n_match_prefill(self):
        prefill = {g.name: g.shape for g in LLAMA2_13B.layer_gemms(128)}
        for gemm in LLAMA2_13B.decode_gemms(batch=1):
            assert gemm.shape.k == prefill[gemm.name].k
            assert gemm.shape.n == prefill[gemm.name].n

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            LLAMA2_13B.decode_gemms(batch=0)


class TestZoo:
    def test_lookup(self):
        assert model_by_name("bert-large") is BERT_LARGE

    def test_unknown(self):
        with pytest.raises(KeyError):
            model_by_name("gpt-17")

    def test_zoo_unique_names(self):
        names = [m.name for m in MODEL_ZOO]
        assert len(set(names)) == len(names)
