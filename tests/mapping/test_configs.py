"""Table II configuration tests — every published cell must reproduce."""

import pytest

from repro.kernels.precision import Precision
from repro.mapping.configs import (
    ALL_CONFIGS,
    FP32_CONFIGS,
    INT8_CONFIGS,
    KERNEL_FP32,
    KERNEL_INT8,
    config_by_name,
    configs_for,
)
from repro.workloads.gemm import GemmShape

#: Table II, verbatim from the paper.
TABLE_II = {
    "C1": ("fp32", 16, "32x128x128", 7),
    "C2": ("fp32", 32, "64x128x128", 10),
    "C3": ("fp32", 64, "128x128x128", 20),
    "C4": ("fp32", 128, "128x256x128", 36),
    "C5": ("fp32", 256, "256x128x256", 64),
    "C6": ("fp32", 384, "384x128x256", 96),
    "C7": ("int8", 16, "128x256x128", 14),
    "C8": ("int8", 32, "128x256x256", 20),
    "C9": ("int8", 64, "256x256x256", 40),
    "C10": ("int8", 128, "256x512x256", 72),
    "C11": ("int8", 256, "256x512x512", 112),
}


class TestTable2Verbatim:
    @pytest.mark.parametrize("name", list(TABLE_II))
    def test_row_matches_paper(self, name):
        precision, aies, native, plios = TABLE_II[name]
        config = config_by_name(name)
        assert str(config.precision) == precision
        assert config.num_aies == aies
        assert str(config.native_size) == native
        assert config.num_plios == plios

    def test_eleven_configs(self):
        assert len(ALL_CONFIGS) == 11
        assert len(FP32_CONFIGS) == 6
        assert len(INT8_CONFIGS) == 5

    def test_grouping_product_identity(self, any_config):
        g = any_config.grouping
        assert g.gm * g.gk * g.gn == any_config.num_aies

    def test_native_size_from_grouping(self, any_config):
        g = any_config.grouping
        expected = GemmShape(g.gm * g.kernel.m, g.gk * g.kernel.k, g.gn * g.kernel.n)
        assert any_config.native_size == expected

    def test_kernels_match_section_vc(self, any_config):
        expected = KERNEL_FP32 if any_config.precision is Precision.FP32 else KERNEL_INT8
        assert any_config.kernel == expected

    def test_all_use_4r2w(self, any_config):
        """Table II note: all configurations use the 4r2w DDR setup."""
        assert str(any_config.dram_ports) == "4r2w"


class TestPlioSplit:
    def test_split_sums_to_total(self, any_config):
        assert sum(any_config.plio_split()) == any_config.num_plios

    def test_split_minimum_one_each(self, any_config):
        assert all(p >= 1 for p in any_config.plio_split())

    def test_c1_split_matches_fig12b(self):
        """Fig. 12(b): 2 for A, 4 for B, 1 for C."""
        assert config_by_name("C1").plio_split() == (2, 4, 1)

    def test_c7_split_matches_fig12c(self):
        """Fig. 12(c): 8 for A, 4 for B, 2 for C."""
        assert config_by_name("C7").plio_split() == (8, 4, 2)


class TestLookups:
    def test_case_insensitive(self):
        assert config_by_name("c6") is config_by_name("C6")

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            config_by_name("C99")

    def test_name_tuples_list_the_registry(self):
        """The parser checks ``--configs`` against these tuples instead
        of building the registry, so they must name it exactly."""
        from repro.mapping.config_names import INT16_NAMES, TABLE2_NAMES
        from repro.mapping.configs import INT16_CONFIGS

        assert TABLE2_NAMES == tuple(config.name for config in ALL_CONFIGS)
        assert INT16_NAMES == tuple(config.name for config in INT16_CONFIGS)
        with pytest.raises(KeyError) as error:
            config_by_name("C99")
        assert error.value.args[0] == (
            "unknown config 'C99'; known: " + ", ".join(TABLE2_NAMES)
        )

    def test_configs_for_precision(self):
        assert configs_for(Precision.FP32) == FP32_CONFIGS
        assert configs_for(Precision.INT8) == INT8_CONFIGS

    def test_str_mentions_native_size(self):
        assert "384x128x256" in str(config_by_name("C6"))
