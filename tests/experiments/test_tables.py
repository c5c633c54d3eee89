"""Table driver tests."""

from repro.experiments import run_experiment


class TestTable1:
    def test_rows(self):
        result = run_experiment("table1")
        assert len(result.rows) == 5
        assert [r["platform"] for r in result.rows] == [
            "aiesimulator", "sw_emu", "hw_emu", "hw", "analytical",
        ]
        assert result.row_by("platform", "sw_emu")["usecase"] == "FV"
        assert result.row_by("platform", "hw_emu")["speed"] == "Slow"


class TestTable2:
    def test_rows_match_paper(self):
        result = run_experiment("table2")
        assert len(result.rows) == 11
        c6 = result.row_by("configuration", "C6")
        assert c6["aies"] == 384
        assert c6["native_size"] == "384x128x256"
        assert c6["plios"] == 96
        assert result.row_by("configuration", "C11")["plios"] == 112

    def test_render_contains_all_configs(self):
        text = run_experiment("table2").render()
        for name in ("C1", "C5", "C11"):
            assert name in text


class TestTable3:
    def test_rows(self):
        result = run_experiment("table3")
        assert len(result.rows) == 6
        l2 = result.row_by("id", "L2")
        assert l2["K"] == 20480
        assert l2["workload"] == "Llama2-34B"
        assert result.row_by("id", "L1")["M"] == 13824

    def test_no_square_workloads(self):
        result = run_experiment("table3")
        assert all(r["aspect"] != "square" for r in result.rows)
