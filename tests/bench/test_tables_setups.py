"""Unit tests for the benchmark harness: tables and mode setups."""

import pytest

from repro.bench import (MODE_ADC_CG, MODE_NONE, MODE_SDC, Table,
                         build_business_system, experiment_config)
from repro.errors import ReproError


class TestTable:
    def test_add_row_validates_arity(self):
        table = Table(title="t", columns=("a", "b"))
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_contains_everything(self):
        table = Table(title="results", columns=("name", "value"))
        table.add_row("alpha", 1.5)
        table.note("a footnote")
        text = table.render()
        assert "results" in text
        assert "alpha" in text
        assert "1.500" in text
        assert "a footnote" in text

    def test_render_markdown_shape(self):
        table = Table(title="results", columns=("a", "b"))
        table.add_row(1234.5, 0)
        md = table.render_markdown()
        assert "|---|---|" in md
        assert "| 1,234 | 0 |" in md

    def test_float_formatting_tiers(self):
        table = Table(title="t", columns=("v",))
        table.add_row(0.123456)
        table.add_row(12.3456)
        table.add_row(12345.6)
        rendered = table.render()
        assert "0.123" in rendered
        assert "12.3" in rendered
        assert "12,346" in rendered


class TestSetups:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            build_business_system(seed=1, mode="quantum")

    def test_none_mode_has_no_replication(self):
        experiment = build_business_system(seed=1, mode=MODE_NONE)
        assert experiment.system.main.array.journal_groups == {}
        assert experiment.system.main.array.sync_mirrors == {}

    def test_adc_cg_mode_reaches_paired(self):
        experiment = build_business_system(seed=2, mode=MODE_ADC_CG)
        groups = [g for gid, g in
                  experiment.system.main.array.journal_groups.items()
                  if gid.startswith("jg-")]
        assert len(groups) == 1
        assert len(groups[0].pairs) == 4

    def test_sdc_mode_registers_backup_pvs(self):
        from repro.platform import PersistentVolume
        experiment = build_business_system(seed=3, mode=MODE_SDC)
        mirror = experiment.system.main.array.sync_mirrors[
            "sdc-business"]
        assert len(mirror.pairs) == 4
        pvs = experiment.system.backup.api.list(PersistentVolume)
        assert len(pvs) == 4

    def test_experiment_config_overrides(self):
        config = experiment_config(link_latency=0.010,
                                   adc_overrides={"transfer_interval":
                                                  0.5})
        assert config.link_latency == 0.010
        assert config.array.adc.transfer_interval == 0.5
