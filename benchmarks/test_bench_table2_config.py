"""Table 2: the simulated system configuration."""

from repro import SystemConfig


def test_table2_simulation_configuration(result_table):
    config = SystemConfig.paper_default()
    table = result_table("table2_config", ["component", "configuration"],
                         title="Table 2: simulation configuration")
    for row in config.describe():
        table.add(row["component"], row["configuration"])
    table.emit()
    assert config.cpu_ghz == 2.6
    assert config.geometry.banks_per_rank == 16
    assert config.geometry.ranks == 4
    assert config.timings.t_rcd_ns == 13.5
