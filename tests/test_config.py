import pytest

from pecshift.config import ConfigError, SimulationConfig, parse_config_text

REMOVED_KEYS = (
    "extension_max_steps", "extension_cfl", "extension_tol", "extension_band",
    "redistance_cfl", "redistance_tol", "redistance_max_iter",
    "redistance_band", "redistance_blend",
)


class TestParseConfigText:
    def test_defaults_and_values(self):
        cfg = parse_config_text("shape = half_moon  # crescent\n"
                                "grid_sizes = 50, 100 200\n"
                                "parallel_grids = yes\n")
        assert cfg.shape == "half_moon"
        assert cfg.grid_sizes == (50, 100, 200)
        assert cfg.parallel_grids is True
        assert cfg.grid_size == SimulationConfig().grid_size

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_tuning_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = 1\n")

    @pytest.mark.parametrize("line, key", [
        ("grid_size = 1.5", "grid_size"),
        ("snapshot_every = ten", "snapshot_every"),
        ("parallel_grids = maybe", "parallel_grids"),
        ("grid_sizes = 100, abc", "grid_sizes"),
        ("cfl = fast", "cfl"),
    ])
    def test_malformed_value_names_key(self, line, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config_text(line + "\n")

    @pytest.mark.parametrize("sizes", ["100, 100, 200", "200, 100"])
    def test_grid_sizes_must_strictly_increase(self, sizes):
        with pytest.raises(ConfigError, match="^grid_sizes: .*strictly increasing"):
            parse_config_text(f"grid_sizes = {sizes}\n")

    def test_final_time_beyond_edge_clearance(self):
        # circle of radius 2 centred in the 10 x 10 domain: 3 to each edge
        assert parse_config_text("final_time = 3\n").final_time == 3.0
        with pytest.raises(ConfigError, match="^final_time: .*causality"):
            parse_config_text("final_time = 3.01\n")
