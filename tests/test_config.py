from dataclasses import fields

import pytest

from pecshift.config import ConfigError, SimulationConfig, parse_config_text

FLOAT_KEYS = [f.name for f in fields(SimulationConfig) if f.type == "float"]

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

    @pytest.mark.parametrize("text, message", [
        ("grid_size = 60\ngrid_size = 70\n",
         "line 2: 'grid_size' already set on line 1"),
        ("shape = circle\n# shape = none\n\nshape = circle\n",
         "line 4: 'shape' already set on line 1"),
        ("cfl = 0.5\nfinal_time = 1\ncfl=0.5  # again\n",
         "line 3: 'cfl' already set on line 1"),
    ])
    def test_repeated_key_names_both_lines(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config_text(text)

    @pytest.mark.parametrize("sizes", ["100, 100, 200", "200, 100"])
    def test_grid_sizes_must_strictly_increase(self, sizes):
        with pytest.raises(ConfigError, match="^grid_sizes: .*strictly increasing"):
            parse_config_text(f"grid_sizes = {sizes}\n")

    def test_final_time_beyond_edge_clearance(self):
        # circle of radius 2 centred in the 10 x 10 domain: 3 to each edge
        assert parse_config_text("final_time = 3\n").final_time == 3.0
        with pytest.raises(ConfigError, match="^final_time: .*causality"):
            parse_config_text("final_time = 3.01\n")

    @pytest.mark.parametrize("scheme, ok, bad, bound", [
        ("plain", 0.63, 0.64, "0.63246"), ("bfecc", 1.4, 1.41, "1.40575")])
    def test_cfl_above_the_schemes_stability_bound(self, scheme, ok, bad, bound):
        cfg = parse_config_text(f"scheme = {scheme}\ncfl = {ok}\n")
        assert cfg.cfl == ok
        with pytest.raises(ConfigError, match=f"^cfl: .*{scheme}.*bound {bound}"):
            parse_config_text(f"scheme = {scheme}\ncfl = {bad}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
            parse_config_text(f"{key} = {value}\n")

    def test_infinite_final_time_without_a_shape(self):
        # no causality bound applies in free space; the march would never end
        with pytest.raises(ConfigError, match="^final_time: must be finite"):
            parse_config_text("shape = none\nfinal_time = inf\n")

    @pytest.mark.parametrize("line, key", [
        ("omega = 0", "omega"), ("omega = -1", "omega"),
        ("snapshot_every = -3", "snapshot_every"),
    ])
    def test_out_of_range_value_names_key(self, line, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config_text(line + "\n")

    def test_validate_rejects_a_library_callers_nan(self):
        with pytest.raises(ConfigError, match="^cfl: must be finite"):
            SimulationConfig(cfl=float("nan")).validate()
        assert SimulationConfig(snapshot_every=0).validate().snapshot_every == 0
