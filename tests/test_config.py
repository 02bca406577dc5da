import math

import pytest

from lidarscene.config import Config, ConfigError, load_config, parse_config
from lidarscene.extraction import DEFAULT_CLUSTER_PARAMS, ClusterParams


def test_defaults():
    cfg = Config()
    spec = cfg.build("sensor")
    assert (spec.rows, spec.cols) == (64, 1024)
    assert spec.pitch_max == pytest.approx(math.radians(2.0))
    assert spec.max_range == 80.0
    sched = cfg.build("schedule")
    assert (sched.sigma_max, sched.sigma_min, sched.levels) == (1.0, 0.01, 10)
    assert cfg.build("model").widths == (16, 16, 32, 32)


def test_parse_overrides_and_comments():
    cfg = parse_config(
        """
        # sensor geometry
        sensor.rows = 16   # small sensor
        sensor.cols = 32
        model.widths = 4,8
        train.lr = 5e-4
        """
    )
    assert cfg["sensor.rows"] == 16
    assert cfg["sensor.cols"] == 32
    assert cfg.build("model").widths == (4, 8)
    assert cfg.build("train").lr == 5e-4
    # untouched keys keep defaults
    assert cfg["sensor.max_range"] == 80.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("sensor.zzz = 3")
    with pytest.raises(ConfigError, match="unknown config key"):
        Config({"nope": 1})


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("sensor.rows = 8\nsensor.cols = many")


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("sensor.rows 8")


def test_train_config_overrides():
    cfg = Config()
    tc = cfg.build("train", steps=7, phase="a")
    assert tc.steps == 7
    assert tc.phase == "a"
    assert tc.lr == cfg["train.lr"]


def test_cluster_params_by_palette():
    cfg = parse_config("cluster.car.eps = 0.5")
    by_label = cfg.cluster_params()
    assert by_label["car"].eps == 0.5
    assert by_label["building"] == ClusterParams(*DEFAULT_CLUSTER_PARAMS["building"])
    # ground has no clustering entry
    assert set(by_label) == {"car", "vegetation", "building"}


def test_load_config_none_is_defaults():
    assert load_config(None).values == Config().values


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("sampler.eps0 = 1e-4\nsampler.steps_per_level = 20\n")
    sc = load_config(path).build("sampler")
    assert sc.eps0 == 1e-4
    assert sc.steps_per_level == 20


def test_accessor_defaults_equal_dataclass_defaults():
    from lidarscene.raycast import RaydropParams
    from lidarscene.scorenet import ModelConfig, NoiseSchedule, SamplerConfig, TrainConfig
    from lidarscene.sensor import SensorSpec

    cfg = Config()
    assert cfg.build("sensor") == SensorSpec()
    assert cfg.build("schedule") == NoiseSchedule()
    assert cfg.build("sampler") == SamplerConfig()
    assert cfg.build("model") == ModelConfig()
    assert cfg.build("train") == TrainConfig()
    assert cfg.build("raydrop") == RaydropParams()


def test_sensor_pitch_keys_are_degrees():
    assert Config()["sensor.pitch_max_deg"] == 2.0
    assert Config()["sensor.pitch_min_deg"] == -24.8
    spec = parse_config("sensor.pitch_min_deg = -10").build("sensor")
    assert spec.pitch_min == math.radians(-10.0)


def test_written_defaults_parse_back_equal():
    def fmt(val):
        return ",".join(str(v) for v in val) if isinstance(val, tuple) else repr(val)

    text = "".join(f"{key} = {fmt(val)}\n" for key, val in Config().values.items())
    assert parse_config(text).values == Config().values


def test_checkpoint_every_is_not_a_key():
    with pytest.raises(ConfigError, match="unknown config key 'train.checkpoint_every'"):
        parse_config("train.checkpoint_every = 5")
