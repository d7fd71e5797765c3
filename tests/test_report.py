import json
from pathlib import Path

import numpy as np
import pytest

from topolab.experiments import ConfigError, ExperimentConfig, run_convergence
from topolab.report import render_rate_loglog, render_report, render_tv_vs_dn

DATA = Path(__file__).parent / "data"


def test_golden_report_byte_identical(tmp_path):
    # the fixed small study renders to byte-identical SVGs, run after run
    spec = json.loads((DATA / "golden_config.json").read_text())
    config = ExperimentConfig.from_json(spec)
    run_convergence(config, tmp_path)
    written = render_report(tmp_path)
    assert [p.name for p in written] == ["d_n_vs_t.svg", "rate_loglog.svg", "tv_vs_dn.svg"]
    for path in written:
        golden = (DATA / "golden" / path.name).read_bytes()
        assert path.read_bytes() == golden, f"{path.name} deviates from the golden file"


def test_report_contains_no_timestamps(tmp_path):
    spec = json.loads((DATA / "golden_config.json").read_text())
    config = ExperimentConfig.from_json(spec)
    run_convergence(config, tmp_path)
    for path in render_report(tmp_path):
        text = path.read_text()
        assert "date" not in text.lower()
        assert "202" not in text  # no years or datetime strings


def test_bound_line_above_all_means(tmp_path):
    spec = json.loads((DATA / "golden_config.json").read_text())
    config = ExperimentConfig.from_json(spec)
    result = run_convergence(config, tmp_path)
    final = [r for r in result.aggregate_rows if r[1] == config.horizon]
    for _, _, mean, _, bound in final:
        assert bound > mean


def test_empty_study_errors_without_partial_files(tmp_path):
    with pytest.raises(ConfigError, match="aggregate.csv"):
        render_report(tmp_path)
    assert list(tmp_path.glob("*.svg")) == []


def test_loglog_requires_positive_means():
    aggregate = np.array(
        [
            [8, 1.0, 0.0, 0.0, 2.0],
            [16, 1.0, 0.0, 0.0, 1.5],
        ]
    )
    with pytest.raises(ConfigError):
        render_rate_loglog(aggregate, None, None)


def test_loglog_skips_sizes_that_never_decoupled():
    # as `rate_fit` does: a zero mean (small n, short horizon) has no logarithm
    aggregate = np.array(
        [
            [8, 1.0, 0.0, 0.0, 2.0],
            [16, 1.0, 0.05, 0.01, 1.5],
            [32, 1.0, 0.03, 0.01, 1.0],
        ]
    )
    assert render_rate_loglog(aggregate, None, None).count("<circle") == 2


def test_tv_plot_requires_rows():
    with pytest.raises(ConfigError):
        render_tv_vs_dn({})


def test_loglog_draws_the_bound_where_it_is_finite():
    # exp(c t) overflows to inf at small n first; those sizes get no bound point and no range
    aggregate = np.array(
        [
            [16, 1.0, 0.05, 0.01, np.inf],
            [32, 1.0, 0.03, 0.01, 1e300],
            [64, 1.0, 0.02, 0.01, 7e299],
        ]
    )
    svg = render_rate_loglog(aggregate, None, None)
    assert "nan" not in svg and "inf" not in svg
    (bound,) = [line for line in svg.splitlines() if "stroke-dasharray" in line]
    assert bound.split('"')[1].count(",") == 2  # the points of n = 32 and 64
    assert "proved bound" in svg
    aggregate[:, 4] = np.inf
    svg = render_rate_loglog(aggregate, None, None)
    assert "nan" not in svg and "stroke-dasharray" not in svg and "proved bound" not in svg
    assert svg.count("<circle") == 3
