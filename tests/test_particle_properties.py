"""Property tests of the particle layer's histogram against numpy's."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from topolab.particle import empirical_marginal  # noqa: E402
from topolab.ranks import Configuration  # noqa: E402


@st.composite
def histogram_cases(draw):
    x_edges = np.array(sorted(draw(st.sets(st.floats(0.0, 0.999), min_size=2, max_size=6))))
    v_edges = np.array(sorted(draw(st.sets(st.floats(-2.0, 2.0), min_size=2, max_size=6))))
    n = draw(st.integers(2, 40))
    # positions on interior and end edges, inside and outside the x range
    x_values = st.sampled_from(list(x_edges)) | st.floats(0.0, 0.999)
    xs = draw(st.lists(x_values, min_size=n, max_size=n))
    # velocities on every edge, the last one too, and between them
    v_values = st.sampled_from(list(v_edges)) | st.floats(v_edges[0], v_edges[-1])
    vs = draw(st.lists(v_values, min_size=n, max_size=n))
    return Configuration(np.array(xs), np.array(vs)), x_edges, v_edges


@settings(max_examples=300, deadline=None)
@given(histogram_cases())
def test_empirical_marginal_equals_histogram2d(case):
    config, x_edges, v_edges = case
    x, v = config.positions[:, 0], config.velocities[:, 0]
    expected = np.histogram2d(x, v, bins=[x_edges, v_edges])[0] / config.n
    got = empirical_marginal(config, x_edges, v_edges)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
