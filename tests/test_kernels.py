import numpy as np
import pytest

from topolab.kernels import (
    DegenerateNormalizationError,
    Kernel,
    KernelError,
    preset_kernels,
    rate_normalization,
    riemann_error,
)


@pytest.fixture(scope="module")
def presets():
    return preset_kernels()


def test_presets_validate(presets):
    for kernel in presets.values():
        kernel.validate()


def test_unit_integral(presets):
    grid = np.linspace(0.0, 1.0, 200001)
    for name, kernel in presets.items():
        tol = 1e-9 if name == "tabulated" else 1e-12
        assert abs(kernel.integral() - 1.0) <= tol
        # numerical cross-check of the analytic/trapezoid integral
        assert abs(np.trapezoid(kernel(grid), grid) - kernel.integral()) < 1e-7


def test_non_increasing_and_nonnegative(presets):
    grid = np.linspace(0.0, 1.0, 1000)
    for kernel in presets.values():
        vals = kernel(grid)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-12)


def test_lipschitz_bound_on_sampled_pairs(presets):
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, size=500)
    b = rng.uniform(0.0, 1.0, size=500)
    for kernel in presets.values():
        lhs = np.abs(np.asarray(kernel(a)) - np.asarray(kernel(b)))
        assert np.all(lhs <= kernel.lipschitz * np.abs(a - b) + 1e-12)


def test_closed_form_values():
    lin = Kernel.linear()
    assert lin(0.0) == 2.0
    assert lin(1.0) == 0.0
    trunc = Kernel.truncated_linear(0.5)
    assert trunc(0.0) == pytest.approx(4.0)
    assert trunc(0.5) == 0.0
    assert trunc(0.9) == 0.0
    assert trunc.lipschitz == pytest.approx(8.0)


def test_tabulated_rejects_bad_tables():
    with pytest.raises(KernelError):
        Kernel.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 0.0)])  # not monotone
    with pytest.raises(KernelError):
        Kernel.tabulated([(0.1, 1.0), (1.0, 0.0)])  # does not span [0, 1]
    with pytest.raises(KernelError):
        Kernel.tabulated([(0.0, 2.0), (1.0, 1.0)])  # integral far from 1


def test_truncated_linear_needs_a_finite_lipschitz_constant():
    # 1e-300 squared is 0.0, so 2 / eps^2 divided by zero; at 1e-160 it is inf
    for epsilon in (1e-300, 1e-160):
        with pytest.raises(KernelError, match="finite 2/epsilon"):
            Kernel.truncated_linear(epsilon)
    assert Kernel.truncated_linear(1e-150).lipschitz == 2.0 / 1e-150**2


def test_riemann_error_uniform_is_exactly_zero():
    uni = Kernel.uniform()
    for n in (2, 3, 17, 4096):
        assert riemann_error(uni, n) == 0.0


def test_riemann_error_linear_closed_form():
    lin = Kernel.linear()
    assert riemann_error(lin, 3) == pytest.approx(0.5, abs=1e-14)
    for n in (3, 10, 100, 1000, 4096):
        assert riemann_error(lin, n) == pytest.approx(1.0 / (n - 1), rel=1e-12)


def test_riemann_error_bound_all_presets(presets):
    ns = np.arange(3, 4097)
    for kernel in presets.values():
        for n in ns:
            assert abs(riemann_error(kernel, int(n))) <= kernel.lipschitz / (n - 1) + 1e-15


def test_rate_normalization_values():
    assert rate_normalization(Kernel.uniform(), 5) == pytest.approx(0.25)
    assert rate_normalization(Kernel.linear(), 3) == pytest.approx(1.0)
    assert rate_normalization(Kernel.linear(), 5) == pytest.approx(1.0 / 3.0)


def test_rate_normalization_upper_bound(presets):
    # For n > 2*Lip + 1 the normalization obeys 4*exp(Lip/(n-1))/(n-1).
    for kernel in presets.values():
        for n in (8, 64, 1024):
            if n > 2 * kernel.lipschitz + 1:
                bound = 4.0 * np.exp(kernel.lipschitz / (n - 1)) / (n - 1)
                assert rate_normalization(kernel, n) <= bound


def test_rate_normalization_degenerate():
    # With two particles the only rank is 1; a kernel vanishing there degenerates.
    with pytest.raises(DegenerateNormalizationError):
        rate_normalization(Kernel.linear(), 2)


def test_growth_constant():
    assert Kernel.uniform().growth_constant == 0.0
    assert Kernel.linear().growth_constant == pytest.approx(16.0 * np.sqrt(np.e))


def test_scalar_call_has_the_array_bits(presets):
    # pair_rates evaluates K on Python floats; the full rows on arrays
    rng = np.random.default_rng(11)
    special = [0.0, 1e-300, 0.2, 0.5, 0.75, 0.75 + 1e-16, 0.9, 1.0 - 1e-16, 1.0, 1.5]
    r = np.concatenate([special, rng.uniform(0.0, 1.0, 20_000)])
    for name, kernel in presets.items():
        row = kernel(r)
        scalar = np.array([kernel(float(x)) for x in r])
        assert all(type(kernel(float(x))) is float for x in special)
        np.testing.assert_array_equal(scalar.view(np.int64), row.view(np.int64), err_msg=name)
    # past epsilon the ramp is cut to zero
    assert Kernel.truncated_linear(0.25)(0.6) == 0.0
