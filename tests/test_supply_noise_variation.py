"""Tests for waveform rendering, noise and process variation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.correlation import pearson
from repro.power.noise import NoiseModel
from repro.power.supply import WaveformConfig, render_waveform
from repro.power.variation import DeviceVariation, VariationModel


class TestWaveformConfig:
    def test_kernel_sums_to_one(self):
        config = WaveformConfig(samples_per_cycle=6, pulse_decay=0.5)
        assert np.isclose(config.pulse_kernel().sum(), 1.0)

    def test_kernel_peaks_at_clock_edge(self):
        kernel = WaveformConfig().pulse_kernel()
        assert kernel[0] == kernel.max()

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            WaveformConfig(samples_per_cycle=0)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            WaveformConfig(pulse_decay=0.0)
        with pytest.raises(ValueError):
            WaveformConfig(pulse_decay=1.5)

    def test_rejects_bad_pole(self):
        with pytest.raises(ValueError):
            WaveformConfig(pdn_pole=1.0)


# Per-cycle power values for the filter oracle: exact zeros of both
# signs, subnormals, huge magnitudes and ordinary values.  Magnitudes
# stay below 1e300 so no intermediate overflows to inf.
FILTER_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=1e290, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e290),
    st.floats(min_value=-1e3, max_value=1e3),
)


def lfilter_waveform(cycle_power, config):
    """The scipy formulation the PDN filter must reproduce bit for bit."""
    from scipy.signal import lfilter

    samples = np.outer(cycle_power, config.pulse_kernel()).reshape(-1)
    if config.pdn_pole > 0:
        samples = lfilter([1.0 - config.pdn_pole], [1.0, -config.pdn_pole], samples)
    return samples


class TestRenderWaveform:
    def test_output_length(self):
        config = WaveformConfig(samples_per_cycle=4, pdn_pole=0.0)
        out = render_waveform(np.ones(10), config)
        assert out.size == 40

    def test_energy_preserved_without_filter(self):
        config = WaveformConfig(samples_per_cycle=4, pdn_pole=0.0)
        power = np.array([1.0, 2.0, 3.0])
        out = render_waveform(power, config)
        assert np.isclose(out.sum(), power.sum())

    def test_filter_preserves_dc_gain(self):
        config = WaveformConfig(samples_per_cycle=2, pdn_pole=0.4)
        out = render_waveform(np.ones(500), config)
        # Unity DC gain: the settled output oscillates around the
        # unfiltered per-sample mean of 0.5.
        assert np.isclose(out[-20:].mean(), 0.5, atol=0.01)

    def test_filter_smooths(self):
        impulse = np.zeros(20)
        impulse[10] = 1.0
        sharp = render_waveform(impulse, WaveformConfig(pdn_pole=0.0))
        smooth = render_waveform(impulse, WaveformConfig(pdn_pole=0.5))
        assert smooth.max() < sharp.max()

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            render_waveform(np.ones((2, 2)), WaveformConfig())

    @given(
        cycle_power=arrays(
            np.float64, st.integers(min_value=1, max_value=1000), elements=FILTER_INPUTS
        ),
        samples_per_cycle=st.integers(min_value=1, max_value=4),
        pulse_decay=st.floats(min_value=0.05, max_value=1.0),
        pdn_pole=st.one_of(
            st.sampled_from([0.0, 1e-4, 0.25, 0.999]),
            st.floats(min_value=1e-4, max_value=0.999),
        ),
    )
    def test_filter_matches_lfilter_bitwise(
        self, cycle_power, samples_per_cycle, pulse_decay, pdn_pole
    ):
        config = WaveformConfig(
            samples_per_cycle=samples_per_cycle,
            pulse_decay=pulse_decay,
            pdn_pole=pdn_pole,
        )
        out = render_waveform(cycle_power, config)
        expected = lfilter_waveform(cycle_power, config)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    def test_filter_matches_lfilter_on_long_waveforms(self):
        rng = np.random.default_rng(2014)
        cycle_power = rng.random(1024) * 10.0 ** rng.integers(-320, 300, 1024)
        cycle_power[100:400] = 0.0
        for pdn_pole in (1e-4, 0.25, 0.999):
            config = WaveformConfig(samples_per_cycle=4, pdn_pole=pdn_pole)
            out = render_waveform(cycle_power, config)
            expected = lfilter_waveform(cycle_power, config)
            np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    @given(st.integers(min_value=1, max_value=8))
    def test_samples_per_cycle_scales_length(self, s):
        config = WaveformConfig(samples_per_cycle=s, pdn_pole=0.0)
        assert render_waveform(np.ones(7), config).size == 7 * s


class TestNoiseModel:
    def test_shape(self, rng):
        noise = NoiseModel(sigma=1.0).sample(5, 100, 2.0, rng)
        assert noise.shape == (5, 100)

    def test_scales_with_signal_std(self, rng):
        model = NoiseModel(sigma=1.0)
        small = model.sample(200, 50, 1.0, np.random.default_rng(0))
        large = model.sample(200, 50, 3.0, np.random.default_rng(0))
        assert np.isclose(large.std(), 3 * small.std(), rtol=0.05)

    def test_zero_sigma_is_silent(self, rng):
        noise = NoiseModel(sigma=0.0).sample(3, 10, 1.0, rng)
        assert np.all(noise == 0)

    def test_drift_accumulates(self, rng):
        model = NoiseModel(sigma=0.0, drift_sigma=1.0)
        noise = model.sample(500, 400, 1.0, rng)
        early = noise[:, :40].std()
        late = noise[:, -40:].std()
        assert late > early

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-1.0)

    def test_rejects_bad_shape_request(self, rng):
        with pytest.raises(ValueError):
            NoiseModel().sample(0, 10, 1.0, rng)

    def test_empirical_sigma_matches(self, rng):
        noise = NoiseModel(sigma=2.0).sample(100, 1000, 1.0, rng)
        assert np.isclose(noise.std(), 2.0, rtol=0.05)


class TestVariation:
    def test_nominal_is_identity(self):
        nominal = DeviceVariation.nominal()
        assert nominal.gain == 1.0
        assert nominal.offset == 0.0
        assert nominal.component_scales == {}

    def test_sample_covers_components(self, rng):
        model = VariationModel()
        variation = model.sample(["a", "b"], rng)
        assert set(variation.component_scales) == {"a", "b"}

    def test_sample_scales_near_one(self, rng):
        model = VariationModel(component_sigma=0.02)
        variation = model.sample([f"c{i}" for i in range(200)], rng)
        scales = np.array(list(variation.component_scales.values()))
        assert np.isclose(scales.mean(), 1.0, atol=0.01)
        assert scales.std() < 0.05

    def test_rejects_negative_sigmas(self):
        with pytest.raises(ValueError):
            VariationModel(gain_sigma=-0.1)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            DeviceVariation(gain=0.0, offset=0.0, component_scales={})

    def test_pearson_invariant_to_gain_and_offset(self, rng):
        # The core claim behind "insensitive to CMOS process variation".
        trace = rng.normal(size=512)
        transformed = 3.7 * trace - 11.0
        assert np.isclose(pearson(trace, transformed), 1.0)

    def test_pearson_flips_sign_with_negative_gain(self, rng):
        trace = rng.normal(size=512)
        assert np.isclose(pearson(trace, -trace), -1.0)
