import math
import re
import sys
import warnings

import numpy as np
import pytest

from helpers import dense_observable
from spinensemble.entanglement import ppt_report
from spinensemble.qlinalg import BipartitionSpec, ValidationError
from spinensemble.spin_system import (
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
    default_energies,
    epsilon_report,
    equilibrium_density_matrix,
)


class TestDefaultEnergies:
    def test_single_spin_doublet(self):
        assert default_energies(1, [2.0]) == [-1.0, 1.0]

    def test_two_equal_spins(self):
        assert default_energies(2, [2.0, 2.0]) == [-2.0, 0.0, 0.0, 2.0]

    def test_two_unequal_spins(self):
        assert default_energies(2, [2.0, 1.0]) == [-1.5, -0.5, 0.5, 1.5]

    def test_ground_state_is_all_zeros(self):
        energies = default_energies(3, [1.0, 2.0, 3.0])
        assert np.argmin(energies) == 0
        assert np.argmax(energies) == 7

    def test_first_spin_is_most_significant(self):
        energies = default_energies(2, [4.0, 1.0])
        # index 2 = |10>: spin 1 up, spin 2 down
        assert energies[2] == 4.0 / 2 - 1.0 / 2

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="expected 2"):
            default_energies(2, [1.0])

    @pytest.mark.parametrize("n_spins", range(1, 13))
    def test_matches_the_per_level_sum_bit_for_bit(self, n_spins):
        larmor = np.random.default_rng(n_spins).uniform(0.1, 3.0, n_spins).tolist()
        looped = []
        for k in range(2**n_spins):
            e = 0.0
            for j in range(n_spins):
                bit = (k >> (n_spins - 1 - j)) & 1
                e += (larmor[j] / 2.0) if bit else (-larmor[j] / 2.0)
            looped.append(e)
        np.testing.assert_array_equal(default_energies(n_spins, larmor), looped)


def boltzmann_counts(energies, temperature, molecule_count):
    """ThermalEnsemble.boltzmann's populations for explicit level energies."""
    n_spins = int(np.log2(len(energies)))
    system = SpinSystem(n_spins, tuple(energies))
    return ThermalEnsemble.boltzmann(system, temperature, molecule_count).populations


class TestBoltzmannPopulations:
    def test_degenerate_levels_split_evenly(self):
        np.testing.assert_allclose(boltzmann_counts([0.0, 0.0], 3.7, 100.0), [50.0, 50.0])

    def test_ln2_ratio(self):
        t = 0.83
        pops = boltzmann_counts([0.0, math.log(2.0) * t], t, 300.0)
        np.testing.assert_allclose(pops, [200.0, 100.0], rtol=1e-14)

    def test_large_temperature_equalizes(self):
        pops = boltzmann_counts([0.3, -0.2, 0.9, 0.1], 1e9, 1000.0)
        assert np.max(np.abs(pops - 250.0)) <= 1e-6 * 1000.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            energies = rng.normal(size=8)
            base = boltzmann_counts(energies, 0.7, 1.0)
            shifted = boltzmann_counts(energies + 123.456, 0.7, 1.0)
            np.testing.assert_allclose(shifted, base, rtol=1e-12)

    def test_no_overflow_at_tiny_temperature(self):
        pops = boltzmann_counts([0.0, 1e6], 1e-3, 10.0)
        assert np.all(np.isfinite(pops))
        np.testing.assert_allclose(pops, [10.0, 0.0], atol=1e-12)

    def test_overflowing_exponent_gives_zero_weight_silently(self):
        """At T = 1e-300 the exponent -3e300 takes exp past the smallest
        float, to weight 0, with no warning.  A smaller T, whose exponent
        overflows to -inf, overflows epsilon = spread / T too, and the
        ensemble refuses it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pops = boltzmann_counts([-1.5, -0.5, 0.5, 1.5], 1e-300, 1.0e6)
        np.testing.assert_array_equal(pops, [1.0e6, 0.0, 0.0, 0.0])

    def test_rejects_bad_temperature_and_count(self):
        """Checked once, by the ensemble; the Boltzmann weights of a bad
        temperature raise no warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="temperature"):
                boltzmann_counts([0.0, 1.0], 0.0, 10.0)
            with pytest.raises(ValidationError, match="molecule_count"):
                boltzmann_counts([0.0, 1.0], 1.0, -5.0)


class TestSpinSystem:
    def test_zeeman_constructor(self):
        system = SpinSystem.zeeman([2.0, 1.0])
        assert system.n_spins == 2
        assert system.dim == 4
        assert system.level_energies == (-1.5, -0.5, 0.5, 1.5)

    def test_spectral_width(self):
        assert SpinSystem.zeeman([2.0, 1.0]).spectral_width == 3.0

    def test_rejects_wrong_level_count(self):
        with pytest.raises(ValidationError, match="expected 4"):
            SpinSystem(2, (0.0, 1.0))

    def test_rejects_oversized_system(self):
        with pytest.raises(ValidationError, match="cap"):
            SpinSystem(13, tuple(float(k) for k in range(2**13)))

    @pytest.mark.parametrize(
        "energies", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 0.0), (0.0, math.nan)]
    )
    def test_rejects_energies_whose_spread_is_not_finite(self, energies):
        """Finite energies can still spread past the largest float, and a
        NaN is not caught by max - min alone."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError, match="^level energies and their spread max - min must be finite$"
            ):
                SpinSystem(1, energies)

    @pytest.mark.parametrize(
        "larmor,spread", [([1e308, 1e308], "inf"), ([math.inf, 1.0], "inf"), ([math.nan, 1.0], "nan")]
    )
    def test_zeeman_rejects_a_spread_that_is_not_finite(self, larmor, spread):
        """The Zeeman spread max - min is sum |w|, so larmor 1e308, 1e308
        gives finite energies whose spread overflows."""
        message = f"larmor frequencies and sum |w| must be finite, got {spread}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                SpinSystem.zeeman(larmor)


class TestThermalEnsemble:
    def test_boltzmann_populations_sum_to_molecule_count(self):
        ens = ThermalEnsemble.boltzmann(SpinSystem.zeeman([2.0, 1.0]), 5.0, 1e6)
        np.testing.assert_allclose(ens.populations.sum(), 1e6, rtol=1e-12)
        np.testing.assert_allclose(ens.probabilities.sum(), 1.0, rtol=1e-12)

    def test_populations_follow_boltzmann_weights(self):
        system = SpinSystem.zeeman([2.0])
        ens = ThermalEnsemble.boltzmann(system, 2.0, 10.0)
        ratio = ens.populations[0] / ens.populations[1]
        np.testing.assert_allclose(ratio, math.exp(1.0), rtol=1e-12)

    def test_explicit_populations_accepted(self):
        system = SpinSystem.zeeman([1.0])
        ens = ThermalEnsemble(system, 1.0, 10.0, np.array([10.0, 0.0]))
        assert ens.populations[1] == 0.0

    def test_rejects_population_sum_mismatch(self):
        system = SpinSystem.zeeman([1.0])
        with pytest.raises(ValidationError, match="sum"):
            ThermalEnsemble(system, 1.0, 10.0, np.array([5.0, 6.0]))

    def test_population_sum_error_prints_plain_floats(self):
        """numpy floats in, plain Python floats out: no np.float64(...)."""
        system = SpinSystem.zeeman([2.0, 1.0])
        populations = np.array([0.5, 0.25, 0.125, 0.0])
        with pytest.raises(ValidationError) as caught:
            ThermalEnsemble(system, 3.0e5, np.float64(1.0), populations)
        assert str(caught.value) == "populations sum to 0.875, expected molecule_count 1.0"

    @pytest.mark.parametrize(
        "molecule_count", [5e-324, 1e-310, np.nextafter(sys.float_info.min, 0.0)]
    )
    def test_rejects_subnormal_molecule_count(self, molecule_count):
        """Populations are held to an absolute 5e-324, so below the smallest
        normal float p = C / M would be only as good as 5e-324 / M."""
        system = SpinSystem.zeeman([2.0, 1.0])
        with pytest.raises(ValidationError, match="is subnormal"):
            ThermalEnsemble.boltzmann(system, 1.0, molecule_count)

    def test_accepts_the_smallest_normal_molecule_count(self):
        system = SpinSystem.zeeman([2.0, 1.0])
        ens = ThermalEnsemble.boltzmann(system, 1.0, sys.float_info.min)
        assert ens.molecule_count == sys.float_info.min

    @pytest.mark.parametrize(
        "temperature,molecule_count,message",
        [
            (math.nan, 1.0, "temperature must be positive and finite, got nan"),
            (math.inf, 1.0, "temperature must be positive and finite, got inf"),
            (1.0, math.inf, "molecule_count must be positive and finite, got inf"),
            (1.0, math.nan, "molecule_count must be positive and finite, got nan"),
        ],
    )
    def test_rejects_non_finite_temperature_and_molecule_count(
        self, temperature, molecule_count, message
    ):
        """NaN fails no comparison and +inf passes '> 0', and the population
        sum is held to tol * M, which an infinite M makes no test at all:
        these explicit populations were accepted with epsilon NaN or every
        probability 0."""
        system = SpinSystem(2, default_energies(2, [2, 1]))
        populations = np.array([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ThermalEnsemble(system, temperature, molecule_count, populations)

    def test_rejects_a_temperature_that_overflows_epsilon(self):
        """epsilon = spread / T must be finite: 3 / 1e-320 overflows, and
        3 / 1e-300 does not."""
        system = SpinSystem.zeeman([2.0, 1.0])
        message = "temperature 1e-320 is too small: epsilon = spread / T overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                ThermalEnsemble.boltzmann(system, 1e-320, 1.0e6)
            with pytest.raises(ValidationError, match="epsilon = spread / T overflows"):
                ThermalEnsemble(system, np.float64(1e-320), 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
        assert epsilon_report(ThermalEnsemble.boltzmann(system, 1e-300, 1.0e6)).epsilon == 3e300

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_boltzmann_rejects_temperature_once_without_warning(self, temperature):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="temperature must be positive"):
                ThermalEnsemble.boltzmann(SpinSystem.zeeman([2.0, 1.0]), temperature, 10.0)

    def test_rejects_negative_population(self):
        system = SpinSystem.zeeman([1.0])
        with pytest.raises(ValidationError, match="nonnegative"):
            ThermalEnsemble(system, 1.0, 10.0, np.array([11.0, -1.0]))

    def test_populations_are_read_only(self):
        ens = ThermalEnsemble.boltzmann(SpinSystem.zeeman([1.0]), 1.0, 10.0)
        with pytest.raises(ValueError):
            ens.populations[0] = 99.0


class TestEquilibriumDensityMatrix:
    def test_equal_weights(self):
        system = SpinSystem.zeeman([1.0])
        ens = ThermalEnsemble(system, 1.0, 10.0, np.array([5.0, 5.0]))
        np.testing.assert_array_equal(
            equilibrium_density_matrix(ens), np.diag([0.5, 0.5]).astype(complex)
        )

    def test_zero_temperature_limit_is_pure(self):
        system = SpinSystem.zeeman([1.0, 1.0])
        ens = ThermalEnsemble(system, 1.0, 8.0, np.array([8.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(
            equilibrium_density_matrix(ens), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        )

    def test_ln2_example_gives_thirds(self):
        t = 1.3
        system = SpinSystem(1, (0.0, math.log(2.0) * t))
        ens = ThermalEnsemble.boltzmann(system, t, 600.0)
        np.testing.assert_allclose(
            equilibrium_density_matrix(ens).diagonal().real, [2 / 3, 1 / 3], rtol=1e-14
        )

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            system = SpinSystem.zeeman(rng.uniform(0.5, 3.0, size=2))
            ens = ThermalEnsemble.boltzmann(system, float(rng.uniform(0.5, 5.0)), 100.0)
            rho = equilibrium_density_matrix(ens)
            h = np.diag(np.array(system.level_energies, dtype=complex))
            np.testing.assert_allclose(rho @ h - h @ rho, np.zeros((4, 4)), atol=1e-12)


class TestEpsilonReport:
    def test_direct_ratio(self):
        system = SpinSystem(1, (-1.0, 1.0))
        ens = ThermalEnsemble.boltzmann(system, 2e5, 1.0)
        rep = epsilon_report(ens)
        assert rep.delta_e == 2.0
        np.testing.assert_allclose(rep.epsilon, 1e-5, rtol=1e-12)

    def test_degenerate_levels(self):
        system = SpinSystem(1, (0.7, 0.7))
        rep = epsilon_report(ThermalEnsemble.boltzmann(system, 1.0, 5.0))
        assert rep.epsilon == 0.0
        assert rep.max_population_spread == 0.0

    def test_spread_of_ln2_ensemble(self):
        t = 2.0
        system = SpinSystem(1, (0.0, math.log(2.0) * t))
        rep = epsilon_report(ThermalEnsemble.boltzmann(system, t, 60.0))
        np.testing.assert_allclose(rep.max_population_spread, 1 / 3, rtol=1e-14)

    def test_distance_to_mixed_shrinks_with_temperature(self):
        system = SpinSystem.zeeman([2.0, 1.0])
        distances = []
        spreads = []
        for t in (1e1, 1e2, 1e3):
            ens = ThermalEnsemble.boltzmann(system, t, 1.0)
            rho = equilibrium_density_matrix(ens)
            distances.append(ppt_report(rho, BipartitionSpec((1,), (2,))).frobenius_to_mixed)
            spreads.append(epsilon_report(ens).max_population_spread)
        assert distances[0] > distances[1] > distances[2]
        assert spreads[0] > spreads[1] > spreads[2]


def dense_collective(n_spins, axis):
    return dense_observable(PauliSum.collective(n_spins, axis))


class TestObservables:
    """The dense oracle that tests compare PauliSum readings with, against
    matrices built by hand."""

    def test_single_spin_x(self):
        np.testing.assert_array_equal(
            dense_collective(1, "x"), np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        )

    def test_two_spin_x_is_two_term_sum(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        expected = (np.kron(sx, eye) + np.kron(eye, sx)) / 2.0
        np.testing.assert_array_equal(dense_collective(2, "x"), expected)

    def test_three_spin_z_diagonal(self):
        obs = dense_collective(3, "z")
        diag = obs.diagonal().real
        assert diag[0] == 1.5  # |000>
        for k in range(8):
            assert diag[k] == (3 - 2 * bin(k).count("1")) / 2.0

    def test_traceless_and_symmetric_spectrum(self):
        for n, axis in [(1, "x"), (2, "y"), (3, "z"), (2, "x")]:
            obs = dense_collective(n, axis)
            np.testing.assert_allclose(np.trace(obs), 0.0, atol=1e-14)
            eigs = np.linalg.eigvalsh(obs)
            np.testing.assert_allclose(eigs, -eigs[::-1], atol=1e-12)

    def test_single_spin_variant_targets_one_spin(self):
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        np.testing.assert_array_equal(
            dense_observable(PauliSum(2, "z", (2,))), np.kron(eye, sz) / 2.0
        )

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValidationError, match="axis"):
            PauliSum.collective(2, "q")
