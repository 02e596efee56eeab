"""Unit tests for module-controller synthesis.

The attenuation-level optimizer is validated against a fine static-gain
grid search on a scalar design plant, a zero-coupling plant where the
optimal level vanishes, and determinism/stability contracts.
"""

import warnings

import numpy as np
import pytest

from retrofit_control import (
    PartitionedPlant,
    StateSpace,
    SynthesisError,
    hinf_norm,
    hinf_synthesize,
    lqg_module,
    spectral_abscissa,
)
from retrofit_control.retrofit import new_subsystem


def _scalar_plant(a=-1.0):
    return PartitionedPlant(
        A=[[a]], B=[[1.0]], L=[[0.0]], W=[[1.0]], Gamma=[[1.0]], S=[[1.0]],
        C=[[1.0]],
    )


def _static_closed_norm(plant, alpha, ky, kw):
    """Norm of d -> (z, alpha*u) under u = ky*y + kw*w (independent oracle)."""
    K = ky * plant.C + kw * plant.Gamma
    A_cl = plant.A + plant.B @ K
    if spectral_abscissa(A_cl) >= 0:
        return np.inf
    C_perf = np.vstack([plant.S, alpha * K])
    return hinf_norm(StateSpace(A_cl, plant.W, C_perf), tol=1e-8)


class TestHinfSynthesize:
    def test_zero_noise_rejected(self):
        # A noise-free measurement feedthrough is rank deficient, so the
        # plant could never be synthesized; it is refused up front.
        with pytest.raises(ValueError, match="eps"):
            hinf_synthesize(_scalar_plant(), alpha=0.5, eps=0.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            hinf_synthesize(_scalar_plant(), alpha=0.0)
        with pytest.raises(ValueError, match="eps"):
            hinf_synthesize(_scalar_plant(), alpha=0.5, eps=-1.0)

    def test_beats_static_gain_grid(self):
        alpha = 0.5
        plant = _scalar_plant()
        _, gamma = hinf_synthesize(plant, alpha, gamma_tol=1e-4)
        # Oracle: fine grid over static gains; dynamic output feedback can
        # only match or beat the best static gain (up to the noise channel).
        grid = np.linspace(-20.0, 0.0, 2001)
        grid_best = min(_static_closed_norm(plant, alpha, k, 0.0) for k in grid)
        assert gamma <= grid_best * 1.02

    def test_zero_coupling_gives_vanishing_level(self):
        # z = 0 identically; the controller u = 0 achieves level ~ 0.
        plant = PartitionedPlant(
            A=[[-1.0]], B=[[1.0]], L=[[0.0]], W=[[1.0]], Gamma=[[1.0]],
            S=[[0.0]], C=[[1.0]],
        )
        _, gamma = hinf_synthesize(plant, alpha=0.1)
        assert gamma <= 1e-2

    def test_closed_loop_validated(self):
        rng = np.random.default_rng(0)
        n = 4
        A = rng.standard_normal((n, n))
        plant = PartitionedPlant(
            A=A,
            B=rng.standard_normal((n, 2)),
            L=np.zeros((n, 1)),
            W=rng.standard_normal((n, 2)),
            Gamma=rng.standard_normal((1, n)),
            S=rng.standard_normal((2, n)),
            C=rng.standard_normal((2, n)),
        )
        K, gamma = hinf_synthesize(plant, alpha=0.3)
        # Verify stability of the measurement loop independently.
        Kmap = K.C, K.D
        meas = np.vstack([plant.C, plant.Gamma])
        A_cl = np.block(
            [
                [plant.A + plant.B @ K.D @ meas, plant.B @ K.C],
                [K.B @ meas, K.A],
            ]
        )
        assert spectral_abscissa(A_cl) < 0.0
        assert gamma > 0.0

    def test_deterministic(self):
        plant = _scalar_plant()
        m1, g1 = hinf_synthesize(plant, alpha=0.5)
        m2, g2 = hinf_synthesize(plant, alpha=0.5)
        assert g1 == g2
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.B, m2.B)

    def test_rank_deficient_noise_feedthrough_refused(self):
        # eps**2 underflows to zero, so the noise feedthrough loses its rank.
        with pytest.raises(SynthesisError, match="measurement-noise .* rank deficient"):
            hinf_synthesize(_scalar_plant(), alpha=0.5, eps=1e-170)

    @pytest.mark.parametrize(
        "alpha, eps, match",
        [
            # alpha**2 underflows to zero: the control weight has no rank.
            pytest.param(1e-170, 1e-4, "control-weight .* rank deficient", id="alpha-1e-170"),
            # alpha**2 and eps**2 are subnormal: normalizing by their
            # Cholesky factors overflows the Gram products.
            pytest.param(1e-160, 1e-4, "not finite", id="alpha-1e-160"),
            pytest.param(0.5, 1e-160, "not finite", id="eps-1e-160"),
        ],
    )
    def test_tiny_weights_refused(self, alpha, eps, match):
        # Refused without printing an overflow RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SynthesisError, match=match):
                hinf_synthesize(_scalar_plant(), alpha, eps=eps)

    @pytest.mark.parametrize(
        "alpha, eps, match",
        [
            # alpha**2 or eps**2 overflows: the feedthrough product itself
            # is infinite, not rank deficient.
            pytest.param(1e160, 1e-4, "control-weight .* not finite", id="alpha-1e160"),
            pytest.param(1e200, 1e-4, "control-weight .* not finite", id="alpha-1e200"),
            pytest.param(0.5, 1e200, "measurement-noise .* not finite", id="eps-1e200"),
        ],
    )
    def test_huge_weights_refused(self, alpha, eps, match):
        # Refused without printing an overflow RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SynthesisError, match=match):
                hinf_synthesize(_scalar_plant(), alpha, eps=eps)

    def test_marginal_mode_hidden_from_performance(self):
        # Rigid-body-style zero eigenvalue invisible to z is handled by the
        # internal decay-rate shift; synthesis must still succeed and the
        # controller must stabilize the remaining dynamics.
        A = np.array([[0.0, 1.0], [0.0, -0.2]])
        plant = PartitionedPlant(
            A=A,
            B=[[0.0], [1.0]],
            L=[[0.0], [0.0]],
            W=[[0.0], [1.0]],
            Gamma=[[1.0, 0.0]],
            S=[[0.0, 1.0]],
            C=[[1.0, 0.0]],
        )
        module, gamma = hinf_synthesize(plant, alpha=0.2)
        assert np.isfinite(gamma) and gamma > 0.0


class TestLqgModule:
    def test_stabilizes_design_plant(self):
        rng = np.random.default_rng(1)
        n = 4
        A = rng.standard_normal((n, n))
        plant = PartitionedPlant(
            A=A,
            B=rng.standard_normal((n, 2)),
            L=rng.standard_normal((n, 1)),
            W=rng.standard_normal((n, 2)),
            Gamma=rng.standard_normal((1, n)),
            S=rng.standard_normal((2, n)),
            C=rng.standard_normal((2, n)),
        )
        K = lqg_module(plant)
        meas = np.vstack([plant.C, plant.Gamma])
        A_cl = np.block(
            [
                [plant.A + plant.B @ K.D @ meas, plant.B @ K.C],
                [K.B @ meas, K.A],
            ]
        )
        assert spectral_abscissa(A_cl) < 0.0

