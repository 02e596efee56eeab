"""Unit tests for module-controller synthesis.

The attenuation-level optimizer is validated against a fine static-gain
grid search on a scalar design plant, a zero-coupling plant where the
optimal level vanishes, and determinism/stability contracts.
"""

import dataclasses

import numpy as np
import pytest

from retrofit_control import (
    PartitionedPlant,
    StateSpace,
    SynthesisError,
    build_generalized_plant,
    hinf_norm,
    hinf_synthesize,
    lqg_module,
    spectral_abscissa,
    static_gains,
)
from retrofit_control.retrofit import new_subsystem, EnvironmentModel


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


class TestGeneralizedPlant:
    def test_shapes(self):
        plant = _scalar_plant()
        gp = build_generalized_plant(plant, alpha=0.5, eps=1e-4)
        assert gp.B1.shape == (1, 1 + 2)
        assert gp.C1.shape == (2, 1)
        assert gp.D12.shape == (2, 1)
        assert gp.D21.shape == (2, 3)
        assert gp.n_meas == 2 and gp.n_ctrl == 1

    def test_zero_noise_rejected(self):
        # A noise-free measurement feedthrough is rank deficient, so the
        # plant could never be synthesized; it is refused when built.
        with pytest.raises(ValueError, match="eps"):
            build_generalized_plant(_scalar_plant(), alpha=0.5, eps=0.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            build_generalized_plant(_scalar_plant(), alpha=0.0)
        with pytest.raises(ValueError):
            build_generalized_plant(_scalar_plant(), alpha=0.5, eps=-1.0)


class TestHinfSynthesize:
    def test_beats_static_gain_grid(self):
        alpha = 0.5
        plant = _scalar_plant()
        gp = build_generalized_plant(plant, alpha=alpha)
        _, gamma = hinf_synthesize(gp, gamma_tol=1e-4)
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
        gp = build_generalized_plant(plant, alpha=0.1)
        _, gamma = hinf_synthesize(gp)
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
        gp = build_generalized_plant(plant, alpha=0.3)
        K, gamma = hinf_synthesize(gp)
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
        gp = build_generalized_plant(plant, alpha=0.5)
        m1, g1 = hinf_synthesize(gp)
        m2, g2 = hinf_synthesize(gp)
        assert g1 == g2
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.B, m2.B)

    def test_rank_deficient_noise_feedthrough_refused(self):
        # Only a hand-built plant can reach synthesis without noise columns.
        gp = build_generalized_plant(_scalar_plant(), alpha=0.5)
        gp = dataclasses.replace(gp, B1=gp.B1[:, :1], D21=gp.D21[:, :1])
        with pytest.raises(SynthesisError, match="rank deficient"):
            hinf_synthesize(gp)

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
        gp = build_generalized_plant(plant, alpha=0.2)
        module, gamma = hinf_synthesize(gp)
        assert np.isfinite(gamma) and gamma > 0.0


class TestStaticGains:
    def test_accepts_stabilizing(self):
        plant = _scalar_plant(a=-1.0)
        module = static_gains([[-2.0]], [[0.0]], plant)
        assert module.n_states == 0

    def test_rejects_destabilizing(self):
        plant = _scalar_plant(a=-1.0)
        with pytest.raises(SynthesisError):
            static_gains([[5.0]], [[0.0]], plant)

    def test_gain_layout(self):
        # The feedthrough is [K_y, K_w], columns in (y_hat, w_hat) order.
        plant = PartitionedPlant(
            A=[[-10.0]], B=[[1.0]], L=[[0.0]], W=[[1.0]], Gamma=[[1.0]],
            S=[[1.0]], C=[[1.0], [1.0]],
        )
        module = static_gains([[1.0, 2.0]], [[3.0]], plant)
        assert np.array_equal(module.D, np.array([[1.0, 2.0, 3.0]]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="control dimension"):
            static_gains(np.ones((2, 1)), np.ones((1, 1)), _scalar_plant())


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

