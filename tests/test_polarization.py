import math

import numpy as np
import pytest

from sagnacsim import (
    H,
    V,
    apply,
    compose,
    element_matrix,
    HalfWavePlate,
    global_phase_decompose,
    identity_infidelity,
    is_unitary,
    normalize,
    rotation,
    scaled_identity_infidelity,
    stokes,
)

from conftest import random_state, random_unitary

I2 = np.eye(2, dtype=complex)


class TestNormalize:
    def test_already_normalized(self):
        np.testing.assert_allclose(normalize([1, 0]), [1, 0], atol=1e-15)

    def test_three_four_five(self):
        # Scaled past where the squares overflow or underflow a float.
        for scale in (1.0, 1e200, 1e-200):
            np.testing.assert_allclose(normalize([3 * scale, 4j * scale]), [0.6, 0.8j], atol=1e-15)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="unnormalizable"):
            normalize([0, 0])

    def test_direction_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = (rng.normal(size=2) + 1j * rng.normal(size=2)) * rng.uniform(0.1, 10)
            n = normalize(s)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            # ratio beta / alpha unchanged
            np.testing.assert_allclose(n[1] / n[0], s[1] / s[0], rtol=1e-12)


class TestApplyCompose:
    def test_identity(self):
        s = np.array([0.3 + 0.1j, 0.2 - 0.5j])
        np.testing.assert_allclose(apply(I2, s), s)

    def test_swap(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(apply(swap, H), V)

    def test_global_phase_keeps_norm(self):
        s = normalize([1, 1j])
        out = apply(np.exp(1j * math.pi) * I2, s)
        np.testing.assert_allclose(out, -s, atol=1e-15)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_compose_identity(self):
        m = random_unitary(np.random.default_rng(1))
        np.testing.assert_allclose(compose(I2, m), m)

    def test_rotation_group(self):
        np.testing.assert_allclose(
            compose(rotation(0.3), rotation(0.5)), rotation(0.8), atol=1e-12
        )

    def test_hwp_after_rotation_reflects_about_zero(self):
        # Hand product: reflection about 22.5 deg after a 45 deg rotation is
        # the reflection about 0 deg, i.e. diag(1, -1).
        product = compose(element_matrix(HalfWavePlate(math.pi / 8)), rotation(math.pi / 4))
        np.testing.assert_allclose(product, np.diag([1.0, -1.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: apply(I2, np.ones(3)), "state must have shape"),
            (lambda: apply(I2, [math.nan, 0.0]), "state must be finite"),
            (lambda: compose(np.eye(3), I2), "transform must have shape"),
            (lambda: stokes([1e200, 0.0]), "power overflows"),
        ],
    )
    def test_shape_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            global_phase_decompose,
            identity_infidelity,
            scaled_identity_infidelity,
            is_unitary,
            lambda m: apply(m, H),
            lambda m: compose(I2, m),
        ],
        ids=["global_phase_decompose", "identity_infidelity", "scaled_identity_infidelity",
             "is_unitary", "apply", "compose"],
    )
    def test_non_finite_transform_rejected(self, call, bad):
        # Without the check these return NaN, or False with a numpy warning.
        with pytest.raises(ValueError, match="transform must be finite"):
            call(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_apply_respects_compose(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b = random_unitary(rng), random_unitary(rng)
            s = random_state(rng)
            np.testing.assert_allclose(
                apply(compose(a, b), s), apply(a, apply(b, s)), atol=1e-12
            )


class TestGlobalPhaseDecompose:
    def test_identity(self):
        phase, residual = global_phase_decompose(I2)
        assert phase == 0.0
        np.testing.assert_allclose(residual, I2)

    def test_diag_i(self):
        phase, residual = global_phase_decompose(np.diag([1j, 1j]))
        assert phase == pytest.approx(math.pi / 2, abs=1e-15)
        np.testing.assert_allclose(residual, I2, atol=1e-15)

    def test_canonicalization_by_hand(self):
        m = np.exp(1j * math.pi / 3) * np.diag([1.0, -1.0])
        phase, residual = global_phase_decompose(m)
        # largest-magnitude entries tie; row-major order picks m[0, 0]
        assert phase == pytest.approx(math.pi / 3, abs=1e-15)
        np.testing.assert_allclose(residual, np.diag([1.0, -1.0]), atol=1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            global_phase_decompose(np.zeros((2, 2)))

    def test_overflowing_pivot_rejected(self):
        # The residual's pivot |m_00| is past the float range; it was inf.
        with pytest.raises(ValueError, match="overflows"):
            global_phase_decompose(np.array([[1.7e308 + 1.7e308j, 0.0], [0.0, 1.0]]))
        phase, residual = global_phase_decompose(np.array([[1e308 + 1e308j, 0.0], [0.0, 1.0]]))
        assert phase == pytest.approx(math.pi / 4)
        assert residual[0, 0] == abs(1e308 + 1e308j)

    def test_phase_range_boundary(self):
        phase, _ = global_phase_decompose(-I2)
        assert phase == pytest.approx(math.pi)
        assert phase <= math.pi

    def test_round_trip_random_unitaries(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            m = random_unitary(rng)
            phase, residual = global_phase_decompose(m)
            assert -math.pi < phase <= math.pi
            np.testing.assert_allclose(np.exp(1j * phase) * residual, m, atol=1e-11)
            # first of the maximal-magnitude entries (unitaries tie in exact
            # pairs, so break the tie row-major as the canonical rule does)
            mags = np.abs(residual).ravel()
            k = int(np.flatnonzero(mags >= mags.max() - 1e-12)[0])
            pivot = residual.flat[k]
            assert pivot.imag == 0.0 and pivot.real > 0.0


class TestIdentityInfidelity:
    def test_pure_phase_is_zero(self):
        for phi in (-2.0, 0.0, 0.4, math.pi):
            assert identity_infidelity(np.exp(1j * phi) * I2) == pytest.approx(0.0, abs=1e-15)

    def test_hwp_at_zero_is_one(self):
        assert identity_infidelity(np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_small_rotation_quadratic(self):
        for delta in (1e-3, 1e-2, 0.1):
            got = identity_infidelity(rotation(delta))
            assert got == pytest.approx(1.0 - math.cos(delta), abs=1e-12)
            assert got == pytest.approx(delta**2 / 2, rel=1e-2)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="lossless"):
            identity_infidelity(np.diag([1.0, 0.5]))
        # M^dagger M of this one overflows a float; it is never squared.
        with pytest.raises(ValueError, match="lossless"):
            identity_infidelity(1e200 * I2)
        assert not is_unitary(1e200 * I2)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_unitary(rng)
            phi = rng.uniform(-math.pi, math.pi)
            assert identity_infidelity(np.exp(1j * phi) * m) == pytest.approx(
                identity_infidelity(m), abs=1e-12
            )

    def test_scaled_variant_matches_on_unitaries(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = random_unitary(rng)
            assert scaled_identity_infidelity(m) == pytest.approx(
                identity_infidelity(m), abs=1e-12
            )

    def test_scaled_variant_ignores_common_loss(self):
        for scale in (0.3, 1e200, 1e-320):  # ||m||_F^2 overflows at 1e200, underflows at 1e-320
            assert scaled_identity_infidelity(scale * np.exp(0.7j) * I2) == pytest.approx(0.0, abs=1e-15)
        assert scaled_identity_infidelity(np.diag([1.0, 0.5])) > 0.01

    def test_scaled_variant_rejects_zero_matrix(self):
        with pytest.raises(ValueError, match="zero matrix"):
            scaled_identity_infidelity(np.zeros((2, 2)))


class TestStokes:
    @pytest.mark.parametrize(
        "state, expected",
        [
            ([1, 0], (1, 1, 0, 0)),
            (np.array([1, 1]) / math.sqrt(2), (1, 0, 1, 0)),
            (np.array([1, 1j]) / math.sqrt(2), (1, 0, 0, 1)),
        ],
    )
    def test_examples(self, state, expected):
        np.testing.assert_allclose(stokes(state), expected, atol=1e-12)

    def test_pure_state_sphere(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s0, s1, s2, s3 = stokes(random_state(rng))
            assert s1**2 + s2**2 + s3**2 == pytest.approx(s0**2, abs=1e-12)


class TestUnitaryClosure:
    def test_chains_stay_unitary(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m = I2.copy()
            for _ in range(int(rng.integers(1, 33))):
                m = compose(random_unitary(rng), m)
            assert is_unitary(m, tol=1e-11)
