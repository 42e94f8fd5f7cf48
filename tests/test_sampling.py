"""The draw layout of random Clark bases: one decoder, blocks of attempts, skips and retries.

``clark_draws`` runs the Clark chain on blocks of attempts and
``random_clark_basis`` is its batch of 1; both must consume the generator
exactly as the scalar draws ``oracles.random_blaschke`` then ``random_clark_params``
do, attempt by attempt.
"""

import numpy as np
import pytest

from model_space_lab import clark, sampling
from model_space_lab.blaschke import LevelSetError
from model_space_lab.config import BASIS_TOL
from model_space_lab.modelspace import BasisError, basis_residuals
from model_space_lab.repcheck import counterexample_report
from model_space_lab.sampling import (
    CLARK_DRAW,
    clark_draws,
    decode_clark_draws,
    random_clark_basis,
)

from oracles import random_blaschke, random_clark_params


def test_decoder_matches_scalar_draws():
    rows, scalar = np.random.default_rng(3), np.random.default_rng(3)
    zeros, constants, t, alpha = decode_clark_draws(rows.random((6, CLARK_DRAW)))
    for i in range(6):
        b, params = random_blaschke(scalar), random_clark_params(scalar)
        np.testing.assert_allclose(zeros[i], b.zeros, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            [constants[i], t[i], alpha[i]], [b.front_constant, params.t, params.alpha],
            rtol=0, atol=1e-15,
        )
    assert rows.bit_generator.state == scalar.bit_generator.state


@pytest.fixture
def forced_failures(monkeypatch):
    """Make the attempts with the given indices, counted over all draws, fail their level set."""

    def force(failing):
        attempts = [0]

        def rows_with_failures(*draws):
            rows = clark.clark_rows(*draws)
            for i in range(len(rows.omega)):
                if attempts[0] + i in failing:
                    rows.failures[i] = LevelSetError("forced failure of attempt %d" % (attempts[0] + i))
            attempts[0] += len(rows.omega)
            return rows

        monkeypatch.setattr(sampling, "clark_rows", rows_with_failures)
        return attempts

    return force


@pytest.mark.parametrize("failing", [(), (1, 4, 5, 9), tuple(range(7))])
@pytest.mark.parametrize("seed", [0, 11])
def test_batch_equals_one_basis_at_a_time(forced_failures, failing, seed):
    k = 12
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    attempts = forced_failures(set(failing))
    batch = clark_draws(a, k)
    batch_attempts = attempts[0]
    attempts[0] = 0
    singles = [random_clark_basis(b) for _ in range(k)]
    assert attempts[0] == batch_attempts == k + len(failing)
    assert a.bit_generator.state == b.bit_generator.state
    np.testing.assert_allclose(batch.etas, [cb.etas for cb in singles], rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        batch.phases / batch.norms, [cb.phases / cb.norms for cb in singles], rtol=0, atol=1e-13
    )


def test_eight_consecutive_failures_raise(forced_failures):
    # random_clark_basis draws one attempt at a time, so it stops after exactly
    # eight; the batch raises the same error but may have drawn its whole block.
    forced_failures(set(range(8)))
    with pytest.raises(LevelSetError, match="attempt 7"):
        clark_draws(np.random.default_rng(5), 3)
    forced_failures(set(range(8)))
    b, c = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(LevelSetError, match="attempt 7"):
        random_clark_basis(b)
    c.random((8, CLARK_DRAW))
    assert b.bit_generator.state == c.bit_generator.state


@pytest.mark.parametrize("residual", [0, 1], ids=["gram", "conjugation"])
def test_basis_failure_is_raised_not_skipped(monkeypatch, residual):
    # A Gram or conjugation residual at or above BASIS_TOL is a BasisError at its
    # row: it ends the sweep instead of being retried like a level-set failure.
    def missing(x, j):
        residuals = basis_residuals(x, j)
        residuals[residual][len(x) // 2] = BASIS_TOL
        return residuals

    monkeypatch.setattr(clark, "basis_residuals", missing)
    with pytest.raises(BasisError):
        clark_draws(np.random.default_rng(0), 5)
    with pytest.raises(BasisError):
        counterexample_report(1, 0.5, 1.0, -1.0, seed=0)
