"""One patch of limits.DENSE_GUARD reaches every dense guard in the package."""

import tracemalloc

import numpy as np
import pytest

from designlab import cli, limits, otolab, wg
from designlab import densemat as dm
from designlab import framepot as fp
from designlab import scrambling as sc
from designlab.otolab import OtoSpec
from designlab.paulialg import from_label

X, XI = from_label("X"), from_label("XI")

# each builds a matrix of side 4, past a guard of 2
DENSE_BUILDS = {
    "haar_unitary": lambda: dm.haar_unitary(4, np.random.default_rng(0)),
    "gue_hamiltonian": lambda: dm.gue_hamiltonian(4, np.random.default_rng(0)),
    "brickwork_ensemble": lambda: dm.brickwork_ensemble(2, 1, seed=0),
    "pauli_to_dense": lambda: dm.pauli_to_dense(XI),
    "oto_correlator": lambda: otolab.oto_correlator(np.eye(4), OtoSpec((XI,), (XI,))),
    "permutation_matrix": lambda: wg.permutation_matrix((1, 0), 2),
    "m_tensor": lambda: otolab.m_tensor(1, 1),
    "channel_coefficients_direct": lambda: otolab.channel_coefficients_direct(
        dm.pauli_ensemble(1), (X, X), 2),
    "kfold_channel_apply": lambda: dm.kfold_channel_apply(dm.pauli_ensemble(1), np.eye(4), 2),
    "choi_state": lambda: sc.choi_state(np.eye(2)),
}


@pytest.fixture
def guard_of_two(monkeypatch):
    monkeypatch.setattr(limits, "DENSE_GUARD", 2)


@pytest.mark.parametrize("name", list(DENSE_BUILDS))
def test_one_patch_reaches_the_guard(guard_of_two, name):
    with pytest.raises(ValueError, match="dense guard exceeded"):
        DENSE_BUILDS[name]()


def test_one_patch_reaches_the_scramble_command(guard_of_two, capsys):
    assert cli.main(["scramble", "--n", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: dense guard exceeded: Choi state side d^2 = 4 > 2\n"


def test_one_patch_reaches_the_time_grid(guard_of_two):
    with pytest.raises(ValueError, match="at most DENSE_GUARD\\^2 = 4, got n_grid=16"):
        fp.time_averaged_frame_potential([0.0, 1.0], 1, 1.0, n_grid=16)


def test_permutation_matrix_guards_before_it_allocates(guard_of_two):
    # side 2^8: its identity alone would be 512 KiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense guard exceeded: d\\^k=256 > 2"):
            wg.permutation_matrix(tuple(range(8))[::-1], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_a_list_that_is_no_permutation_is_rejected():
    with pytest.raises(ValueError, match="not a permutation"):
        wg.permutation_matrix((0, 0), 2)
