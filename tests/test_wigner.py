import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import magiclab
from magiclab.measures import TOLERANCES, free_robustness
from magiclab.pauli import weyl_operator
from magiclab.haar import haar_state_batch
from magiclab.stabdict import ResourceLimitError, _tables
from magiclab.wigner import (
    WignerFunction,
    mana,
    mana_lr_check,
    phase_space_points,
    sum_negativity,
    wigner_csv,
    wigner_function,
)

from conftest import phase_point_operator, point_index, random_state


def test_point_operators_single_qutrit():
    for u in phase_space_points(1):
        A = phase_point_operator(u, 1)
        assert np.allclose(A, A.conj().T)
        assert abs(np.trace(A) - 1) < 1e-12
        assert np.allclose(np.abs(np.linalg.eigvalsh(A)), 1, atol=1e-12)


def test_a0_is_average_of_displacements():
    A0 = phase_point_operator((0, 0), 1)
    total = sum(
        weyl_operator(1, (a1,), (a2,)).dense()
        for a1 in range(3)
        for a2 in range(3)
    )
    assert np.allclose(A0, total / 3)


def test_displacement_z_convention():
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(
        weyl_operator(1, (1,), (0,)).dense(), np.diag([1, omega, omega**2])
    )


def test_point_index_order():
    pts = list(phase_space_points(2))
    assert [point_index(u) for u in pts] == list(range(81))


def test_wigner_maximally_mixed():
    for n in (1, 2):
        W = wigner_function(np.eye(3**n, dtype=complex) / 3**n)
        assert np.allclose(W.values, 9.0**-n)


def test_wigner_normalization_and_reconstruction():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        psi = random_state(3**n, rng)
        W = wigner_function(psi)
        assert abs(np.sum(W.values) - 1) < 1e-10
        rho = np.outer(psi, psi.conj())
        # rho = sum_u W(u) A_u: the point operators are a dual basis
        rec = sum(
            W.values[point_index(u)] * phase_point_operator(u, n) for u in phase_space_points(n)
        )
        assert np.max(np.abs(rec - rho)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wigner_matches_the_per_point_traces(n):
    rng = np.random.default_rng(20 + n)
    psi = random_state(3**n, rng)
    vecs = np.array([random_state(3**n, rng) for _ in range(3)])
    weights = rng.dirichlet(np.ones(3))
    mixed = (vecs.T * weights) @ vecs.conj()
    for state, rho in ((psi, np.outer(psi, psi.conj())), (mixed, mixed)):
        W = wigner_function(state)
        for u in phase_space_points(n):
            ref = np.trace(phase_point_operator(u, n) @ rho) / 3**n
            assert abs(W.values[point_index(u)] - ref) < 1e-14


def test_wigner_of_a_four_qutrit_product_is_the_product():
    # two plus two qutrits, and three plus three: past four qutrits each
    # call builds its own tables
    rng = np.random.default_rng(24)
    for m in (2, 3):
        a, b = random_state(3**m, rng), random_state(3**m, rng)
        W_a, W_b = wigner_function(a).values, wigner_function(b).values
        # a on sites 1..m and b on sites m+1..2m: site 1 sits rightmost in kron
        W = wigner_function(np.kron(b, a)).values
        assert np.max(np.abs(W - np.outer(W_b, W_a).ravel())) < 1e-14
        assert abs(np.sum(W) - 1) < 1e-14
        assert abs(3 ** (2 * m) * np.sum(W**2) - 1) < 1e-14  # purity Tr rho^2 = 3^n sum W^2


def test_first_three_qutrit_wigner_stays_small():
    # a fresh interpreter, so no earlier call has built anything; dense point
    # operators for n = 3 would take 729 * 27 * 27 complex values, 8.5 MB
    paths = [str(Path(magiclab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "from magiclab.wigner import wigner_function\n"
        "psi = np.random.default_rng(3).normal(size=27) + 0j\n"
        "psi /= np.linalg.norm(psi)\n"
        "tracemalloc.start()\n"
        "wigner_function(psi)\n"
        "print(tracemalloc.get_traced_memory()[1])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 1 << 20


def test_wigner_of_five_qutrits():
    # the maximally mixed state has W = 9^-n at every point and no negativity
    W = wigner_function(np.eye(243, dtype=complex) / 243)
    assert W.n == 5 and np.allclose(W.values, 9.0**-5, rtol=0, atol=1e-15)
    assert mana(W) == 0.0


def test_wigner_refuses_eight_qutrits():
    # 9^8 values exceed MAX_ENTRIES; seven qutrits' 9^7 do not
    message = r"^the Wigner function of n=8 qutrits exceeds 2\^24 values$"
    with pytest.raises(ResourceLimitError, match=message):
        wigner_function(np.eye(3**8, 1, dtype=complex).ravel())


def test_wigner_rejects_non_hermitian():
    with pytest.raises(ValueError):
        wigner_function(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        wigner_function(np.diag([1.0, 0.0, 0.0]) + np.eye(3, k=1))


def test_wigner_rejects_what_is_not_a_state(dict3_1):
    # diag(1.5, -0.25, -0.25) is Hermitian with unit trace; mana used to read 1.0 on it
    bad = np.diag([1.5, -0.25, -0.25]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        wigner_function(bad)
    with pytest.raises(ValueError, match="positive semidefinite"):
        mana_lr_check(bad, dict3_1)
    # a NaN amplitude used to give a Wigner function of NaNs
    with pytest.raises(ValueError, match="unit norm"):
        wigner_function([np.nan, 0, 0])
    with pytest.raises(ValueError, match="unit norm"):
        wigner_function([2, 0, 0])
    # (0,) and (0, 0) used to raise "math domain error" from the log, and a
    # unit vector of shape (1,) gave a Wigner function on n = 0 qutrits
    for shape in ((), (3, 3, 3), (0,), (0, 0), (1,), (1, 1)):
        with pytest.raises(ValueError, match="shape"):
            wigner_function(np.ones(shape))
    with pytest.raises(ValueError, match="not a power of 3"):
        wigner_function(np.ones(6) / 6**0.5)
    with pytest.raises(ValueError, match="sums to nan"):
        WignerFunction(1, np.full(9, np.nan))


def test_hudson_direction_on_stabilizers(dict3_1, dict3_2):
    for dic in (dict3_1, dict3_2):
        for i in range(0, dic.size, max(1, dic.size // 40)):
            W = wigner_function(dic.state(i))
            assert W.values.min() > -1e-12
            assert mana(W) < 1e-10


def test_covariance_under_displacement():
    rng = np.random.default_rng(1)
    psi = random_state(3, rng)
    rho = np.outer(psi, psi.conj())
    W = wigner_function(rho)
    for v in ((1, 0), (2, 1)):
        T = weyl_operator(1, (v[0],), (v[1],)).dense()
        W2 = wigner_function(T @ rho @ T.conj().T)
        for u in phase_space_points(1):
            shifted = ((u[0] - v[0]) % 3, (u[1] - v[1]) % 3)
            assert abs(W2.values[point_index(u)] - W.values[point_index(shifted)]) < 1e-10


def test_negativity_and_mana_zero_iff_nonneg(dict3_1):
    W = wigner_function(dict3_1.state(0))
    assert sum_negativity(W) < 1e-12
    assert math.copysign(1, sum_negativity(W)) == 1  # +0.0, never -0.0 in the CLI JSON
    assert mana(W) < 1e-12
    strange = np.array([0, 1, -1], dtype=complex) / np.sqrt(2)
    Ws = wigner_function(strange)
    assert sum_negativity(Ws) > 0.3  # maximally negative single-qutrit state
    assert mana(Ws) > 0.7


def test_negativity_below_robustness(dict3_1):
    # the negativity never exceeds the free robustness (its LP relaxation)
    rng = np.random.default_rng(2)
    for _ in range(8):
        psi = random_state(3, rng)
        neg = sum_negativity(wigner_function(psi))
        assert neg <= free_robustness(psi, dict3_1).r + TOLERANCES["chain"]


def test_mana_lr_check(monkeypatch, dict2_1, dict3_1, dict3_2, dict3_3):
    rng = np.random.default_rng(3)
    for _ in range(4):
        ok, m, lr = mana_lr_check(random_state(3, rng), dict3_1)
        assert ok
    ok, m, lr = mana_lr_check(random_state(9, rng), dict3_2)
    assert ok
    # stabilizer state: 0 < 0 + 1
    ok, m, lr = mana_lr_check(dict3_1.state(4), dict3_1)
    assert ok and m < 1e-10 and lr < 1e-9
    with pytest.raises(ValueError, match="needs a qutrit dictionary"):
        mana_lr_check(dict3_1.state(4), dict2_1)
    # the robustness LP of three qutrits is past its cap, and it is refused
    # before W is computed
    def no_transform(state):
        raise AssertionError("the Wigner function was computed")

    monkeypatch.setattr(magiclab.wigner, "wigner_function", no_transform)
    with pytest.raises(ResourceLimitError, match="robustness columns for n=3, d=3"):
        mana_lr_check(dict3_3.state(0), dict3_3)


def test_wigner_csv_shape():
    W = wigner_function(np.eye(3, dtype=complex) / 3)
    lines = wigner_csv(W).strip().splitlines()
    assert lines[0] == "index,a1_1,a2_1,value"
    assert len(lines) == 10
    assert lines[1].startswith("0,0,0,")


def test_wigner_csv_rows_follow_the_flat_index():
    # row k holds the point of flat index k and its value, in full precision
    W = wigner_function(random_state(9, np.random.default_rng(4)))
    assert len(set(W.values)) == 81
    rows = wigner_csv(W).strip().splitlines()[1:]
    assert len(rows) == 81
    for k, (row, u) in enumerate(zip(rows, phase_space_points(2))):
        *point, value = row.split(",")
        assert point == [str(k), *map(str, u)]
        assert float(value) == W.values[k]


def test_six_qutrit_tables_are_not_kept():
    # the lookup tables of six qutrits, four 729 x 729 arrays (about 17 MB),
    # are built for the call and freed with it; those of four qutrits, which
    # the dictionaries use, stay cached
    psi = haar_state_batch(3**6, 1, seed=6)[:, 0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wigner_function(psi)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 2**20
    assert _tables(4, 3) is _tables(4, 3)
