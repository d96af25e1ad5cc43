"""The four benchmark workloads: inputs from the seed, operations, output oracles.

A workload runs as one closed-loop client: ``cycle(c)`` returns the
operations of cycle ``c`` and the client runs them one after another, each
only after the previous one returned.  Every cycle has the same operations
at the same sizes; the seed (with the cycle index) only chooses the inputs,
so runs of different seeds differ in work only where the cost depends on the
input itself (the robustness LPs of the random mixed states).  Where a
solve's cost or success depends strongly on the input, the inputs come from
fixed lists instead (``POOL``, ``CCZ_CLASS``).

An operation's ``call`` is the timed library call (or CLI child process);
its ``check`` compares the output with an oracle that does not go through
the code path being timed: closed forms, known constants, and certificates
re-verified with this file's own numpy code.  A check raises ``CheckFailed``.

The package is reached only through module attributes looked up at call time
(``self.ml.measures.magic_report``), so wrappers installed by the tracer see
the calls.
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


class GuardError(RuntimeError):
    """The run touched state outside its own run directory."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Op:
    __slots__ = ("label", "call", "check", "after")

    def __init__(self, label, call, check, after=None):
        self.label = label
        self.call = call
        self.check = check
        self.after = after


# --- oracle helpers (independent of the package) ------------------------------

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label):
    """Matrix of a Hermitian Pauli string such as "+XIZ" (site 1 leftmost,
    site 1 the least significant basis bit)."""
    sign = -1.0 if label[0] == "-" else 1.0
    body = label.lstrip("+-")
    mats = [SINGLE[ch] for ch in body]
    return sign * reduce(lambda acc, m: np.kron(m, acc), mats)


def witness_rows(labels, states, d):
    """Tr(phi B_k) for every dictionary column phi and constraint label k."""
    rows = np.empty((len(labels), states.shape[1]))
    for k, label in enumerate(labels):
        if d == 2:
            rows[k] = np.real(np.einsum("ij,ij->j", states.conj(), pauli_matrix(label) @ states))
        else:
            part, ij = label[:2], label[3:-1]
            i, j = (int(v) for v in ij.split(","))
            prod = states[i] * states[j].conj()
            rows[k] = prod.real if part == "re" else prod.imag
    return rows


def state_coords(labels, rho, d):
    out = np.empty(len(labels))
    for k, label in enumerate(labels):
        if d == 2:
            out[k] = np.real(np.trace(pauli_matrix(label) @ rho))
        else:
            part, ij = label[:2], label[3:-1]
            i, j = (int(v) for v in ij.split(","))
            out[k] = rho[i, j].real if part == "re" else rho[i, j].imag
    return out


def closed_form_count(n, d):
    count = d**n
    for k in range(n):
        count *= d ** (n - k) + 1
    return count


KNOWN_COUNTS = {(1, 2): 6, (2, 2): 60, (3, 2): 1080, (4, 2): 36720, (1, 3): 12, (2, 3): 360}


def haar_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# Generic pure states are random Clifford images of a fixed pool of Haar-drawn
# base states.  About 1% of Haar-random 3-qubit and 2-qutrit states make the
# package's basis pursuit stop unconverged after 500k iterations (SolverError),
# e.g. haar_vector(np.random.default_rng([1921437797, 1]), 8).  The solver is
# Clifford-equivariant (a Clifford permutes the dictionary's columns up to
# phases), so every image of a base converges in the base's iteration count,
# and extent and robustness must equal the base's: an oracle independent of
# the solve, at a cost that does not depend on the seed.  Every base of the
# pool converges; (xi, LR) below are their certified values.
POOL_SEED = 2020
POOL = {
    (3, 2): [(1.8942340494832355, 0.9546868406668889), (1.9082693964773205, 0.9506691254490102),
             (1.973308841802733, 0.9914903817696029), (1.899280127946179, 0.9496851321850486)],
    (2, 3): [(2.4412075772302515, 1.405010255395327), (2.679171907162352, 1.5479645153055364),
             (2.4239789325615417, 1.3765612024232612), (2.725319977318681, 1.5861104882628532),
             (2.2978961379778076, 1.335213400173367), (2.749911717457886, 1.5184667269477758),
             (2.6549111010306534, 1.534615144589167), (2.574887258379569, 1.4624041279980697)],
    # smoke sizes
    (2, 2): [(1.4398232390157293, 0.6086508155099347), (1.4257077805142992, 0.5859300751368075),
             (1.5416759574743804, 0.6639842235530959), (1.4928241303427607, 0.5828374333683037)],
    (1, 3): [(1.6802456900792129, 0.7486721923169349), (1.5963581327413534, 0.6747843416370235),
             (1.7494149160044907, 0.8068724913189186), (1.5031589174126787, 0.6630991990284851),
             (1.5000745729652796, 0.6307891510196438), (1.6496017016511744, 0.7221177190046326),
             (1.5141406221642162, 0.5984991952998315), (1.5345331710790493, 0.6177998275226871)],
}
CLIFFORD_LENGTH = 40  # random generators multiplied into one Clifford


def _on_site(n, d, site, gate):
    out = np.eye(1, dtype=complex)
    for i in range(n):
        out = np.kron(gate if i == site else np.eye(d), out)  # site 0 least significant
    return out


def _sum_gate(n, d, ctrl, tgt):
    """|..a..b..> -> |..a..a+b..> on the ctrl and tgt digits."""
    xs = np.arange(d**n)
    digit = lambda i: (xs // d**i) % d  # noqa: E731
    ys = xs + (((digit(tgt) + digit(ctrl)) % d) - digit(tgt)) * d**tgt
    out = np.zeros((d**n, d**n), dtype=complex)
    out[ys, xs] = 1
    return out


def clifford_gates(n, d):
    """Generators of the n-qudit Clifford group: Fourier and phase gates on
    every site and SUM (CNOT for d = 2) on every ordered pair."""
    w = np.exp(2j * np.pi / d)
    fourier = w ** np.outer(np.arange(d), np.arange(d)) / math.sqrt(d)
    phase = np.diag([1, 1j] if d == 2 else [w ** (j * (j - 1) // 2) for j in range(d)])
    gates = [_on_site(n, d, i, g) for i in range(n) for g in (fourier, phase)]
    return gates + [_sum_gate(n, d, a, b) for a, b in itertools.permutations(range(n), 2)]


def pool_state(rng, n, d, k, gates):
    """A random Clifford image of base state k; returns it with the base's (xi, LR)."""
    base = haar_vector(np.random.default_rng([POOL_SEED, n, d, k]), d**n)
    u = reduce(lambda acc, g: gates[g] @ acc, rng.integers(len(gates), size=CLIFFORD_LENGTH),
               np.eye(d**n, dtype=complex))
    return u @ base, POOL[(n, d)][k]


def truth_table(n, monomials):
    """f(x) for every x as a 0/1 array (bit i of x is variable i)."""
    xs = np.arange(1 << n)
    bits = [(xs >> i) & 1 for i in range(n)]
    out = np.zeros(1 << n, dtype=np.int64)
    for mono in monomials:
        term = np.ones(1 << n, dtype=np.int64)
        for i in mono:
            term &= bits[i]
        out ^= term
    return out


def hypergraph_vector(n, monomials):
    return (1.0 - 2.0 * truth_table(n, monomials)) / math.sqrt(1 << n) + 0j


def random_cubic(rng, n):
    """Monomials of a random cubic: x1 x2 x3 plus random lower terms and
    further random cubic terms."""
    monos = {frozenset({0, 1, 2})}
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(n), size):
            if combo != (0, 1, 2) and rng.random() < (0.3 if size == 3 else 0.5):
                monos.add(frozenset(combo))
    return frozenset(monos)


# The 64 functions x1 x2 x3 + q(x) with q linear plus quadratic, in a fixed
# order.  Their robustness LPs take 400 to 1300 simplex pivots depending on q,
# so certify walks this list instead of drawing q: every run of the same
# length solves the same functions and the seed cannot move the tail.
LOW_TERMS = [frozenset(t) for t in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))]
CCZ_CLASS = [frozenset({frozenset({0, 1, 2})} | {t for i, t in enumerate(LOW_TERMS) if k >> i & 1})
             for k in np.random.default_rng(POOL_SEED).permutation(64)]


def distance_to_quadratics(n, monomials):
    """Exhaustive distance from f to RM(2, n) with numpy (n <= 4 here)."""
    f = truth_table(n, monomials)
    basis = [()] + [(i,) for i in range(n)] + list(itertools.combinations(range(n), 2))
    tables = np.array([truth_table(n, [frozenset(m)]) for m in basis])
    coeffs = (np.arange(1 << len(basis))[:, None] >> np.arange(len(basis))) & 1
    quads = (coeffs @ tables) % 2
    return int(np.min(np.sum(quads != f, axis=1)))


def gf2_rank(rows):
    rows = [int("".join(map(str, r)), 2) for r in rows]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            continue
        rank += 1
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> top) & 1 else r for r in rows]
    return rank


def z_layout(rng, n):
    """k independent Z-type Pauli strings (site 1 leftmost), 1 <= k < n."""
    k = int(rng.integers(1, n))
    while True:
        rows = rng.integers(0, 2, size=(k, n))
        if gf2_rank(rows.tolist()) == k:
            return ["".join("Z" if b else "I" for b in row) for row in rows]


COVERING_RADIUS_RM2 = {3: 1, 4: 2, 5: 6, 6: 18}
TRIANGULAR_PER_QUBIT = 2 / 3 - (2 / 3) * math.log2(9 / 8)
UNION_JACK_PER_QUBIT = 1 / 2 - (1 / 2) * math.log2(17 / 16)
ROUNDED_PER_QUBIT = {"triangular": 0.5534, "union-jack": 0.4562}


# --- workloads ------------------------------------------------------------------

class Workload:
    name = ""
    # about the wall seconds one cycle takes on the 2-vCPU machine the
    # benchmark was built on.  It only turns --seconds into a fixed number of
    # cycles (see ``cycles``), so every commit runs the same operations and
    # the tail percentile stays the same however fast the commit is.
    cycle_s: float

    def __init__(self, seed, smoke, tmp, root):
        self.seed = seed
        self.smoke = smoke
        self.tmp = Path(tmp)
        self.root = Path(root)
        self.ml = None
        self.traced = False  # set for the traced phase; the cli workload then runs its shim
        self.extra = {}
        self.child_absent = {}

    @classmethod
    def cycles(cls, seconds):
        """Cycles a phase of ``seconds`` runs: at least one."""
        return max(1, round(seconds / cls.cycle_s))

    def rng(self, c, *salt):
        return np.random.default_rng([self.seed, c, *salt])

    def import_package(self):
        import magiclab

        where = Path(magiclab.__file__).resolve()
        if self.root / "src" not in where.parents:
            raise GuardError(f"imported magiclab from {where}, not from this checkout")
        self.ml = magiclab

    def setup(self):
        pass

    def cycle(self, c):
        raise NotImplementedError

    def finish_cycle(self, c):
        pass


class Certify(Workload):
    """magic_report with all three measures certified, on a mix of states."""

    name = "certify"
    cycle_s = 6.5

    def setup(self):
        enum = self.ml.stabdict.enumerate_stabilizer_states
        self.nq = 2 if self.smoke else 3
        self.nt = 1 if self.smoke else 2
        self.dq = enum(self.nq, 2)
        self.d3 = self.dq if self.nq == 3 else enum(3, 2)
        self.dt = enum(self.nt, 3)
        self.gates_q = clifford_gates(self.nq, 2)
        self.gates_t = clifford_gates(self.nt, 3)

    def _certificate(self, rep, rho, dic):
        """Re-verify the robustness LP from its returned primal and dual."""
        diag = rep.diagnostics["robustness"]
        expect(diag["duality_gap"] < 1e-8, f"LP duality gap {diag['duality_gap']:.2e}")
        labels = [lbl for lbl, _ in rep.witness]
        y = np.array([v for _, v in rep.witness])
        tr_phi_a = y @ witness_rows(labels, dic.states, dic.d)
        worst = float(np.max(np.abs(tr_phi_a)))
        expect(worst <= 1 + 1e-9, f"witness max|Tr phi A| = {worst!r} over the dictionary")
        dual = float(y @ state_coords(labels, rho, dic.d))
        expect(abs(dual - rep.l1) <= 1e-8 * max(1.0, rep.l1), f"dual {dual} != l1 {rep.l1}")
        expect(abs(rep.r - max((rep.l1 - 1) / 2, 0.0)) < 1e-12, "R != (l1 - 1) / 2")
        coeffs = np.array([c for _, c in rep.pseudomixture])
        cols = dic.states[:, [j for j, _ in rep.pseudomixture]]
        expect(abs(np.sum(np.abs(coeffs)) - rep.l1) < 1e-8, "pseudomixture l1 mass")
        rec = (cols * coeffs) @ cols.conj().T
        expect(np.max(np.abs(rec - rho)) < 1e-8, "pseudomixture does not rebuild rho")

    def _chain(self, rep):
        tol = 1e-5
        expect(rep.dmin >= -1e-12, "negative dmin")
        if rep.dmax is not None:
            expect(rep.dmin <= rep.dmax + tol, f"dmin {rep.dmin} > dmax {rep.dmax}")
            expect(rep.dmax <= rep.lr + tol, f"dmax {rep.dmax} > LR {rep.lr}")
            ext = rep.diagnostics["extent"]
            expect(ext["l1_gap"] < 1e-6, f"extent gap {ext['l1_gap']:.2e}")
        expect(rep.dmin <= rep.lr + tol, f"dmin {rep.dmin} > LR {rep.lr}")

    def _pure_check(self, psi, dic, extra=None):
        def check(rep):
            self._chain(rep)
            overlaps = np.abs(dic.states.conj().T @ psi) ** 2
            expect(abs(overlaps.max() - 2.0**-rep.dmin) < 1e-12, "fidelity != max overlap")
            expect(abs(overlaps[rep.best_state_index] - overlaps.max()) < 1e-12, "best index")
            self._certificate(rep, np.outer(psi, psi.conj()), dic)
            if extra:
                extra(rep, overlaps)
        return check

    def _mixed_check(self, rho, dic):
        def check(rep):
            self._chain(rep)
            expect(rep.dmax is None, "extent reported for a mixed state")
            self._certificate(rep, rho, dic)
        return check

    @staticmethod
    def _invariant(xi, lr):
        """Extent and robustness equal those of the image's base state."""
        def check(rep, overlaps):
            expect(abs(rep.xi - xi) < 1e-5, f"extent {rep.xi} != {xi} of the base state")
            expect(abs(rep.lr - lr) < 1e-7, f"LR {rep.lr} != {lr} of the base state")
        return check

    @staticmethod
    def _ccz(rep, overlaps):
        expect(abs(math.sqrt(overlaps.max()) - 0.75) < 1e-12, "CCZ-class best overlap != 3/4")
        expect(abs(rep.xi - 16 / 9) < 1e-5, f"CCZ-class extent {rep.xi} != 16/9")

    def _report(self, state, dic):
        return lambda: self.ml.measures.magic_report(state, dic)

    def cycle(self, c):
        """One generic 3-qubit state, then twice: two mixed and three hypergraph
        states and one qutrit state with its Wigner function and mana check.
        The generic states are Clifford images of base c of the pool, the
        qutrit states of bases 2c and 2c + 1 (see ``POOL``), and the
        hypergraph states are entries 6c to 6c + 5 of ``CCZ_CLASS``.  The generic
        3-qubit states, whose extent solves cost most, stay a small share of
        the work and sit above the tail percentile, which falls among the
        hypergraph states (p80 of the 51 ops of a 20 s run); the mixed states
        hold the median."""
        rng = self.rng(c)
        nq = self.nq
        haar, (xi, lr) = pool_state(rng, nq, 2, c % len(POOL[(nq, 2)]), self.gates_q)
        ops = [Op("haar", self._report(haar, self.dq),
                  self._pure_check(haar, self.dq, self._invariant(xi, lr)))]
        for half in range(2):
            for i in range(3):
                if i < 2:
                    v = haar_vector(rng, 2**nq)
                    p = rng.uniform(0.05, 0.3)
                    rho = (1 - p) * np.outer(v, v.conj()) + p * np.eye(2**nq) / 2**nq
                    ops.append(Op("mixed", self._report(rho, self.dq),
                                  self._mixed_check(rho, self.dq)))
                psi = hypergraph_vector(3, CCZ_CLASS[(6 * c + 3 * half + i) % len(CCZ_CLASS)])
                ops.append(Op("hypergraph", self._report(psi, self.d3),
                              self._pure_check(psi, self.d3, self._ccz)))
            k = (2 * c + half) % len(POOL[(self.nt, 3)])
            ops += self._qutrit_ops(*pool_state(rng, self.nt, 3, k, self.gates_t))
        return ops

    def _qutrit_ops(self, qutrit, invariant):
        nt = self.nt
        ml = self.ml
        reports = {}

        def keep(rep):
            reports["qutrit"] = rep
            return rep

        def wigner_check(w):
            expect(w.values.shape == (9**nt,), "Wigner function size")
            expect(abs(np.sum(w.values) - 1) < 1e-10, "Wigner function does not sum to 1")
            purity = float(np.sum(w.values**2)) * 3**nt
            expect(abs(purity - 1) < 1e-9, f"3^n sum W^2 = {purity} for a pure state")

        def mana_check(out):
            ok, mana, lr = out
            expect(ok and mana >= -1e-12 and mana < lr + 1 + 1e-5, f"mana {mana} vs LR {lr}")
            if "qutrit" in reports:
                expect(abs(lr - reports["qutrit"].lr) < 1e-7, "LR differs from magic_report's")

        return [
            Op("qutrit", lambda: keep(ml.measures.magic_report(qutrit, self.dt)),
               self._pure_check(qutrit, self.dt, self._invariant(*invariant))),
            Op("wigner", lambda: ml.wigner.wigner_function(qutrit), wigner_check),
            Op("mana", lambda: ml.wigner.mana_lr_check(qutrit, self.dt), mana_check),
        ]


class Enumerate(Workload):
    """Dictionary-bound work that never calls the convex solvers."""

    name = "enumerate"
    cycle_s = 2.8

    def setup(self):
        if self.smoke:
            self.big, self.small, self.block, self.prefix = (3, 2), [(2, 2), (1, 3)], 16, 40
        else:
            self.big, self.small, self.block, self.prefix = (4, 2), [(3, 2), (2, 3)], 128, 1500
        self.dic = None

    def _build(self, n, d, picks, keep):
        def call():
            if keep:
                self.dic = None  # release the previous dictionary before building
            st = self.ml.stabdict
            dic = st.enumerate_stabilizer_states(n, d)
            count = st.count_stabilizer_states(n, d)
            idx = picks(dic.size)
            rebuilt = [self.ml.pauli.tableau_to_state(dic.tableau(int(i))) for i in idx]
            if keep:
                self.dic = dic
            return dic, count, rebuilt, idx

        def check(out):
            dic, count, rebuilt, idx = out
            expect(dic.size == count == closed_form_count(n, d) == KNOWN_COUNTS[(n, d)],
                   f"count {dic.size} / {count} for (n, d) = ({n}, {d})")
            expect(dic.states.shape == (d**n, dic.size), "dictionary shape")
            norms = np.linalg.norm(dic.states, axis=0)
            expect(np.max(np.abs(norms - 1)) < 1e-12, "dictionary columns not normalized")
            err = np.max(np.abs(np.array(rebuilt).T - dic.states[:, idx]))
            expect(err < 1e-12, f"tableau_to_state differs from stored columns by {err:.2e}")

        return Op(f"build{n}{d}", call, check)

    def _sample(self, rng):
        seed = int(rng.integers(2**31))
        n = self.big[0]

        def call():
            cfg = self.ml.haar.ExperimentConfig(n, self.block, seed)
            return self.ml.haar.sample_dmin(cfg, self.dic), self.dic

        def check(out):
            values, dic = out
            states = self.ml.haar.haar_state_batch(2**n, self.block, seed)
            expect(values.shape == (self.block,) and np.all(np.isfinite(values)), "sample shape")
            basis_bound = -np.log2(np.max(np.abs(states) ** 2, axis=0))
            expect(np.all(values >= -1e-12) and np.all(values <= basis_bound + 1e-9),
                   "dmin outside [0, -log2 max_x |psi_x|^2]")
            exact = -np.log2(np.max(np.abs(dic.states.conj().T @ states[:, :4]) ** 2, axis=0))
            expect(np.max(np.abs(exact - values[:4])) < 1e-9, "sample_dmin != dense recompute")

        return Op("sample_dmin", call, check)

    def _pbound(self, rng):
        n = self.big[0]
        monos = random_cubic(rng, n)
        psi = hypergraph_vector(n, monos)
        strings = z_layout(rng, n)
        ml = self.ml
        layout = ml.mbqc.MeasurementLayout(n, tuple(ml.pauli.pauli_from_string(s) for s in strings))
        chi = distance_to_quadratics(n, monos)

        def call():
            dval, best = ml.measures.dmin(psi, self.dic)
            return dval, ml.mbqc.pbound_check(psi, layout, dval), self.dic

        def check(out):
            dval, (ok, max_p, bound), dic = out
            exact = -math.log2(float(np.max(np.abs(dic.states.conj().T @ psi) ** 2)))
            expect(abs(dval - exact) < 1e-9, "dmin != dense recompute")
            expect(ok and max_p <= bound + 1e-9, f"outcome cap violated: {max_p} > {bound}")
            expect(abs(bound - 2.0 ** (n - len(strings) - dval)) < 1e-12, "cap formula")
            if chi < 2 ** (n - 1):
                chi_bound = -2 * math.log2(1 - 2.0 ** (1 - n) * chi)
                expect(dval <= chi_bound + 1e-9, f"dmin {dval} above the chi bound {chi_bound}")

        return Op("dmin_pbound", call, check)

    def _stream(self, rng):
        target = haar_vector(rng, 32)
        length = self.prefix

        def call():
            it = self.ml.stabdict.iter_stabilizer_states(5, 2)
            count, best, best_tab, best_psi = 0, -1.0, None, None
            for tab, phi in itertools.islice(it, length):
                count += 1
                ov = abs(np.vdot(phi, target)) ** 2
                if ov > best:
                    best, best_tab, best_psi = ov, tab, phi
            return count, best, best_tab, best_psi

        def check(out):
            count, best, tab, phi = out
            expect(count == length, f"stream prefix gave {count} states, not {length}")
            expect(float(np.max(np.abs(target) ** 2)) - 1e-12 <= best <= 1 + 1e-12,
                   "best overlap below the computational-basis bound")
            rebuilt = self.ml.pauli.tableau_to_state(tab)
            expect(np.max(np.abs(rebuilt - phi)) < 1e-12, "streamed state != its tableau's")
            expect(abs(abs(np.vdot(phi, target)) ** 2 - best) < 1e-12, "best overlap")

        return Op("stream5", call, check)

    def cycle(self, c):
        rng = self.rng(c)
        n, d = self.big

        def picks_for(salt):
            return lambda size: np.random.default_rng([self.seed, c, salt]).choice(
                size, size=min(12, size), replace=False)

        return [
            self._build(n, d, picks_for(0), keep=True),
            self._sample(rng),
            self._sample(rng),
            self._pbound(rng),
            self._build(*self.small[0], picks_for(1), keep=False),
            self._build(*self.small[1], picks_for(2), keep=False),
            self._stream(rng),
            self._build(n, d, picks_for(3), keep=True),
            self._sample(rng),
            self._sample(rng),
        ]


class Bounds(Workload):
    """Boolean-function and lattice analysis, with no dictionaries at all."""

    name = "bounds"
    cycle_s = 3.2

    def setup(self):
        if self.smoke:
            self.chi_small, self.chi_large = 3, 4
            self.welch_ns, self.overlap_ns = (3, 5), (3, 4)
            self.lattices = [("triangular", 3, 3), ("union-jack", 4, 4)]
        else:
            self.chi_small, self.chi_large = 5, 6
            self.welch_ns, self.overlap_ns = (5, 7, 9, 11, 13), tuple(range(4, 11))
            self.lattices = [("triangular", 30, 30), ("union-jack", 22, 22)]

    def _function(self, n, monos):
        return self.ml.boolfn.BooleanFunction(n, monos)

    def _chi(self, rng, n):
        monos = random_cubic(rng, n)
        f = self._function(n, monos)
        bf = self.ml.boolfn

        def call():
            chi, nearest = bf.nonquadraticity(f)
            bound = bf.dmin_bound_from_chi(f, chi) if chi < 2 ** (n - 1) else None
            return chi, nearest, bound

        def check(out):
            chi, nearest, bound = out
            expect(nearest.degree <= 2, "nearest function is not quadratic")
            dist = int(np.sum(truth_table(n, monos) != truth_table(n, nearest.monomials)))
            expect(dist == chi, f"chi {chi} != distance to the returned quadratic {dist}")
            expect(1 <= chi <= COVERING_RADIUS_RM2[n], f"chi {chi} outside [1, covering radius]")
            if bound is not None:
                expect(abs(bound + 2 * math.log2(1 - 2.0 ** (1 - n) * chi)) < 1e-12, "chi bound")

        return Op(f"chi{n}", call, check)

    def _welch(self, n):
        def check(f):
            expect(f.n == n and f.degree == 3, f"welch({n}) has degree {f.degree}")

        return Op(f"welch{n}", lambda: self.ml.boolfn.welch_function(n), check)

    def _overlap(self, rng, n):
        mf, mg = random_cubic(rng, n), random_cubic(rng, n)
        f, g = self._function(n, mf), self._function(n, mg)
        bf = self.ml.boolfn

        def call():
            return bf.overlap_from_weight(f, g), bf.hypergraph_state(f), bf.hypergraph_state(g)

        def check(out):
            ov, a, b = out
            expect(np.max(np.abs(a - hypergraph_vector(n, mf))) < 1e-15, "hypergraph_state")
            expect(abs(ov - np.vdot(a, b).real) < 1e-12, "overlap_from_weight != <f|g>")

        return Op(f"overlap{n}", call, check)

    def _lattice(self, kind, rows, cols, phase):
        lat = self.ml.lattice.make_lattice(kind, rows, cols, "periodic")

        def check(out):
            _, bound = out
            exact = TRIANGULAR_PER_QUBIT if kind == "triangular" else UNION_JACK_PER_QUBIT
            per_qubit = bound.magic_bound_per_qubit
            expect(abs(per_qubit - exact) < 1e-12, f"{kind} per-qubit bound {per_qubit}")
            expect(abs(per_qubit - ROUNDED_PER_QUBIT[kind]) < 1e-4, "per-qubit constant")
            expect(bound.s * (3 if kind == "triangular" else 4) == lat.n, "cell count")

        return Op("lattice", lambda: self.ml.lattice.lattice_bound(lat, phase), check)

    def cycle(self, c):
        rng = self.rng(c)
        ops = [self._chi(rng, self.chi_small) for _ in range(4)]
        ops += [self._chi(rng, self.chi_large) for _ in range(2)]
        ops += [self._welch(n) for n in self.welch_ns]
        ops += [self._overlap(rng, n) for n in self.overlap_ns]
        for kind, rows, cols in self.lattices:
            for phase in rng.permutation(["ccz-only", "levin-gu"]):
                ops.append(self._lattice(kind, rows, cols, str(phase)))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


class Cli(Workload):
    """One `python -m magiclab.cli` child at a time; cache cold then warm."""

    name = "cli"
    cycle_s = 22.0

    def setup(self):
        self.version = self.ml.__version__
        self.home_cache = Path(os.environ["HOME"]) / ".cache" / "magiclab"
        self.cache_bytes = []
        self.shim = self.root / "perfbench" / "cli_shim.py"

    def _write_state(self, path, n, d, amps):
        payload = {"n": n, "d": d, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
        path.write_text(json.dumps(payload))
        return str(path)

    def _child(self, label, cycle_dir, args, check):
        cache = cycle_dir / "cache"
        spans = cycle_dir / f"{label}.spans.json"
        env = dict(os.environ, MAGICLAB_CACHE_DIR=str(cache))
        if self.traced:
            cmd = [sys.executable, str(self.shim), str(spans)]
        else:
            cmd = [sys.executable, "-m", "magiclab.cli"]
        cmd += ["--cache-dir", str(cache), *args]

        def call():
            return subprocess.run(cmd, cwd=cycle_dir, env=env, capture_output=True,
                                  text=True, timeout=150)

        def full_check(proc):
            expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stdout[-300:]}")
            try:
                payload = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"stdout is not JSON: {exc}") from None
            expect(payload.get("tool_version") == self.version, "tool_version")
            check(payload)

        def after(proc, tracer, start, end):
            parent = tracer.add_span("cli.child", start, end)
            if not spans.exists():
                return
            child = json.loads(spans.read_text())
            self.child_absent.update(child["absent"])
            base = len(tracer.spans)
            for rec in child["spans"]:
                p = rec["parent"]
                tracer.add_span(rec["name"], rec["start"], rec["end"], rec["attrs"],
                                parent=parent if p < 0 else base + p)

        return Op(label, call, full_check, after if self.traced else None)

    def cycle(self, c):
        rng = self.rng(c)
        cycle_dir = self.tmp / f"cycle{c}"
        shutil.rmtree(cycle_dir, ignore_errors=True)
        cycle_dir.mkdir(parents=True)
        big, qn = (2, 1) if self.smoke else (4, 2)
        ccz_vec = hypergraph_vector(3, [frozenset({0, 1, 2})])
        ccz = self._write_state(cycle_dir / "ccz.json", 3, 2, ccz_vec)
        h3_vec, h3_values = pool_state(rng, 3, 2, c % len(POOL[(3, 2)]), clifford_gates(3, 2))
        h3 = self._write_state(cycle_dir / "h3.json", 3, 2, h3_vec)
        h4_vec = haar_vector(rng, 2**big)
        h4 = self._write_state(cycle_dir / "h4.json", big, 2, h4_vec)
        layout = ",".join(z_layout(rng, big))
        q_vec, _ = pool_state(rng, qn, 3, c % len(POOL[(qn, 3)]), clifford_gates(qn, 3))
        q = self._write_state(cycle_dir / "q.json", qn, 3, q_vec)
        chi_n = 4 if self.smoke else 5
        chi_monos = random_cubic(rng, chi_n)
        anf = " + ".join("*".join(f"x{i + 1}" for i in sorted(m)) or "1" for m in chi_monos)
        lattice = ("union-jack", 4, 4) if self.smoke or rng.random() < 0.5 else ("triangular", 6, 6)
        phase = str(rng.choice(["ccz-only", "levin-gu"]))
        welch_n = 3 if self.smoke else int(rng.choice([5, 7, 9]))
        haar_n, haar_samples = (2, 100) if self.smoke else (3, 2000)
        haar_seed = int(rng.integers(2**31))

        def dmin_check(p, vec):
            basis_bound = -math.log2(float(np.max(np.abs(vec) ** 2)))
            expect(-1e-12 <= p["dmin"] <= basis_bound + 1e-9, "dmin outside its basis bound")

        def measures_check(vec, ccz_state=False, base_values=None):
            # the package skips the convex solves for large dictionaries (n = 4)
            def check(p):
                dmin_check(p, vec)
                if p["lr"] is not None:
                    rob = p["diagnostics"]["robustness"]
                    expect(rob["duality_gap"] < 1e-8, "LP duality gap")
                    expect(rob["witness_max_abs"] <= 1 + 1e-9, "witness bound")
                    expect(p["dmin"] <= p["lr"] + 1e-5, "dmin <= LR")
                if p["dmax"] is not None:
                    expect(p["dmin"] <= p["dmax"] + 1e-5 and p["dmax"] <= p["lr"] + 1e-5,
                           "dmin <= dmax <= LR")
                    expect(p["diagnostics"]["extent"]["l1_gap"] < 1e-6, "extent gap")
                if ccz_state:
                    expect(abs(p["fidelity"] - 9 / 16) < 1e-12, "CCZ overlap != 3/4")
                    expect(abs(p["xi"] - 16 / 9) < 1e-5, "CCZ extent != 16/9")
                if base_values:
                    xi, lr = base_values
                    expect(abs(p["xi"] - xi) < 1e-5 and abs(p["lr"] - lr) < 1e-7,
                           "extent or LR differs from the base state's")
            return check

        def mbqc_check(p):
            expect(p["pass"] and p["max_p"] <= p["bound"] + 1e-9, "outcome cap")
            expect(abs(sum(p["distribution"]) - 1) < 1e-10, "distribution sum")
            dmin_check(p, h4_vec)

        def wigner_check(p):
            expect(abs(p["sum"] - 1) < 1e-9, "Wigner sum")
            expect(abs(p["mana"] - math.log2(2 * p["negativity"] + 1)) < 1e-12, "mana formula")
            expect(p["mana_lr_check"]["pass"], "mana >= LR + 1")

        def chi_check(p):
            weight = int(np.sum(truth_table(chi_n, chi_monos)))
            expect(p["degree"] == 3 and p["weight"] == weight, "degree / weight")
            expect(1 <= p["chi"] <= COVERING_RADIUS_RM2[chi_n], "chi outside [1, covering radius]")
            if "dmin_bound" in p:
                expect(abs(p["dmin_bound"] + 2 * math.log2(1 - 2.0 ** (1 - chi_n) * p["chi"]))
                       < 1e-12, "chi bound")

        def lattice_check(p):
            kind = p["kind"]
            exact = TRIANGULAR_PER_QUBIT if kind == "triangular" else UNION_JACK_PER_QUBIT
            per_qubit = p["decomposition"]["magic_bound_per_qubit"]
            expect(abs(per_qubit - exact) < 1e-12, "per-qubit bound")
            expect(abs(per_qubit - ROUNDED_PER_QUBIT[kind]) < 1e-4, "per-qubit constant")

        def welch_check(p):
            expect(p["n"] == welch_n and p["degree"] == 3, "welch degree")

        def haar_check(p):
            expect(0 <= p["overlap_ks_pvalue"] <= 1 and p["seed"] == haar_seed, "KS p-value")

        def child(label, args, check):
            return self._child(label, cycle_dir, args, check)

        kind, rows, cols = lattice
        return [
            child("measures-cold", ["measures", "--state", ccz], measures_check(ccz_vec, True)),
            child("measures-warm", ["measures", "--state", h3],
                  measures_check(h3_vec, base_values=h3_values)),
            child("mbqc-cold", ["mbqc", "--state", h4, "--layout", layout], mbqc_check),
            child("mbqc-warm", ["mbqc", "--state", h4, "--layout", layout], mbqc_check),
            child("wigner", ["wigner", "--state", q, "--check"], wigner_check),
            child("chi", ["chi", "--anf", anf, "--n", str(chi_n)], chi_check),
            child("lattice", ["lattice", "--kind", kind, "--rows", str(rows), "--cols", str(cols),
                              "--phase", phase], lattice_check),
            child("welch", ["welch", "--n", str(welch_n)], welch_check),
            child("haar", ["haar", "--n", str(haar_n), "--samples", str(haar_samples),
                           "--seed", str(haar_seed), "--overlap-only"], haar_check),
        ]

    def finish_cycle(self, c):
        if self.home_cache.exists():
            raise GuardError(f"the default cache root {self.home_cache} was written")
        cycle_dir = self.tmp / f"cycle{c}"
        cache = cycle_dir / "cache"
        self.cache_bytes.append(sum(p.stat().st_size for p in cache.rglob("*") if p.is_file()))
        self.extra["cli.cache_bytes"] = float(np.median(self.cache_bytes))
        shutil.rmtree(cycle_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Certify, Enumerate, Bounds, Cli)}
