"""Acceptance gate: the headline criteria, one test per criterion.

Each test prints a visible [PASS]/[FAIL] checklist line (straight to the
terminal, bypassing capture) and asserts its tolerances and runtime
bounds internally, so `pytest tests/test_acceptance.py` reads as a
self-contained verdict on the whole package.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import mpmath
import numpy as np

from dutchbook.beliefs import BeliefState, OutcomeSpace
from dutchbook.cli import main
from dutchbook.diachronic import (
    TemporalModel,
    build_reflection_dutch_book,
    goldstein_expectation,
)
from dutchbook.exchangeable import (
    BitString,
    MixingDensity,
    pi_fractional_bits,
    predictive_next,
)
from dutchbook.quantum import (
    DensityOperator,
    NotInformationallyCompleteError,
    Povm,
    decohered_state,
    is_informationally_complete,
    lueders_decohere,
    lueders_instrument,
    outcome_probs,
    random_density,
    random_instrument,
    random_povm,
    random_projector_family,
    reconstruct_state,
    reflection_prob,
    tetrahedron_povm,
    z_basis_projectors,
)
from dutchbook.synchronic import (
    Assessment,
    PriceBook,
    build_dutch_book,
    check_coherence,
    settle,
)


@contextmanager
def _criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num:02d}: {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {num:02d}: {label}")


def _best_of(fn, repeats=5):
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01(capsys):
    with _criterion(capsys, 1, "three-transaction book loses exact amounts"):
        def workload():
            model = TemporalModel.from_conditionals(
                qs=(F(1, 2), F(1, 4)),
                masses=(F(2, 5), F(3, 5)),
                e_given_q=(F(7, 10), F(1, 4)),
            )
            portfolio = build_reflection_dutch_book(model, F(1, 2))
            assert settle(portfolio, "Q&E") == F(-7, 50)
            assert settle(portfolio, "Q&~E") == F(-7, 50)
            assert settle(portfolio, "~Q&E") == F(-1, 25)
            assert settle(portfolio, "~Q&~E") == F(-1, 25)

        assert _best_of(workload) < 1e-3


def test_criterion_02(capsys, seed):
    with _criterion(capsys, 2, "1000 injected violations all lose everywhere"):
        rnd = random.Random(seed)
        hundredths = [F(k, 100) for k in range(101)]
        start = time.perf_counter()
        for _ in range(1000):
            declared = rnd.choice(hundredths)
            conditional = rnd.choice(hundredths)
            while abs(conditional - declared) < F(1, 100):
                conditional = rnd.choice(hundredths)
            other = F(1, 3) if declared != F(1, 3) else F(2, 3)
            mass = F(rnd.randint(1, 99), 100)
            model = TemporalModel.from_conditionals(
                qs=(declared, other),
                masses=(mass, 1 - mass),
                e_given_q=(conditional, other),
            )
            portfolio = build_reflection_dutch_book(model, declared)
            for branch in portfolio.book.space.atoms:
                assert settle(portfolio, branch) < 0
        assert time.perf_counter() - start < 5.0


def test_criterion_03(capsys, seed):
    with _criterion(capsys, 3, "averaged announced values equal P0(E) exactly"):
        rnd = random.Random(seed)
        start = time.perf_counter()
        for _ in range(1000):
            count = rnd.randint(1, 4)
            qs = tuple(F(v, 20) for v in rnd.sample(range(21), count))
            weights = [rnd.randint(1, 9) for _ in range(count)]
            masses = tuple(F(w, sum(weights)) for w in weights)
            model = TemporalModel.from_conditionals(
                qs=qs, masses=masses, e_given_q=qs)
            assert goldstein_expectation(model) == model.joint.prob(
                model.e_event())
        assert time.perf_counter() - start < 5.0


def _random_book(rnd):
    size = rnd.randint(1, 12)
    space = OutcomeSpace([f"w{i}" for i in range(size)])

    def rand_event():
        return space.event([a for a in space.atoms if rnd.random() < 0.5])

    if rnd.random() < 0.5:
        # Unconstrained prices: usually incoherent.
        assessments = []
        for _ in range(rnd.randint(1, 10)):
            event = rand_event()
            condition = rand_event() if rnd.random() < 0.3 else None
            assessments.append(
                Assessment(event, F(rnd.randint(0, 20), 20), condition))
        return PriceBook(space, tuple(assessments))

    # Priced from a genuine measure: coherent by construction.
    weights = [rnd.randint(0, 5) for _ in range(size)]
    if not any(weights):
        weights[0] = 1
    measure = BeliefState(
        space, tuple(F(w, sum(weights)) for w in weights))
    assessments = []
    for _ in range(rnd.randint(1, 10)):
        event = rand_event()
        if rnd.random() < 0.3:
            condition = rand_event()
            if measure.prob(condition) > 0:
                price = measure.cond_prob(event, condition)
            else:
                price = F(rnd.randint(0, 20), 20)  # called off everywhere
            assessments.append(Assessment(event, price, condition))
        else:
            assessments.append(Assessment(event, measure.prob(event)))
    return PriceBook(space, tuple(assessments))


def _verify_verdict(book):
    result = check_coherence(book)
    if result.coherent:
        witness = result.witness
        for a in book.assessments:
            if a.condition is None:
                assert witness.prob(a.event) == a.price
            else:
                assert (witness.prob(a.event & a.condition)
                        == a.price * witness.prob(a.condition))
        return
    portfolio = build_dutch_book(book, result.certificate)
    for atom in book.space.atoms:
        assert settle(portfolio, atom) < 0


def test_criterion_04(capsys, seed):
    with _criterion(capsys, 4, "500 price books: exact witness or sure loss"):
        rnd = random.Random(seed)
        start = time.perf_counter()
        for _ in range(500):
            _verify_verdict(_random_book(rnd))
        assert time.perf_counter() - start < 10.0


def test_criterion_05(capsys):
    with _criterion(capsys, 5, "flat-prior predictive at n=4000"):
        start = time.perf_counter()
        uniform = MixingDensity.uniform()
        even = BitString((0,) * 2000 + (1,) * 2000)
        assert abs(predictive_next(uniform, even) - 2001 / 4002) <= 1e-12
        tilted = BitString((0,) * 2010 + (1,) * 1990)
        assert abs(predictive_next(uniform, tilted) - 2011 / 4002) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_06(capsys):
    with _criterion(capsys, 6, "first 64 pi bits match big-number oracle"):
        start = time.perf_counter()
        got = str(pi_fractional_bits(64))
        with mpmath.workprec(64 + 80):
            scaled = int(mpmath.floor(mpmath.ldexp(+mpmath.pi - 3, 64)))
        assert got == format(scaled, "064b")
        assert got[:16] == "0010010000111111"
        assert time.perf_counter() - start < 1.0


def test_criterion_07(capsys, rng):
    with _criterion(capsys, 7, "200 triples: averaged probs = decohered state"):
        start = time.perf_counter()
        for trial in range(200):
            dim = 2 + trial % 3
            rho = random_density(dim, rng)
            ins = random_instrument(dim, 2 + trial % 2, rng,
                                    kraus_per_outcome=1 + trial % 2)
            pov = random_povm(dim, 2 + trial % 3, rng)
            rho_dec = decohered_state(ins, rho).matrix
            reflected = reflection_prob(ins, pov, rho)
            for j, e in enumerate(pov.effects):
                direct = float((e @ rho_dec).trace().real)
                assert abs(reflected[j] - direct) <= 1e-12
            assert abs(rho_dec.trace().real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(rho_dec).min() >= -1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_08(capsys):
    with _criterion(capsys, 8, "sharp Z then X-POVM: (1/2,1/2) versus (1,0)"):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)

        def workload():
            rho = DensityOperator.from_ket(plus)
            ins = lueders_instrument(z_basis_projectors())
            pov = Povm((np.outer(plus, plus), np.outer(minus, minus)))
            reflected = reflection_prob(ins, pov, rho)
            direct = outcome_probs(pov, rho)
            assert abs(reflected[0] - 0.5) <= 1e-12
            assert abs(reflected[1] - 0.5) <= 1e-12
            assert abs(direct[0] - 1.0) <= 1e-12
            assert abs(direct[1] - 0.0) <= 1e-12
            rho_dec = decohered_state(ins, rho)
            assert np.abs(rho_dec.matrix - np.eye(2) / 2).max() <= 1e-12

        assert _best_of(workload) < 1e-3


def test_criterion_09(capsys, rng):
    with _criterion(capsys, 9, "tetrahedron round trip; Z basis rejected"):
        start = time.perf_counter()
        pov = tetrahedron_povm()
        for _ in range(100):
            rho = random_density(2, rng)
            rebuilt = reconstruct_state(pov, outcome_probs(pov, rho))
            assert np.linalg.norm(rebuilt.matrix - rho.matrix) <= 1e-10
        z_pov = Povm(z_basis_projectors())
        assert not is_informationally_complete(z_pov)
        try:
            reconstruct_state(z_pov, [0.5, 0.5])
        except NotInformationallyCompleteError:
            pass
        else:
            raise AssertionError("rank-deficient POVM was not rejected")
        assert time.perf_counter() - start < 2.0


def test_criterion_10(capsys, rng):
    with _criterion(capsys, 10, "100 projective families: idempotent blocks"):
        partitions = {2: [(1, 1)], 3: [(1, 2), (1, 1, 1)], 4: [(2, 2), (1, 3)]}
        for trial in range(100):
            dim = 2 + trial % 3
            ranks = partitions[dim][trial % len(partitions[dim])]
            ps = random_projector_family(dim, ranks, rng)
            rho = random_density(dim, rng)
            once = lueders_decohere(ps, rho)
            twice = lueders_decohere(ps, once)
            assert np.abs(twice.matrix - once.matrix).max() <= 1e-12
            for i in range(len(ps)):
                for j in range(len(ps)):
                    if i != j:
                        block = ps[i] @ once.matrix @ ps[j]
                        assert np.abs(block).max() <= 1e-12


def test_criterion_11(capsys, tmp_path, seed):
    with _criterion(capsys, 11, "1024-value strategy audit in under 2 s"):
        rnd = random.Random(seed)
        k = 1024
        qs = [F(v, 8 * k) for v in sorted(rnd.sample(range(1, 8 * k), k))]
        weights = [rnd.randint(1, 9) for _ in range(k)]
        star = rnd.randrange(k)
        shift = min(qs[star], 1 - qs[star]) / 2
        rows = []
        for i, (q, w) in enumerate(zip(qs, weights)):
            mass = F(w, sum(weights))
            # The starred cell puts half its mass on D with P0(E | D) moved
            # off its value; every cell as a whole still meets reflection.
            parts = ([(True, mass / 2, q + shift), (False, mass / 2, q - shift)]
                     if i == star else [(False, mass, q)])
            for d, part, cond in parts:
                for e, share in ((True, cond), (False, 1 - cond)):
                    rows.append({"q": str(q), "e": e, "d": d,
                                 "mass": str(part * share)})
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps({"temporal": {
            "qs": [str(q) for q in qs], "joint": rows,
            "strategy": {"on": "D", "q": str(qs[star])}}}))
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["audit", "--temporal", "--format", "structured", str(path)])
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["violations"] == []
        assert report["strategy"]["forced"] == str(qs[star] + shift)
        assert elapsed < 2.0
