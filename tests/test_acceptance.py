"""Acceptance suite: one test per exit criterion.

Every assertion is exact (all arithmetic in the package is exact); each
test prints one PASS line with its wall time and asserts the stated
runtime bound.
"""

import itertools
import math
import random
import time

from liepar import characters, intform, schurweyl, toricpave, torsion, weyl
from liepar.golden import load_table, run_golden
from liepar.rootsys import build_root_system
from specht_oracle import specht_radical_bruteforce

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D3", "D4", "G2", "F4"]


def _report(number, started, limit, label):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {label}")


def test_criterion_1_torsion_prime_table():
    started = time.time()
    expected = {}
    for n in range(1, 9):
        expected[f"A{n}"] = ()
    for n in range(2, 9):
        expected[f"C{n}"] = ()
    for n in range(3, 9):
        expected[f"B{n}"] = (2,)
    for n in range(4, 9):
        expected[f"D{n}"] = (2,)
    expected.update({"G2": (2,), "E6": (2, 3), "E7": (2, 3), "F4": (2, 3),
                     "E8": (2, 3, 5)})
    for label, primes in sorted(expected.items()):
        assert torsion.torsion_primes_fast(build_root_system(label)) == primes, label
    _report(1, started, 10, "torsion-prime table, fast criterion, exact")


def test_criterion_2_two_algorithm_agreement():
    started = time.time()
    for label in RANK_LE_4 + ["A5", "B5", "C5", "D5"]:
        rs = build_root_system(label)
        oracle, certs = torsion.torsion_primes_subsystem_oracle(rs)
        fast = torsion.torsion_primes_fast(rs)
        assert oracle == fast, (label, oracle, fast)
        assert all(c.verify(rs) for c in certs), label
    _report(2, started, 300, "subsystem oracle equals fast criterion, rank <= 5")


def test_criterion_3_minimal_orbit_data():
    started = time.time()
    table = load_table("minimal_orbit")
    for row in table["rows"]:
        rs = build_root_system(row["type"])
        assert rs.minimal_orbit_dimension() == 2 * rs.dual_coxeter_number() - 2
        assert rs.minimal_orbit_dimension() == row["dimension"], row["type"]
        assert list(torsion.minimal_orbit_parity_primes(rs)) == row["primes"], row["type"]
    _report(3, started, 5, "minimal orbit dimension 2h-2 and bad-prime table, rank <= 8")


def _check_decomposition(row):
    rs = build_root_system(row["type"])
    expected = {tuple(w): m for w, m in row["expected"]}
    if row["op"] == "tensor":
        result = characters.tensor_decompose(rs, tuple(row["left"]), tuple(row["right"]))
    else:
        result = characters.exterior_power_decompose(rs, tuple(row["weight"]), row["power"])
    assert result.dominant_mults == expected, (row["type"], row["op"])
    total = sum(m * characters.weyl_dimension(rs, w) for w, m in result.dominant_mults.items())
    if row["op"] == "tensor":
        assert total == (characters.weyl_dimension(rs, tuple(row["left"]))
                         * characters.weyl_dimension(rs, tuple(row["right"])))
    else:
        assert total == math.comb(characters.weyl_dimension(rs, tuple(row["weight"])), row["power"])


def test_criterion_4_decomposition_suite():
    started = time.time()
    table = load_table("decompositions")
    count = 0
    for row in table["rows"]:
        if row["op"] == "exterior_family":
            for member in row["members"]:
                _check_decomposition(member)
                count += 1
        else:
            _check_decomposition(row)
            count += 1
    assert count >= 14 + 40  # 13 single identities plus the B/C/D families
    _report(4, started, 1800, f"all explicit decompositions exact ({count} identities)")


def test_criterion_5_generation_certificates():
    started = time.time()
    for label in ("E6", "E7", "E8", "F4", "G2", "B4", "C4", "D5"):
        rs = build_root_system(label)
        cert = characters.generation_certificate(rs)
        assert cert.verify(rs), label
        indices = sorted(e.fundamental_index for e in cert.entries)
        assert indices == list(range(1, rs.rank + 1)), label
        gens = set(cert.generators)
        allowed = set(characters.generator_weights(rs))
        assert gens <= allowed
        for entry in cert.entries:
            assert set(entry.word) <= allowed
            assert entry.multiplicity > 0
    _report(5, started, 600, "verified generation certificates for every fundamental weight")


def test_criterion_6_intersection_form_calculus():
    started = time.time()
    minus_two = intform.IntegerSymmetricForm(((-2,),))
    for p in (2, 3, 5, 7):
        res = intform.rank_and_radical(minus_two, p)
        assert (res.rank_fp == 0) == (p == 2)
    for n in range(1, 11):
        rs = build_root_system(f"A{n}")
        form = intform.IntegerSymmetricForm(tuple(tuple(-x for x in row) for row in rs.cartan))
        for p in (2, 3, 5, 7, 11, 13):
            drop = intform.rank_and_radical(form, p).rank_fp
            assert drop == (n - 1 if (n + 1) % p == 0 else n), (n, p)
    rng = random.Random(1906)
    for trial in range(1000):
        n = rng.randint(1, 6)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                matrix[i][j] = matrix[j][i] = rng.randint(-9, 9)
        form = intform.IntegerSymmetricForm(tuple(tuple(r) for r in matrix))
        p = rng.choice((2, 3, 5, 7))
        res = intform.rank_and_radical(form, p)  # elimination vs p-local Smith asserted inside
        assert res.rank_fp + len(res.radical_basis) == n
    _report(6, started, 60, "[-2] at p=2, -Cartan(A_n) drops, 1000 fuzzed rank/radical checks")


def test_criterion_7_schur_weyl_desk_scale():
    started = time.time()
    for d in range(1, 7):
        assert sum(schurweyl.hook_length_count(lam) ** 2
                   for lam in schurweyl.partitions(d)) == math.factorial(d)
    for d in range(1, 7):
        for p in (2, 3, 5, 7):
            if p <= d:
                continue
            for lam in schurweyl.partitions(d):
                if schurweyl.is_p_regular(lam, p):
                    assert schurweyl.simple_dimension(lam, p) == schurweyl.hook_length_count(lam)
    assert schurweyl.simple_dims_table(3, 2) == [1, 2]
    assert schurweyl.simple_dims_table(3, 3) == [1, 1]
    for lam in ((3,), (2, 1)):
        for p in (2, 3):
            assert (specht_radical_bruteforce(lam, p)
                    == schurweyl.simple_dimension(lam, p)), (lam, p)
    _report(7, started, 600, "RSK identity, semisimple ranks above d, d=3 dual-oracle tables")


def test_criterion_8_toric_pavings():
    started = time.time()
    fixtures = []
    for n in range(1, 6):
        tau = toricpave.Fan.from_max_cones(2, [(1, 0), (1, n + 1)], [[0, 1]])
        dprime = toricpave.Fan.from_max_cones(
            2, [(1, i) for i in range(n + 2)], [[i, i + 1] for i in range(n + 1)]
        )
        fixtures.append((f"A{n}", dprime, tau, (1, 0, n)))
    tau = toricpave.Fan.from_max_cones(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
                                       [[0, 1, 2, 3]])
    dprime = toricpave.Fan.from_max_cones(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
                                          [[0, 1, 2], [1, 2, 3]])
    fixtures.append(("square", dprime, tau, (1, 0, 1)))
    for name, dprime, tau, expected in fixtures:
        for seed in range(20):
            result = toricpave.paving(dprime, tau, seed=seed)
            assert result.polynomial.coeffs == expected, (name, seed)
            assert result.is_even(), name
            members = [tuple(m) for cell in result.cells for m in cell["members"]]
            assert sorted(members) == sorted(result.relevant_cones), (name, seed)
    _report(8, started, 60, "chain and square pavings: polynomials, evenness, cell partition, 20 seeds")


def test_criterion_9_weyl_combinatorics():
    started = time.time()
    for label in RANK_LE_4:
        rs = build_root_system(label)
        full = weyl.generate_weyl(rs)
        assert len(weyl.double_quotient_reps(rs, (), ())) == len(full) == rs.weyl_order()
        for k in range(rs.rank + 1):
            for I in itertools.combinations(range(rs.rank), k):
                reps = weyl.double_quotient_reps(rs, set(I), ())
                assert len(reps) * len(weyl.generate_parabolic(rs, I)) == rs.weyl_order(), (label, I)
    for label in ("A2", "A3", "B3", "C3", "G2", "B2"):
        rs = build_root_system(label)
        for k in range(rs.rank + 1):
            for J in itertools.combinations(range(rs.rank), k):
                reps = weyl.double_quotient_reps(rs, (), J)
                strata = [weyl.stratum_poincare(rs, (), J, w.word).coeffs for w in reps]
                total = tuple(map(sum, itertools.zip_longest(*strata, fillvalue=0)))
                quotient = weyl.CellPolynomial.from_exponents(x.length for x in reps)
                assert total == quotient.coeffs, (label, J)
    _report(9, started, 120, "coset partition identities and stratum polynomial sums")


def test_golden_suite_green():
    started = time.time()
    report = run_golden()
    assert report.passed, report.failures()
    _report("G", started, 120, f"golden tables replayed ({len(report.outcomes)} rows)")
