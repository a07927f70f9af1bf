"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).

Criteria 2, 8 and 9 are implemented exactly as stated and FAIL honestly:
the audited 8 | y claim has genuine counterexamples at p = 239, 353, 457
(and more pairs for the generalized d list).  The counterexamples were
cross-checked against independent tooling; see the failure messages.
"""

import time

from gmforms.arith import primes_up_to
from gmforms.classgroup import (
    compose,
    enumerate_reduced,
    group_structure,
    inverse,
    principal_form,
)
from gmforms.gm import gm_norm, gm_norm_oracle
from gmforms.represent import cornacchia, represent_bruteforce
from gmforms.verify import (
    VERDICT_CONFIRMED,
    VERDICT_REFUTED,
    artin_class_d7,
    audit_d_2d,
    mersenne_crosscheck,
)

PAPER_TABLE = [
    (7, 113, 1, 4),
    (47, 140737471578113, 5732351, 3925696),
    (73, 9444732965601851473921, 96890022433, 2854983576),
    (113, 10384593717069655112945804582584321,
     79288509938147361, 24195412519312600),
]

SQUAREFREE_50 = [d for d in range(1, 51) if all(d % (k * k) for k in range(2, 8))]


def report(number, name, failures, elapsed=None, limit=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"criterion {number} [{name}]: {status}{timing}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s runtime"
    assert not failures, f"criterion {number} [{name}]: {failures}"


def test_criterion_1_paper_table_reproduction():
    start = time.monotonic()
    failures = []
    for p, value, x, y in PAPER_TABLE:
        norm = gm_norm(p)
        if norm.value != value:
            failures.append(f"G_{p} != {value}")
        rep = cornacchia(value, 7)
        if rep is None or (rep.x, rep.y) != (x, y):
            failures.append(f"G_{p} representation {rep} != ({x}, {y})")
    report(1, "paper-table reproduction", failures,
           time.monotonic() - start, limit=1.0)


def test_criterion_2_theorem_d7_audit(suite_600_d7, scan_to_600):
    start = time.monotonic()
    failures = []
    for norm in scan_to_600:
        if norm.value != gm_norm_oracle(norm.p):
            failures.append(f"oracle mismatch at p={norm.p}")
    records, summary = suite_600_d7
    for r in records:
        if r.p <= 7 or not (r.hypothesis_flags.p_mod8_ok
                            and r.hypothesis_flags.gp_probable_prime):
            continue
        if r.representation is None:
            failures.append(f"p={r.p}: no representation solved")
        elif not (r.x_mod8 in (1, 7) and r.y_mod8 == 0):
            failures.append(
                f"p={r.p}: x%8={r.x_mod8}, y%8={r.y_mod8} "
                f"(counterexample to 8 | y; confirmed independently)")
    if summary["refuted"]:
        failures.append(f"{summary['refuted']} REFUTED records")
    report(2, "y = 0 (mod 8) audit for d = 7, p <= 600", failures,
           time.monotonic() - start, limit=120.0)


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    failures = []
    for n in primes_up_to(10**5):
        for d in SQUAREFREE_50:
            if n <= d or n == 2:
                if n != 2 and represent_bruteforce(n, d) is not None:
                    failures.append(f"unexpected representation for n={n}, d={d}")
                continue
            if cornacchia(n, d) != represent_bruteforce(n, d):
                failures.append(f"disagreement at n={n}, d={d}")
    report(3, "cornacchia = brute force, n < 1e5", failures,
           time.monotonic() - start, limit=60.0)


def test_criterion_4_formula_oracle_identity():
    failures = []
    for p in primes_up_to(601):
        if p == 2:
            continue
        if gm_norm(p).value != gm_norm_oracle(p):
            failures.append(f"p={p}")
    report(4, "closed formula = Gaussian-integer oracle", failures)


def test_criterion_5_congruence_suite():
    failures = []
    for p in primes_up_to(601):
        if p <= 3:
            continue
        value = gm_norm(p).value
        if value % 8 != 1:
            failures.append(f"p={p}: G % 8 = {value % 8}")
        if p % 8 in (1, 7):
            if value % 16 != 1:
                failures.append(f"p={p}: G % 16 = {value % 16}")
            if p > 7 and value % 32 != 1:
                failures.append(f"p={p}: G % 32 = {value % 32}")
            expected_mod7 = 1 if p % 6 == 1 else 4
            if value % 7 != expected_mod7:
                failures.append(f"p={p}: G % 7 = {value % 7}")
    report(5, "congruence suite mod 8/16/32/7", failures)


def test_criterion_6_class_group_checks():
    failures = []
    s56 = group_structure(-56)
    if (s56.h, s56.cyclic_orders, s56.has_order_4_element) != (4, [4], True):
        failures.append(f"disc -56: {s56}")
    if group_structure(-28).h != 1:
        failures.append("h(-28) != 1")
    if group_structure(-7).h != 1:
        failures.append("h(-7) != 1")
    forms = enumerate_reduced(-56)
    e = principal_form(-56)
    table = {(f, g): compose(f, g) for f in forms for g in forms}
    for product in table.values():
        if product not in forms:
            failures.append("Cayley table not closed")
    for f in forms:
        if compose(f, inverse(f)) != e:
            failures.append(f"missing inverse for {f}")
        for g in forms:
            for h in forms:
                if compose(table[(f, g)], h) != compose(f, table[(g, h)]):
                    failures.append(f"associativity breaks at {(f, g, h)}")
    report(6, "class-group structure and Cayley table", failures)


def test_criterion_7_artin_consistency(suite_600_d7):
    failures = []
    records, _ = suite_600_d7
    confirmed = [r for r in records if r.verdict == VERDICT_CONFIRMED]
    if not confirmed:
        failures.append("no confirmed records to check")
    for r in confirmed:
        if artin_class_d7(r.representation.x, r.representation.y) != "trivial":
            failures.append(f"p={r.p}: nontrivial Artin class on confirmed record")
    control = mersenne_crosscheck(7)
    if control is None or (control.x, control.y) != (8, 3):
        failures.append(f"Mersenne control M_7: {control}")
    elif not (artin_class_d7(control.x, control.y) == "trivial"
              and control.x_mod8 == 0 and control.y_mod8 == 3):
        failures.append("Mersenne control dual pattern violated")
    report(7, "Artin-symbol consistency", failures)


def test_criterion_8_generalized_theorem(suite_600_generalized):
    start = time.monotonic()
    failures = []
    records, summary = suite_600_generalized
    for r in records:
        if r.p <= 7:
            continue
        if (r.representation is not None and r.hypothesis_flags.all_pass()
                and r.y_mod8 != 0):
            failures.append(
                f"p={r.p}, d={r.d}: y%8={r.y_mod8} (counterexample to 8 | y)")
    if summary["refuted"]:
        failures.append(f"{summary['refuted']} REFUTED records")
    report(8, "generalized 8 | y audit for d = 7 (mod 24)", failures,
           time.monotonic() - start, limit=300.0)


def test_criterion_9_d_2d_audit(scan_to_600):
    failures = []
    for norm in scan_to_600:
        rep_7, rep_14 = audit_d_2d(norm.p, 7)
        if norm.p == 7:
            if rep_7 == rep_14:
                failures.append("p=7 should be the documented disagreement")
        elif norm.p > 7 and rep_7 != rep_14:
            failures.append(
                f"p={norm.p}: representable d=7 is {rep_7} but d=14 is {rep_14}")
    report(9, "representability by d=7 vs d=14 agrees", failures)
