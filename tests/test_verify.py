import hashlib
import json
import os
import signal
import time

import pytest

from gmforms import arith, gm, represent, verify
from gmforms.arith import lucas_lehmer, primes_up_to
from gmforms.classgroup import enumerate_reduced, form_pow, represented_by_class
from gmforms.represent import cornacchia
from gmforms.report import to_dict
from gmforms.verify import (
    MersenneRecord,
    VERDICT_CONFIRMED,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_NO_REPRESENTATION,
    VERDICT_OUT_OF_RANGE,
    VERDICT_REFUTED,
    artin_class_d7,
    audit_d_2d,
    audit_generalized,
    audit_theorem_d7,
    mersenne_crosscheck,
    run_suite,
)

class TestArtin:
    def test_examples(self):
        assert artin_class_d7(5732351, 3925696) == "trivial"
        assert artin_class_d7(1, 4) == "rho"  # p = 7, outside the p > 7 regime
        assert artin_class_d7(8, 3) == "trivial"  # Mersenne control M_7 = 127


class TestTheoremD7:
    def test_p47_confirmed(self):
        record = audit_theorem_d7(47)
        assert record.verdict == VERDICT_CONFIRMED
        assert (record.x_mod8, record.y_mod8) == (7, 0)
        assert record.artin_trivial

    def test_p113_confirmed_with_paper_values(self):
        record = audit_theorem_d7(113)
        assert record.verdict == VERDICT_CONFIRMED
        assert record.representation.x == 79288509938147361
        assert record.representation.y == 24195412519312600

    def test_p11_hypothesis_not_met(self):
        record = audit_theorem_d7(11)
        assert record.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert not record.hypothesis_flags.p_mod8_ok
        assert not record.hypothesis_flags.legendre_minus_d_gp

    def test_p7_out_of_range(self):
        record = audit_theorem_d7(7)
        assert record.verdict == VERDICT_OUT_OF_RANGE
        assert record.representation is not None and record.y_mod8 == 4

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            audit_theorem_d7(5)


class TestGeneralized:
    def test_d7_matches_theorem_audit(self):
        assert audit_generalized(47, 7) == audit_theorem_d7(47)

    def test_d55_flags(self):
        record = audit_generalized(47, 55)
        # (2/55) = (2/5)(2/11) = +1 by the second supplement.
        assert record.hypothesis_flags.legendre_2_d

    def test_admitted_d_has_2_as_residue(self):
        # _audit records legendre_2_d as true without computing it: every d
        # that check_d admits is 7 (mod 8), where (2/d) = +1.
        admitted = []
        for d in range(1, 10**5):
            try:
                verify.check_d(d)
            except ValueError:
                continue
            admitted.append(d)
        assert admitted
        for d in admitted:
            assert d % 8 == 7 and arith.jacobi(2, d) == 1, d

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            audit_generalized(47, 9)  # 9 = 9 (mod 24)
        with pytest.raises(ValueError):
            audit_generalized(47, 175)  # 175 = 7 (mod 24) but 5^2 | 175


class TestD2D:
    def test_p7_disagrees(self):
        assert audit_d_2d(7, 7) == (True, False)

    def test_p47_agrees(self):
        assert audit_d_2d(47, 7) == (True, True)

    def test_d_not_squarefree(self):
        with pytest.raises(ValueError, match="d must be square-free"):
            audit_d_2d(47, 28)

    def test_ramified_case(self):
        # G_3 = 13 divides 2d = 26.
        with pytest.raises(ValueError, match=r"ramified case gcd\(G_p, 2d\) > 1"):
            audit_d_2d(3, 13)

    def test_composite_gp_unsolved(self, monkeypatch):
        # G_13 = 53 * 157 and G_17 = 137 * 953 lie below the brute-force cap,
        # G_41 above it: a composite G_p is reported unsolved by either solver.
        called = []
        for module in (represent, verify):
            for name in ("cornacchia", "represent_bruteforce"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        lambda *a, name=name: called.append(name))
        for p in (13, 17, 41):
            assert audit_d_2d(p, 7) is None
        assert called == []

    def test_gp_primality_not_retested(self, monkeypatch):
        # gm_norm has decided G_p; audit_d_2d must solve on that proof rather
        # than run a probable-prime test on G_p (G_113 exceeds 2^64).
        expected = [audit_d_2d(113, 7), audit_d_2d(47, 7)]
        original = arith.is_probable_prime

        def below_2_64(n):
            if n >= 1 << 64:
                raise AssertionError(f"probable-prime test run on {n}")
            return original(n)

        for module in (arith, gm, verify):
            monkeypatch.setattr(module, "is_probable_prime", below_2_64)
        assert [audit_d_2d(113, 7), audit_d_2d(47, 7)] == expected


class TestMersenneCrosscheck:
    def test_p7(self):
        record = mersenne_crosscheck(7)
        assert (record.x, record.y) == (8, 3)
        assert (record.x_mod8, record.y_mod8) == (0, 3)

    def test_p13(self):
        record = mersenne_crosscheck(13)
        assert record.m_value == 8191
        assert record.x_mod8 == 0 and record.y_mod8 in (3, 5)

    def test_m_value_reported_as_decimal_string(self):
        # 2^607 - 1 has 183 digits; like the norms, it is written as a string.
        record = mersenne_crosscheck(607)
        fields = to_dict(record)
        assert fields["m_value"] == str((1 << 607) - 1) and len(fields["m_value"]) == 183
        assert (fields["x"], fields["y"]) == (str(record.x), str(record.y))

    def test_composite_skipped(self):
        assert mersenne_crosscheck(37) is None  # 2^37 - 1 = 223 * 616318177

    def test_composite_exponent_skipped_without_test(self, monkeypatch):
        def fail(p):
            raise AssertionError(f"Lucas-Lehmer run for composite p = {p}")

        monkeypatch.setattr(verify, "lucas_lehmer", fail)
        for p in (4, 10, 25, 49):
            assert mersenne_crosscheck(p) is None

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError):
            mersenne_crosscheck(11)  # 11 = 2 (mod 3)

    def test_missing_representation_raises(self, monkeypatch):
        # A prime 2^p - 1 with p = 1 (mod 3) is always x^2 + 7*y^2, so no
        # representation is a broken invariant, never a composite verdict.
        monkeypatch.setattr(verify, "cornacchia", lambda n, d: None)
        with pytest.raises(ArithmeticError, match="no representation"):
            mersenne_crosscheck(7)
        assert mersenne_crosscheck(37) is None


def _serial_crosscheck(p):
    # The serial reference: Lucas-Lehmer, then the root, in one process.
    if not lucas_lehmer(p):
        return None
    m = (1 << p) - 1
    rep = cornacchia(m, 7)
    return MersenneRecord(p=p, m_value=m, x=rep.x, y=rep.y,
                          x_mod8=rep.x % 8, y_mod8=rep.y % 8)


class TestOverlap:
    """Lucas-Lehmer in a forked child beside the root of -7 in the caller."""

    EXPONENTS = [p for p in primes_up_to(1300) if p % 3 == 1] + [2203, 4423]

    def test_matches_serial_reference(self):
        records = {p: mersenne_crosscheck(p) for p in self.EXPONENTS}
        assert records == {p: _serial_crosscheck(p) for p in self.EXPONENTS}
        # OEIS A000043 members = 1 (mod 3) up to 1300, plus 2203 and 4423.
        assert [p for p, r in records.items() if r is not None] == [
            7, 13, 19, 31, 61, 127, 607, 1279, 2203, 4423]

    def test_child_failure_raises(self, monkeypatch):
        def fail(p):
            raise AssertionError(f"Lucas-Lehmer fails for p = {p}")

        # The forked child inherits the patch; its failure is no composite verdict.
        monkeypatch.setattr(verify, "lucas_lehmer", fail)
        with pytest.raises(ChildProcessError):
            mersenne_crosscheck(13)

    def test_killed_child_raises(self):
        def killed():
            os.kill(os.getpid(), signal.SIGKILL)
            return True

        with pytest.raises(ChildProcessError, match=f"code {-signal.SIGKILL}$"):
            verify._overlap(killed, lambda: None)

    def test_exit_in_proof_is_no_verdict(self):
        def exits():
            raise SystemExit(1)

        with pytest.raises(ChildProcessError, match="code 2$"):
            verify._overlap(exits, lambda: None)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_leaks_no_descriptor(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="fork refused"):
            verify._overlap(lambda: True, lambda: None)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_root_failure_kills_the_child(self, monkeypatch):
        def fail(n, d):
            raise ZeroDivisionError("root failed")

        monkeypatch.setattr(verify, "cornacchia", fail)
        with pytest.raises(ZeroDivisionError, match="root failed"):
            mersenne_crosscheck(4423)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_kills_a_running_child(self):
        def interrupted():
            raise KeyboardInterrupt

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify._overlap(lambda: time.sleep(60) or True, interrupted)
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_composite_discards_root_failure(self, monkeypatch):
        def not_prime(n, d):
            raise ArithmeticError(f"{n} is not prime")

        monkeypatch.setattr(verify, "cornacchia", not_prime)
        assert mersenne_crosscheck(37) is None
        with pytest.raises(ArithmeticError) as info:
            mersenne_crosscheck(13)
        assert type(info.value) is ArithmeticError and str(info.value) == "8191 is not prime"

    def test_without_fork_same_records(self, monkeypatch):
        expected = [mersenne_crosscheck(p) for p in (7, 37, 607, 2203)]
        monkeypatch.delattr(os, "fork")
        assert [mersenne_crosscheck(p) for p in (7, 37, 607, 2203)] == expected


class TestRunSuite:
    def test_small_suite(self):
        records, summary = run_suite(120, [7])
        confirmed = [r.p for r in records if r.verdict == VERDICT_CONFIRMED]
        assert confirmed == [47, 73, 79, 113]
        assert summary["refuted"] == 0
        assert summary["out-of-theorem-range"] == 1  # p = 7

    def test_deterministic(self):
        assert run_suite(120, [7]) == run_suite(120, [7])

    def test_confirmed_record_invariants(self, suite_600_d7):
        records, _ = suite_600_d7
        for r in records:
            if r.verdict != VERDICT_CONFIRMED:
                continue
            rep = r.representation
            assert rep.x**2 + r.d * rep.y**2 == r.g_value
            assert r.x_mod8 in (1, 7) and r.y_mod8 == 0
            assert r.artin_trivial and artin_class_d7(rep.x, rep.y) == "trivial"

    def test_lemma_holds_on_every_representation(self, suite_600_d7):
        # README's theorem (x = +-1 mod 8, 4 | y for p = +-1 mod 8, p > 7)
        # holds on every solved instance, the ones refuting 8 | y included;
        # it holds at p = 7 as well (G_7 = 1 + 7*4^2).
        records, _ = suite_600_d7
        for r in records:
            rep = r.representation
            if rep is not None:
                assert rep.x**2 + r.d * rep.y**2 == r.g_value, r.p
                assert rep.x % 8 in (1, 7) and rep.y % 4 == 0, r.p

    def test_counterexamples_to_eight_divides_y(self, suite_600_d7):
        # Frozen regression data: the audited claim fails at exactly these
        # exponents below 600.  Independently cross-checked (primality and
        # representation values) against sympy at build time.
        records, summary = suite_600_d7
        refuted = {r.p for r in records if r.verdict == VERDICT_REFUTED}
        assert refuted == {239, 353, 457}
        assert summary["refuted"] == 3
        for r in records:
            if r.verdict == VERDICT_REFUTED:
                assert r.hypothesis_flags.all_pass()
                assert r.y_mod8 == 4

    def test_mersenne_gaussian_dual_pattern(self, suite_600_d7):
        records, _ = suite_600_d7
        gaussian_confirmed = [r for r in records if r.verdict == VERDICT_CONFIRMED]
        assert gaussian_confirmed
        for r in gaussian_confirmed:
            assert r.x_mod8 in (1, 7) and r.y_mod8 == 0
        for p in (7, 13, 19, 31):
            record = mersenne_crosscheck(p)
            if record is not None:
                assert record.x_mod8 == 0 and record.y_mod8 in (3, 5)

    def test_invalid_pmax(self):
        with pytest.raises(ValueError):
            run_suite(5, [7])

    def test_invalid_d_rejected(self):
        for d in (9, 175):  # 175 = 7 (mod 24) but 25 | 175
            with pytest.raises(ValueError, match=f"got {d}$"):
                run_suite(120, [7, d])

    def test_matches_public_audits(self):
        records, _ = run_suite(170, [31, 7])
        expected = [audit_theorem_d7(r.p) if r.d == 7 else audit_generalized(r.p, r.d)
                    for r in records]
        assert records == expected
        assert [(r.p, r.d) for r in records][:4] == [(7, 7), (7, 31), (11, 7), (11, 31)]

    def test_each_norm_computed_once(self, monkeypatch):
        calls = []
        original = gm._build_norm

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(gm, "_build_norm", counted)
        run_suite(120, [7, 31, 55])
        assert sorted(calls) == [p for p in primes_up_to(120) if p >= 7]

    def test_descent_only_on_a_residue(self, monkeypatch):
        # The record's own (-d/G_p) decides solvability: on a non-residue
        # cornacchia would take the same symbol again and return None.
        solved = []
        original = verify.cornacchia

        def counted(n, d):
            solved.append((n, d))
            return original(n, d)

        monkeypatch.setattr(verify, "cornacchia", counted)
        records, _ = run_suite(600, [7, 31, 55])
        flags = [r.hypothesis_flags for r in records]
        residues = [(r.g_value, r.d) for r, f in zip(records, flags)
                    if f.gp_probable_prime and f.legendre_minus_d_gp]
        assert solved == residues and len(solved) == 36
        assert all(r.representation is None for r, f in zip(records, flags)
                   if not f.legendre_minus_d_gp)

    def test_sieved_exponents_not_retested(self, monkeypatch):
        # A scan builds G_p from its sieve's p; only a public entry checks p.
        original = arith.is_probable_prime
        asked = []

        def counting(n):
            asked.append(n)
            return original(n)

        for module in (arith, gm, verify):
            monkeypatch.setattr(module, "is_probable_prime", counting)
        gm.scan_exponents(3, 2000)
        assert asked == []
        run_suite(120, [7])
        assert not set(asked) & set(primes_up_to(120))
        gm.gm_norm(47)
        assert asked.count(47) == 1

    def test_no_representation_meets_every_hypothesis(self, suite_2000_eight_d):
        # The CLI's --strict exit code counts these verdicts alone.
        records, summary = suite_2000_eight_d
        unsolved = [r for r in records if r.verdict == VERDICT_NO_REPRESENTATION]
        assert len(unsolved) == summary["no-representation"] == 34
        assert all(r.hypothesis_flags.all_pass() for r in unsolved)

    def test_verdict_reads_only_y_mod8(self, suite_2000_eight_d):
        # README's proof: for p = +-1 (mod 8), p > 7, G_p = 1 (mod 32), and
        # with d = 7 (mod 8) every representation has 4 | y and x = +-1 (mod 8).
        records, summary = suite_2000_eight_d
        solved = [r for r in records
                  if r.representation is not None and r.p > 7 and r.p % 8 in (1, 7)]
        assert len(solved) == 23 and summary["refuted"] == 10
        for r in solved:
            assert r.g_value % 32 == 1 and r.d % 8 == 7
            assert r.x_mod8 in (1, 7) and r.y_mod8 in (0, 4), (r.p, r.d)
            assert (r.verdict == VERDICT_REFUTED) == (r.y_mod8 == 4), (r.p, r.d)

    def test_fourth_power_class_iff_8_divides_y(self, suite_2000_eight_d):
        # The paper's step (i): G_p splits completely in the cyclic quartic
        # unramified extension of Q(sqrt(-2d)), read here as: a class of
        # Cl(-8d) that represents G_p is a fourth power.  Step (ii) turns
        # that into 8 | y, and on these records the two agree.
        records, _ = suite_2000_eight_d
        met = [r for r in records
               if r.hypothesis_flags.all_pass() and r.representation is not None]
        assert len(met) == 24 and sum(r.y_mod8 == 0 for r in met) == 13
        fourth_powers = {d: {form_pow(f, 4) for f in enumerate_reduced(-8 * d)}
                         for d in {r.d for r in met}}
        for r in met:
            in_fourth = bool(represented_by_class(r.g_value, -8 * r.d) & fourth_powers[r.d])
            assert in_fourth == (r.y_mod8 == 0), (r.p, r.d)

    def test_records_pinned(self):
        # SHA-256 of the records' sorted-key JSON, recorded while the roots
        # mod G_p were Cipolla's and the fold looped.  The roots at p = 997
        # and 1367 run on the fold, so a kernel rewrite must keep this.
        records, summary = run_suite(1400, [7, 31, 55, 79, 103, 127])
        text = json.dumps([to_dict(r) for r in records],
                          sort_keys=True)
        assert len(records) == 126 and summary["refuted"] == 8
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6cceb0bed5a22589d8192cdaccef57d35ff7231f47704e11b0438852bf04db7b")
