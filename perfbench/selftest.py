"""Tests of the benchmark's own oracle gate.

A checker that never fails would let any result through, so each test
feeds the gate a deliberately wrong expectation or a wrong output and
requires it to count a failure.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import shutil
import unittest
from fractions import Fraction
from unittest import mock

import run

run.import_prolite()

import bench  # noqa: E402  (needs prolite on the path)
import checks  # noqa: E402
import workloads  # noqa: E402

WORK = run.WORK / "selftest"


def setUpModule():
    WORK.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class EvalGate(unittest.TestCase):
    def one_pass(self, workload):
        return bench.eval_end_to_end(workload, seed=3, seconds=0, work=WORK)

    def test_reference_pass_is_clean(self):
        result = self.one_pass("eval-reference")
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], len(result["samples"]))

    def test_wrong_fixture_gold_fails_the_run(self):
        golds = checks.certified_fixture_golds()
        golds["cinema-3x4"] += 1
        with mock.patch.object(checks, "certified_fixture_golds",
                               return_value=golds):
            result = self.one_pass("eval-reference")
        self.assertGreaterEqual(result["failed"], 1)

    def test_wrong_navigate_gold_fails_the_run(self):
        original = workloads.navigate_pass

        def shifted(seed, index, seen):
            records, golds = original(seed, index, seen)
            first = next(iter(golds))
            golds[first] += 1
            return records, golds

        with mock.patch.object(workloads, "navigate_pass", shifted):
            result = self.one_pass("eval-reference")
        self.assertGreaterEqual(result["failed"], 1)

    def test_flaky_attempt_counts_match_the_replayed_coin_flips(self):
        result = self.one_pass("eval-flaky")
        self.assertEqual(result["failed"], 0)

    def test_wrong_attempt_count_fails_the_run(self):
        original = workloads.flaky_attempts

        def off_by_one(seed, problem_id, repeat):
            attempts, ok = original(seed, problem_id, repeat)
            return attempts + 1, ok

        with mock.patch.object(workloads, "flaky_attempts", off_by_one):
            result = self.one_pass("eval-flaky")
        self.assertEqual(result["failed"], result["attempted"])

    def test_frozen_fixture_golds_agree_with_the_oracles(self):
        self.assertEqual(len(checks.certified_fixture_golds()), 8)


class RunOutputGate(unittest.TestCase):
    def test_every_family_passes_on_the_real_program(self):
        result = bench.search_end_to_end(seed=5, seconds=0, work=WORK)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({item.family for item in result["items"]},
                         set(workloads.FAMILIES))

    def test_wrong_oracle_fails_the_run(self):
        original = workloads.nrev_item

        def wrong(rng, n):
            item = original(rng, n)
            item.accepts = lambda value: False
            return item

        with mock.patch.object(workloads, "nrev_item", wrong):
            result = bench.search_end_to_end(seed=5, seconds=0, work=WORK)
        self.assertEqual(result["failed"], len(workloads.NREV_LENGTHS))

    def rejects(self, item, stdout, code=0):
        self.assertFalse(checks.check_run_output(item, code, stdout))

    def test_wrong_answers_are_rejected(self):
        rng = random.Random(1)
        nrev = workloads.nrev_item(rng, 4)
        forward = nrev.query[len("nrev("):nrev.query.index("]") + 1]
        self.rejects(nrev, f"A = {forward}\n")
        queens = workloads.queens_item(4)
        self.assertTrue(checks.check_run_output(queens, 0,
                                                "A = [2, 4, 1, 3]\n"))
        self.rejects(queens, "A = [1, 2, 3, 4]\n")
        self.rejects(workloads.send_more_item(),
                     "A = [9, 5, 6, 7, 1, 0, 8, 3]\n")
        self.rejects(workloads.count_item(rng), "no solutions\n", code=1)
        self.rejects(workloads.count_item(rng), "true\ntrue\n")

    def test_csp_and_linear_checks_use_the_oracles(self):
        rng = random.Random(2)
        csp = workloads.csp_item(rng)
        system = workloads.linear_system_item(rng)
        # the engine's answers pass; the same answers, perturbed, do not
        for item in (csp, system):
            path = WORK / "item.pl"
            path.write_text(item.program, encoding="utf-8")
            code, out = bench.call_cli([
                "run", str(path), "-q", item.query, "--max-solutions", "1"])
            self.assertTrue(checks.check_run_output(item, code, out))
            value = checks.parse_answer(out)
            wrong = value[1:] if item is csp else \
                [value[0] + Fraction(1, 7)] + value[1:]
            self.rejects(item, f"A = {render(wrong)}\n")


def render(value):
    if isinstance(value, list):
        return "[" + ", ".join(render(v) for v in value) + "]"
    if isinstance(value, Fraction):
        return f"{value.numerator} rdiv {value.denominator}"
    return str(value)


if __name__ == "__main__":
    unittest.main()
