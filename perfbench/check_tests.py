"""Each answer check of the benchmark accepts the right value and rejects a
wrong one.

    python3 perfbench/check_tests.py
"""

import dataclasses
import json
import random
import unittest

import groups

groups.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from twogroups import oracles  # noqa: E402
from twogroups.catalog import fingerprint, shipped_catalog  # noqa: E402
from twogroups.ktheory import h1_wh_prime, search_central_extensions, sk1  # noqa: E402
from twogroups.pcgroup import conjugacy_classes  # noqa: E402

CAT = shipped_catalog()
Failed = checks.CheckFailed


class GroupChecks(unittest.TestCase):
    def test_witnesses(self):
        g = CAT["SG256_9039"]
        pairs = h1_wh_prime(g).witnesses
        checks.witnesses(g, pairs)
        # the identity inverts only elements of order <= 2
        a = next(a for a, _h in pairs if g.square(a) != g.identity)
        with self.assertRaises(Failed):
            checks.witnesses(g, pairs + [(a, g.identity)])

    def test_class_equation(self):
        g = CAT["D8"]
        classes = conjugacy_classes(g)
        checks.class_equation(g.order, classes)
        with self.assertRaises(Failed):
            checks.class_equation(g.order, classes[1:])
        last = classes[-1]
        bent = [dataclasses.replace(last, centralizer_order=last.centralizer_order * 2)]
        with self.assertRaises(Failed):
            checks.class_equation(g.order, classes[:-1] + bent)

    def test_burnside(self):
        g = CAT["Q8"]
        table = checks.mult_table(g)
        n = len(conjugacy_classes(g))
        checks.burnside(g.order, n, checks.commuting_pair_count(table))
        with self.assertRaises(Failed):
            checks.burnside(g.order, n + 1, checks.commuting_pair_count(table))

    def test_brute_rank(self):
        g = CAT["SG256_9039"]
        table = checks.mult_table(g)
        checks.expect("rank", h1_wh_prime(g).rank, checks.brute_h1_rank(table))
        with self.assertRaises(Failed):
            checks.expect("rank", 0, checks.brute_h1_rank(table))

    def test_published_rank(self):
        checks.h1_rank("G16384", 3)
        checks.h1_rank("R4_4_s404", 5)  # no published value
        with self.assertRaises(Failed):
            checks.h1_rank("SG256_9039", 0)

    def test_lambda4(self):
        checks.lambda4("G16384", "nonzero", {"factor_index": 1})
        checks.rank_zero_means_zero(0, "zero")
        with self.assertRaises(Failed):
            checks.lambda4("SG256_9039", "nonzero", {"factor_index": 1})
        with self.assertRaises(Failed):
            checks.lambda4("G16384", "nonzero", None)
        with self.assertRaises(Failed):
            checks.rank_zero_means_zero(0, "undecided")

    def test_search_ext(self):
        fps = {name: fingerprint(CAT[name]).as_dict() for name in ("SG128_1376", "SG128_1377")}
        entries = [e.as_dict() for e in search_central_extensions(CAT["SG256_8177"])]
        checks.search_ext("SG256_8177", entries, fps)
        for bad in (
            entries + entries,
            [dict(entries[0], sigma=[5, 8])],
            [dict(entries[0], thm42=False)],
            [dict(entries[0], quotient_fingerprint=fps["SG128_1376"])],
        ):
            with self.assertRaises(Failed):
                checks.search_ext("SG256_8177", bad, fps)


class Sk1Checks(unittest.TestCase):
    def test_abelian_invariants(self):
        for name, inv in checks.ABELIAN.items():
            self.assertEqual(checks.abelian_invariants(CAT[name]), inv)
        self.assertNotEqual(checks.abelian_invariants(CAT["C8"]), (2, 4))

    def test_sk1_answer(self):
        for name in ("SG128_1376", "C2xC4", "D8"):
            g = CAT[name]
            data = sk1(g)
            bar = oracles.bar_h2(oracles.pc_to_table(g)) if g.order <= 16 else None
            checks.sk1_answer(g, bar, data.invariants, data.cover.h2_invariants)
        with self.assertRaises(Failed):   # published SK_1
            checks.sk1_answer(CAT["SG128_1376"], None, (2, 2), (2, 2, 2, 2))
        with self.assertRaises(Failed):   # abelian: SK_1 trivial
            checks.sk1_answer(CAT["C2xC2"], None, (2,), (2,))
        with self.assertRaises(Failed):   # abelian: Kunneth
            checks.sk1_answer(CAT["C2xC2xC2"], None, (), (2, 2))
        with self.assertRaises(Failed):   # bar resolution
            checks.sk1_answer(CAT["Q8"], (), (), (2,))
        with self.assertRaises(Failed):   # |SK_1| divides |H_2|
            checks.sk1_answer(CAT["D8"], None, (4,), (2,))

    def test_cover_answer(self):
        checks.cover_answer(128, 2048, 16, 16, (2, 2, 2, 2))
        with self.assertRaises(Failed):
            checks.cover_answer(128, 1024, 16, 16, (2, 2, 2, 2))
        with self.assertRaises(Failed):
            checks.cover_answer(128, 2048, 16, 8, (2, 2, 2, 2))

    def test_compat(self):
        checks.compat("compatible")
        with self.assertRaises(Failed):
            checks.compat("inconclusive")


class CliChecks(unittest.TestCase):
    def run_check(self, argv, code, report, fps=None):
        fps = {} if fps is None else fps
        return workloads._cli_check(argv, fps)((code, json.dumps(report), "err"))

    def test_exit_code(self):
        with self.assertRaises(Failed):
            self.run_check(["h1whp", "G16384"], 1, {"value": {"rank": 3}})

    def test_values(self):
        self.run_check(["h1whp", "G16384"], 0, {"value": {"rank": 3}, "timing_ms": 1.0})
        with self.assertRaises(Failed):
            self.run_check(["h1whp", "G16384"], 0, {"value": {"rank": 2}})
        with self.assertRaises(Failed):
            self.run_check(["sk1", "SG128_1376"], 0, {"value": {"invariants": []},
                                                      "certificate": {"h2_invariants": [2]}})
        with self.assertRaises(Failed):
            self.run_check(["selftest"], 0, {"ok": False, "criteria": []})

    def test_cover_order(self):
        value = {"cover_order": 2048, "kernel_order": 16, "stem_order": 16,
                 "h2_invariants": [2, 2, 2, 2]}
        self.run_check(["cover", "SG128_1376"], 0, {"value": value})
        with self.assertRaises(Failed):   # |cover| != |G| |kernel|
            self.run_check(["cover", "SG128_1376"], 0,
                           {"value": dict(value, cover_order=1024)})

    def test_page4(self):
        x = ["X1", "X2", "X3", "X4"]
        dead = ["X1^4", "X2^4+X3^4+X4^4"]
        checks.page4(x, dead, ["X2^4", "X3^4", "X4^4"])
        with self.assertRaises(Failed):
            checks.page4(x, dead, ["X1^4", "X3^4", "X4^4"])
        with self.assertRaises(Failed):
            checks.page4(x, dead, ["X3^4", "X4^4"])

    def test_conj62(self):
        seq = {"N_order": 2, "T_order": 4, "W_order": 4, "cyclic_quotient_order": 4,
               "classes_in_T_minus_N": 2, "parity": "even"}
        checks.conj62(8, [seq])
        for key, value in (("parity", "odd"), ("T_order", 8), ("W_order", 2),
                           ("cyclic_quotient_order", 2)):
            with self.assertRaises(Failed):
                checks.conj62(8, [dict(seq, **{key: value})])


class WorkloadChecks(unittest.TestCase):
    def test_fingerprint_matches_classes(self):
        g = CAT["SG128_1377"]
        ctx = {}
        classes_op = workloads._classes_op(g, ctx)
        classes_op.check(conjugacy_classes(g))
        fp_op = workloads._fingerprint_op(g, ctx)
        fp = fingerprint(g)
        fp_op.check(fp)
        with self.assertRaises(Failed):
            fp_op.check(dataclasses.replace(fp, class_sizes=fp.class_sizes[1:] + (1,)))

    def test_relabelled_copy_is_isomorphic(self):
        g = CAT["G16384"]
        r = groups.relabel(g, random.Random(3))
        self.assertNotEqual(r.comms, g.comms)
        self.assertEqual(fingerprint(r), fingerprint(g))

    def test_round_digest_must_repeat(self):
        import run
        from refclock import Clock

        answers = iter([1, 2])
        op = workloads.Op("flaky", lambda: next(answers), check=lambda result: result)
        runner = run.Runner(workloads.Workload("t", [op]), Clock())
        runner.round()
        runner.round()
        self.assertEqual((runner.attempted, runner.failed, runner.correct), (2, 1, False))

    def test_exception_is_wrong(self):
        import run
        from refclock import Clock

        def crash():
            raise MemoryError("no room")

        runner = run.Runner(workloads.Workload("t", [workloads.Op("crash", crash)]), Clock())
        self.assertEqual(runner.round(), {})
        self.assertEqual((runner.attempted, runner.failed, runner.correct), (1, 1, False))


if __name__ == "__main__":
    unittest.main()
