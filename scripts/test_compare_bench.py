#!/usr/bin/env python3
"""Regression tests for compare_bench.py (stdlib unittest, run by CTest).

Pins the gate semantics that have actually bitten:

  * an admission A/B where BOTH runs miss zero deadlines must pass — the
    old strict `missed_with < missed_without` check failed the perfect
    run (the better the scheduler got, the redder CI turned);
  * admission that rejected work but still missed deadlines must fail;
  * the gateway section's zero-error and p99 gates, and the
    present-in-one-file-only failure mode shared with the fleet section;
  * the kernel section's SIMD-vs-scalar gates, including the
    CHAINNN_SIMD=OFF lane where the dispatcher IS the scalar reference
    and the SIMD-only gates must not fire.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench  # noqa: E402


def serve_doc():
    """A BENCH_serve.json document that passes every gate against itself."""
    return {
        "analytical_rps": 100.0,
        "cache_hit_rate": 0.95,
        "fidelity_divergences": 0,
        "failed": 0,
        "fleet": {
            "modelled_speedup": 1.8,
            "fleet_modelled_rps": 50.0,
            "fidelity_divergences": 0,
            "cancelled": 1,
            "preemptions": 2,
            "resumes": 2,
            "admission": {
                "missed_without": 3,
                "missed_with": 0,
                "rejected": 3,
                "failed": 0,
            },
        },
        "kernel": {
            "model": "vgg16/8",
            "layers": 13,
            "macs": 250000000,
            "simd_enabled": True,
            "scalar_gmacs": 0.2,
            "dispatch_gmacs": 0.8,
            "speedup": 4.0,
            "fast_dispatches": 13,
            "dispatch_rate": 1.0,
            "bit_identical": True,
        },
        "gateway": {
            "connections": 128,
            "requests": 256,
            "completed": 250,
            "cancelled": 4,
            "rejected": 2,
            "errors": 0,
            "http_5xx": 0,
            "parse_errors": 0,
            "digest_mismatches": 0,
            "p50_ms": 4.0,
            "p99_ms": 12.0,
            "p999_ms": 20.0,
            "rps": 300.0,
        },
        "durability": {
            "requests": 12,
            "journal_off_rps": 35.0,
            "journal_on_rps": 34.0,
            "overhead_ratio": 0.97,
            "journal_records": 24,
            "journal_bytes": 34912,
            "journal_fsyncs": 3,
            "recovery_expected_in_flight": 12,
            "recovery_replayed": 12,
            "recovery_resumed_from_checkpoint": 0,
            "recovery_wall_ms": 340.0,
            "failed": 0,
        },
        "dse": {
            "model": "alexnet",
            "evaluated": 12000,
            "points_per_sec": 250000.0,
            "infeasible": 0,
            "pruned": 11700,
            "pruned_fraction": 0.975,
            "frontier": 299,
            "waves": 9,
            "contains_paper_point": True,
        },
    }


class GateTest(unittest.TestCase):
    def run_gate(self, current, baseline):
        with tempfile.TemporaryDirectory() as tmp:
            cur_path = os.path.join(tmp, "current.json")
            base_path = os.path.join(tmp, "baseline.json")
            with open(cur_path, "w") as f:
                json.dump(current, f)
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            # Silence the markdown table; failures still reach stderr.
            saved_stdout = sys.stdout
            sys.stdout = open(os.devnull, "w")
            try:
                return compare_bench.main(["compare_bench.py", cur_path,
                                           base_path])
            finally:
                sys.stdout.close()
                sys.stdout = saved_stdout

    def test_identical_docs_pass(self):
        self.assertEqual(self.run_gate(serve_doc(), serve_doc()), 0)

    def test_perfect_admission_run_passes(self):
        # THE regression: zero missed deadlines on both A/B sides used to
        # fail the strict `missed_with < missed_without` comparison.
        current = serve_doc()
        current["fleet"]["admission"]["missed_without"] = 0
        current["fleet"]["admission"]["missed_with"] = 0
        self.assertEqual(self.run_gate(current, serve_doc()), 0)

    def test_admission_making_things_worse_fails(self):
        current = serve_doc()
        current["fleet"]["admission"]["missed_without"] = 1
        current["fleet"]["admission"]["missed_with"] = 2
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_admission_rejecting_but_still_missing_fails(self):
        # Rejected infeasible work yet still missed a deadline: the
        # admission decision and the miss accounting disagree.
        current = serve_doc()
        current["fleet"]["admission"]["missed_without"] = 2
        current["fleet"]["admission"]["missed_with"] = 1
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_no_rejections_tolerates_equal_misses(self):
        current = serve_doc()
        current["fleet"]["admission"]["rejected"] = 0
        current["fleet"]["admission"]["missed_without"] = 2
        current["fleet"]["admission"]["missed_with"] = 2
        baseline = serve_doc()
        baseline["fleet"]["admission"]["rejected"] = 0
        self.assertEqual(self.run_gate(current, baseline), 0)

    def test_rps_regression_fails(self):
        current = serve_doc()
        current["analytical_rps"] = 60.0  # below the 75% floor
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_gateway_5xx_fails(self):
        current = serve_doc()
        current["gateway"]["http_5xx"] = 1
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_gateway_transport_error_fails(self):
        current = serve_doc()
        current["gateway"]["errors"] = 3
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_gateway_digest_mismatch_fails(self):
        current = serve_doc()
        current["gateway"]["digest_mismatches"] = 1
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_gateway_lost_request_fails(self):
        current = serve_doc()
        current["gateway"]["completed"] -= 1  # one request unaccounted for
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_gateway_p99_within_floor_passes(self):
        # Small absolute latencies ride the 50ms floor, not the 4x ratio.
        current = serve_doc()
        current["gateway"]["p99_ms"] = 49.0
        self.assertEqual(self.run_gate(current, serve_doc()), 0)

    def test_gateway_p99_blowup_fails(self):
        current = serve_doc()
        current["gateway"]["p99_ms"] = 51.0
        baseline = serve_doc()
        baseline["gateway"]["p99_ms"] = 10.0  # 4x => 40ms < 50ms floor
        self.assertEqual(self.run_gate(current, baseline), 1)

    def test_kernel_bit_identity_loss_fails(self):
        current = serve_doc()
        current["kernel"]["bit_identical"] = False
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_kernel_simd_slower_than_scalar_fails(self):
        current = serve_doc()
        current["kernel"]["dispatch_gmacs"] = 0.1  # below its own scalar
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_kernel_zero_dispatch_rate_on_simd_build_fails(self):
        current = serve_doc()
        current["kernel"]["dispatch_rate"] = 0.0
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_kernel_scalar_build_skips_simd_gates(self):
        # The CHAINNN_SIMD=OFF lane: the dispatcher IS the scalar
        # reference, so zero fast-path dispatches and dispatch throughput
        # within noise of scalar must pass against a SIMD baseline.
        current = serve_doc()
        current["kernel"]["simd_enabled"] = False
        current["kernel"]["dispatch_rate"] = 0.0
        current["kernel"]["fast_dispatches"] = 0
        current["kernel"]["dispatch_gmacs"] = 0.19  # noise below scalar
        current["kernel"]["speedup"] = 0.95
        self.assertEqual(self.run_gate(current, serve_doc()), 0)

    def test_kernel_section_must_match_presence(self):
        current = serve_doc()
        del current["kernel"]
        self.assertEqual(self.run_gate(current, serve_doc()), 1)
        baseline = serve_doc()
        del baseline["kernel"]
        self.assertEqual(self.run_gate(serve_doc(), baseline), 1)

    def test_gateway_section_must_match_presence(self):
        current = serve_doc()
        del current["gateway"]
        self.assertEqual(self.run_gate(current, serve_doc()), 1)
        baseline = serve_doc()
        del baseline["gateway"]
        self.assertEqual(self.run_gate(serve_doc(), baseline), 1)

    def test_gateway_absent_everywhere_is_fine(self):
        current = serve_doc()
        baseline = serve_doc()
        del current["gateway"]
        del baseline["gateway"]
        self.assertEqual(self.run_gate(current, baseline), 0)

    def test_fleet_admission_equal_misses_no_rejections_mixed(self):
        # copy.deepcopy guard: serve_doc() must hand out fresh objects
        # (a shared nested dict would let one test poison another).
        a, b = serve_doc(), serve_doc()
        self.assertIsNot(a["fleet"]["admission"], b["fleet"]["admission"])
        self.assertEqual(a, copy.deepcopy(b))

    def test_durability_overhead_over_floor_passes(self):
        # The ratio is same-run A/B, so it is compared against the fixed
        # 0.9 floor, not against the baseline's own ratio — a faster
        # baseline run must never fail a current run that meets the floor.
        current = serve_doc()
        current["durability"]["overhead_ratio"] = 0.91
        baseline = serve_doc()
        baseline["durability"]["overhead_ratio"] = 1.05
        self.assertEqual(self.run_gate(current, baseline), 0)

    def test_durability_journal_too_expensive_fails(self):
        current = serve_doc()
        current["durability"]["overhead_ratio"] = 0.85
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_durability_lost_request_in_recovery_fails(self):
        # Replay must cover exactly the in-flight set of the cut journal:
        # one short is a lost request, regardless of the baseline counts.
        current = serve_doc()
        current["durability"]["recovery_replayed"] = 11
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_durability_empty_recovery_fails(self):
        # The bench cuts the journal right after its last SUBMIT, so a
        # drill that found nothing in flight means the cut (or the
        # analysis) is broken, not that the system is durable.
        current = serve_doc()
        current["durability"]["recovery_expected_in_flight"] = 0
        current["durability"]["recovery_replayed"] = 0
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_durability_failed_request_fails(self):
        current = serve_doc()
        current["durability"]["failed"] = 1
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_durability_section_must_match_presence(self):
        current = serve_doc()
        del current["durability"]
        self.assertEqual(self.run_gate(current, serve_doc()), 1)
        baseline = serve_doc()
        del baseline["durability"]
        self.assertEqual(self.run_gate(serve_doc(), baseline), 1)

    def test_durability_absent_everywhere_is_fine(self):
        current = serve_doc()
        baseline = serve_doc()
        del current["durability"]
        del baseline["durability"]
        self.assertEqual(self.run_gate(current, baseline), 0)

    def test_dse_empty_frontier_fails(self):
        current = serve_doc()
        current["dse"]["frontier"] = 0
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_dse_paper_point_off_frontier_fails(self):
        current = serve_doc()
        current["dse"]["contains_paper_point"] = False
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_dse_zero_pruning_fails(self):
        current = serve_doc()
        current["dse"]["pruned"] = 0
        current["dse"]["pruned_fraction"] = 0.0
        self.assertEqual(self.run_gate(current, serve_doc()), 1)

    def test_dse_section_must_match_presence(self):
        current = serve_doc()
        del current["dse"]
        self.assertEqual(self.run_gate(current, serve_doc()), 1)
        baseline = serve_doc()
        del baseline["dse"]
        self.assertEqual(self.run_gate(serve_doc(), baseline), 1)

    def test_dse_absent_everywhere_is_fine(self):
        current = serve_doc()
        baseline = serve_doc()
        del current["dse"]
        del baseline["dse"]
        self.assertEqual(self.run_gate(current, baseline), 0)

    def test_analyze_stanza_in_current_only_passes(self):
        # The static-analysis provenance stanza is documentation, not a
        # gated section: present only in the current file it must not
        # trip the presence-xor machinery.
        current = serve_doc()
        current["analyze"] = {
            "compiler": "clang 18",
            "thread_safety": True,
            "clang_tidy": "18.1",
            "tsan": "gcc-13 -fsanitize=thread",
        }
        self.assertEqual(self.run_gate(current, serve_doc()), 0)

    def test_analyze_stanza_in_baseline_only_passes(self):
        baseline = serve_doc()
        baseline["analyze"] = {"compiler": "clang 18"}
        self.assertEqual(self.run_gate(serve_doc(), baseline), 0)

    def test_nested_analyze_stanza_is_ignored(self):
        # Stripping is recursive: sections may carry their own provenance
        # (e.g. the gateway soak recording which lane produced it), and a
        # mismatch in those must not be diffed either.
        current = serve_doc()
        current["fleet"]["analyze"] = {"lane": "tsan"}
        current["gateway"]["analyze"] = {"lane": "asan"}
        self.assertEqual(self.run_gate(current, serve_doc()), 0)

    def test_analyze_stanza_does_not_mask_real_absence(self):
        # A current file whose gateway section is just provenance-plus-
        # nothing must still fail the real gates (stripping removes the
        # stanza, not the section it sits in).
        current = serve_doc()
        current["gateway"] = {"analyze": {"lane": "tsan"}}
        with open(os.devnull, "w") as devnull:
            saved = sys.stderr
            sys.stderr = devnull
            try:
                with self.assertRaises(KeyError):
                    # Section present but gutted -> the required metrics
                    # are genuinely missing, which must not pass silently.
                    self.run_gate(current, serve_doc())
            finally:
                sys.stderr = saved

    def test_strip_analyze_pure(self):
        doc = serve_doc()
        doc["analyze"] = {"compiler": "clang"}
        stripped = compare_bench.strip_analyze(doc)
        self.assertNotIn("analyze", stripped)
        self.assertIn("analyze", doc)  # input untouched
        expected = serve_doc()
        self.assertEqual(stripped, expected)


if __name__ == "__main__":
    unittest.main()
