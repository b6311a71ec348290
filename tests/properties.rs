//! Property-based tests over the core invariants of the workspace.

use proptest::prelude::*;
use sft::budget::{Budget, CancelFlag, StopReason};
use sft::core::testability::{unit_test_set, validate_test_set};
use sft::core::{build_standalone_unit, identify, ComparisonSpec, IdentifyOptions};
use sft::core::{procedure2, procedure3, resynthesize_with_budget, ResynthOptions};
use sft::netlist::{simplify, Circuit, GateKind, NodeId};
use sft::par::Jobs;
use sft::truth::TruthTable;

/// The resynthesis options used by the parallel/budget property tests.
fn resynth_opts(jobs: Jobs) -> ResynthOptions {
    ResynthOptions { max_candidates_per_gate: 40, jobs, ..ResynthOptions::default() }
}

/// Strategy: a random small combinational circuit over `n` inputs.
fn arb_circuit(inputs: usize, gates: usize) -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Not,
    ]);
    proptest::collection::vec((kinds, any::<u16>(), any::<u16>()), gates).prop_map(move |specs| {
        let mut c = Circuit::new("arb");
        let mut pool: Vec<NodeId> = (0..inputs).map(|i| c.add_input(format!("i{i}"))).collect();
        for (kind, xa, xb) in specs {
            let a = pool[xa as usize % pool.len()];
            let b = pool[xb as usize % pool.len()];
            let g = if kind == GateKind::Not {
                c.add_gate(GateKind::Not, vec![a]).expect("valid")
            } else if a == b {
                c.add_gate(GateKind::Buf, vec![a]).expect("valid")
            } else {
                c.add_gate(kind, vec![a, b]).expect("valid")
            };
            pool.push(g);
        }
        let out = *pool.last().expect("nonempty");
        c.add_output(out, "y");
        if pool.len() > inputs + 2 {
            c.add_output(pool[inputs + 1], "z");
        }
        c
    })
}

fn exhaustive_outputs(c: &Circuit) -> Vec<Vec<bool>> {
    let n = c.inputs().len();
    (0..1u32 << n)
        .map(|m| {
            let assignment: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            c.eval_assignment(&assignment)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Procedure 2 preserves the function of arbitrary random circuits
    /// (checked exhaustively over all input assignments).
    #[test]
    fn procedure2_preserves_function(c in arb_circuit(5, 14)) {
        let before = exhaustive_outputs(&c);
        let mut work = c.clone();
        let opts = ResynthOptions { max_candidates_per_gate: 40, ..ResynthOptions::default() };
        procedure2(&mut work, &opts).expect("verified resynthesis");
        prop_assert_eq!(exhaustive_outputs(&work), before);
        // And never increases the gate count.
        prop_assert!(work.two_input_gate_count() <= c.two_input_gate_count());
    }

    /// Procedure 3 preserves the function and never increases paths.
    #[test]
    fn procedure3_preserves_function(c in arb_circuit(5, 14)) {
        let before = exhaustive_outputs(&c);
        let mut work = c.clone();
        let opts = ResynthOptions { max_candidates_per_gate: 40, ..ResynthOptions::default() };
        procedure3(&mut work, &opts).expect("verified resynthesis");
        prop_assert_eq!(exhaustive_outputs(&work), before);
        prop_assert!(work.path_count() <= c.path_count());
    }

    /// Normalization (constant propagation, buffer collapsing, strashing,
    /// sweeping) preserves the function.
    #[test]
    fn normalize_preserves_function(c in arb_circuit(5, 16)) {
        let before = exhaustive_outputs(&c);
        let mut work = c.clone();
        simplify::normalize(&mut work);
        prop_assert_eq!(exhaustive_outputs(&work), before);
        work.validate().expect("normalized circuits validate");
    }

    /// Identification certificates always reproduce the function, whatever
    /// the function.
    #[test]
    fn identify_certificates_sound(bits in any::<u32>()) {
        let f = TruthTable::from_bits(5, bits as u128);
        if let Some(spec) = identify(&f, &IdentifyOptions::default()) {
            prop_assert_eq!(spec.to_table(), f);
        }
    }

    /// Every valid interval spec builds a unit implementing exactly the
    /// interval, with at most two paths per input, and a complete robust
    /// test set.
    #[test]
    fn units_correct_and_testable(
        lower in 0u64..32,
        span in 0u64..32,
        perm_seed in any::<u32>(),
        complemented in any::<bool>(),
    ) {
        let upper = (lower + span).min(31);
        // A seeded permutation of 0..5.
        let mut perm: Vec<usize> = (0..5).collect();
        let mut state = perm_seed;
        for i in (1..5).rev() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            perm.swap(i, (state as usize) % (i + 1));
        }
        let spec = ComparisonSpec { perm, lower, upper, complemented };
        spec.validate().expect("constructed valid");
        let unit = build_standalone_unit(&spec).expect("buildable");
        // Exact function.
        let table = spec.to_table();
        for m in 0..32u64 {
            let assignment: Vec<bool> = (0..5).map(|i| m >> (4 - i) & 1 == 1).collect();
            prop_assert_eq!(unit.eval_assignment(&assignment)[0], table.value(m));
        }
        // At most two paths per input.
        let out = unit.outputs()[0];
        for &i in unit.inputs() {
            prop_assert!(unit.path_count_between(i, out) <= 2);
        }
        // Fully robustly testable by the constructive set.
        let tests = unit_test_set(&spec);
        let (covered, total) = validate_test_set(&spec, &tests);
        prop_assert_eq!(covered, total);
    }

    /// Path counting is invariant under buffer insertion on any line.
    #[test]
    fn path_count_buffer_invariant(c in arb_circuit(4, 10), pick in any::<u16>()) {
        let before = c.path_count();
        let mut work = c.clone();
        // Insert a buffer after some gate: consumers of `victim` read the
        // buffer instead.
        let gates: Vec<NodeId> = work
            .iter()
            .filter(|(_, n)| n.kind().is_gate())
            .map(|(id, _)| id)
            .collect();
        let victim = gates[pick as usize % gates.len()];
        let buf = work.add_gate(GateKind::Buf, vec![victim]).expect("valid");
        let consumers: Vec<(NodeId, usize)> = work
            .fanout_table()[victim.index()]
            .iter()
            .copied()
            .filter(|&(g, _)| g != buf)
            .collect();
        for (gate, pin) in consumers {
            let kind = work.node(gate).kind();
            let mut fanins = work.node(gate).fanins().to_vec();
            fanins[pin] = buf;
            work.rewire(gate, kind, fanins).expect("acyclic");
        }
        prop_assert_eq!(work.path_count(), before);
    }

    /// The `.bench` format round-trips arbitrary circuits functionally.
    #[test]
    fn bench_round_trip(c in arb_circuit(4, 12)) {
        let text = sft::netlist::bench_format::write(&c);
        let parsed = sft::netlist::bench_format::parse(&text, "rt").expect("parseable");
        prop_assert_eq!(exhaustive_outputs(&parsed), exhaustive_outputs(&c));
    }

    /// BDD equivalence agrees with exhaustive simulation.
    #[test]
    fn bdd_equivalence_agrees_with_simulation(
        a in arb_circuit(4, 10),
        b in arb_circuit(4, 10),
    ) {
        if a.outputs().len() == b.outputs().len() {
            let sim_equal = exhaustive_outputs(&a) == exhaustive_outputs(&b);
            let bdd_equal = sft::bdd::equivalent(&a, &b).expect("fits").is_equivalent();
            prop_assert_eq!(sim_equal, bdd_equal);
        }
    }

    /// The `jobs` knob is inert for resynthesis (scoring runs on the
    /// calling thread): at any value, `resynthesize_with_budget` on an
    /// unlimited budget produces a circuit *identical* to the serial run,
    /// with identical step accounting.
    #[test]
    fn resynth_at_any_jobs_matches_serial(c in arb_circuit(5, 14), jobs in 2usize..6) {
        const BIG: u64 = 1 << 40;
        let serial_budget = Budget::unlimited().with_step_limit(BIG);
        let mut serial = c.clone();
        let serial_report =
            resynthesize_with_budget(&mut serial, &resynth_opts(Jobs::serial()), &serial_budget)
                .expect("serial resynthesis");
        let par_budget = Budget::unlimited().with_step_limit(BIG);
        let mut par = c.clone();
        let par_report =
            resynthesize_with_budget(&mut par, &resynth_opts(Jobs::new(jobs)), &par_budget)
                .expect("parallel resynthesis");
        prop_assert_eq!(&par, &serial);
        prop_assert_eq!(par_report.replacements, serial_report.replacements);
        prop_assert_eq!(par_report.stop_reason, serial_report.stop_reason);
        prop_assert_eq!(par_budget.remaining_steps(), serial_budget.remaining_steps());
    }

    /// Under a step budget, a run at any `jobs` stops with `StepBudget` and
    /// rolls back transactionally to a BDD-equivalent circuit, or converges
    /// when the limit covers the whole run. Scoring consumes steps in order
    /// on the calling thread, so nothing overshoots: a run given one unit
    /// more than its total work converges with exactly that unit left. (One
    /// unit more, not zero: a drained counter fails the next `check`, and
    /// the run checks again after its last scoring step.)
    #[test]
    fn resynth_at_any_jobs_respects_step_budget(
        c in arb_circuit(5, 14),
        limit in 1u64..40,
        jobs in 2usize..6,
    ) {
        // Total work of an unconstrained run, measured on the same input.
        const BIG: u64 = 1 << 40;
        let full = Budget::unlimited().with_step_limit(BIG);
        let mut scratch = c.clone();
        resynthesize_with_budget(&mut scratch, &resynth_opts(Jobs::new(jobs)), &full)
            .expect("unconstrained resynthesis");
        let total_work = BIG - full.remaining_steps().expect("step-limited");

        let spare = Budget::unlimited().with_step_limit(total_work + 1);
        let mut done = c.clone();
        let report = resynthesize_with_budget(&mut done, &resynth_opts(Jobs::new(jobs)), &spare)
            .expect("resynthesis with one unit to spare");
        prop_assert_eq!(report.stop_reason, StopReason::Converged);
        prop_assert_eq!(spare.remaining_steps(), Some(1));
        prop_assert_eq!(&done, &scratch);

        let budget = Budget::unlimited().with_step_limit(limit);
        let mut work = c.clone();
        let report = resynthesize_with_budget(&mut work, &resynth_opts(Jobs::new(jobs)), &budget)
            .expect("budgeted resynthesis");
        // Whatever happened, the result is verified equivalent.
        prop_assert_eq!(exhaustive_outputs(&work), exhaustive_outputs(&c));
        work.validate().expect("budgeted result validates");
        if limit > total_work {
            prop_assert_eq!(report.stop_reason, StopReason::Converged);
        } else if report.stop_reason == StopReason::StepBudget {
            // Interrupted mid-search: the pass rolled back, so the circuit
            // equals a committed (verified) state and the counter drained.
            prop_assert_eq!(budget.remaining_steps(), Some(0));
        }
    }

    /// A cancellation raised before the search starts aborts immediately
    /// and leaves the circuit untouched, at any thread count.
    #[test]
    fn resynth_pre_cancelled_is_a_no_op(c in arb_circuit(5, 12), jobs in 1usize..5) {
        let flag = CancelFlag::new();
        flag.cancel();
        let budget = Budget::unlimited().with_cancel(flag);
        let mut work = c.clone();
        let report = resynthesize_with_budget(&mut work, &resynth_opts(Jobs::new(jobs)), &budget)
            .expect("cancelled resynthesis still returns Ok");
        prop_assert_eq!(report.stop_reason, StopReason::Cancelled);
        prop_assert_eq!(report.replacements, 0);
        prop_assert_eq!(&work, &c);
    }
}

/// Cancelling from another thread mid-search aborts cleanly: the run
/// reports `Cancelled` (or finished first), and the circuit it hands back
/// is always a committed, function-preserving state — never a half-applied
/// pass.
#[test]
fn resynth_mid_run_cancellation_rolls_back_cleanly() {
    use sft::circuits::random::{random_circuit, RandomCircuitConfig};
    // Big enough that a handful of passes take a visible amount of time.
    let c = random_circuit(&RandomCircuitConfig {
        inputs: 12,
        outputs: 6,
        gates: 220,
        window: 10,
        seed: 11,
    });
    for delay_us in [0u64, 50, 400, 2000] {
        let flag = CancelFlag::new();
        let budget = Budget::unlimited().with_cancel(flag.clone());
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            flag.cancel();
        });
        let mut work = c.clone();
        let report = resynthesize_with_budget(&mut work, &resynth_opts(Jobs::new(4)), &budget)
            .expect("cancelled resynthesis still returns Ok");
        killer.join().expect("killer thread");
        assert!(
            matches!(report.stop_reason, StopReason::Cancelled | StopReason::Converged),
            "unexpected stop reason {:?}",
            report.stop_reason
        );
        work.validate().expect("result validates after cancellation");
        assert!(
            sft::bdd::equivalent(&work, &c).expect("fits").is_equivalent(),
            "cancelled result must stay equivalent (delay {delay_us}us)"
        );
    }
}
