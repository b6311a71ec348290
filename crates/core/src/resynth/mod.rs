//! Procedures 2 and 3 of the paper: circuit optimization by replacing
//! subcircuits with comparison units.
//!
//! Both procedures traverse the circuit from the primary outputs towards
//! the primary inputs in reverse BFS (level) order. At every *marked* gate
//! output `g` they enumerate candidate subcircuits (cones rooted at `g`
//! with at most `K` inputs), keep those whose function at `g` is a
//! comparison function, and score replacing them with the corresponding
//! comparison unit:
//!
//! - **Procedure 2** maximizes the reduction in equivalent 2-input gates,
//!   breaking ties by the number of paths at `g`. Gates of the old cone
//!   that fan out elsewhere are excluded from the removable count, exactly
//!   as in the paper (Section 4.1).
//! - **Procedure 3** minimizes the number of paths at `g` (using the
//!   Section 2 identity `N_p(g) = Σ N_p(I_i)·K_p(I_i)`), with no secondary
//!   gate objective (Section 4.2).
//! - **Combined** (Section 4.3) maximizes a weighted sum of both
//!   improvements.
//!
//! After a replacement, the inputs of the selected subcircuit are marked
//! for further processing, and the internal gates that the replacement made
//! dead are never revisited. The whole procedure repeats in passes until a
//! pass yields no improvement. Every pass is (optionally but by default)
//! verified equivalent to the input circuit with BDDs.
//!
//! Resynthesis is **transactional per pass**, on the edit journal of
//! [`sft_netlist`]: each pass opens an edit transaction on the live circuit
//! and is committed only after BDD verification succeeds. BDD blowup, a
//! verification mismatch, budget exhaustion, or cancellation rolls the
//! journal back to the last verified state — O(#edits of the pass), not
//! O(circuit) — and ends the run with a [`StopReason`] in the report; never
//! an error that discards completed passes. The procedures are anytime
//! algorithms, and the API preserves that property.
//!
//! The implementation is split along the transactional seams:
//!
//! - [`candidates`](self) — cone enumeration, identification, and scoring
//!   (read-only on the circuit; runs on the calling thread);
//! - [`pass`](self) — one output-to-input traversal applying accepted
//!   replacements through journaled edits;
//! - [`commit`](self) — the pass loop: journal checkpoints, dirty-region
//!   diffing against the journal, incremental BDD verification, and
//!   commit/rollback.

mod candidates;
mod commit;
mod pass;

use sft_budget::{Budget, StopReason};
use sft_netlist::{Circuit, PathCount};
use sft_par::Jobs;
use std::fmt;

use crate::IdentifyOptions;

/// What a candidate replacement is scored by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Procedure 2: maximize the gate reduction, tie-break on paths.
    #[default]
    Gates,
    /// Procedure 3: minimize the paths at the replaced line.
    Paths,
    /// Section 4.3: maximize `gate_weight·Δgates + path_weight·Δpaths`.
    Combined {
        /// Weight of the equivalent-2-input-gate reduction.
        gate_weight: u32,
        /// Weight of the path-count reduction at the line.
        path_weight: u32,
    },
}

/// Options controlling the resynthesis procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResynthOptions {
    /// The input limit `K` of candidate subcircuits (the paper uses 5–7).
    pub max_inputs: usize,
    /// Cap on candidate subcircuits enumerated per gate output.
    pub max_candidates_per_gate: usize,
    /// The optimization objective.
    pub objective: Objective,
    /// Comparison-function identification options.
    pub identify: IdentifyOptions,
    /// Maximum number of passes.
    pub max_passes: usize,
    /// Verify circuit equivalence with BDDs after every pass.
    pub verify_each_pass: bool,
    /// Node cap of the verification BDD manager. Verification BDDs for the
    /// reference and every pass result accumulate in one hash-consed
    /// manager; exceeding the cap rolls the run back to the last verified
    /// circuit with [`StopReason::BddBlowup`].
    pub verify_node_limit: usize,
    /// Use satisfiability don't-cares (reachable cone-input combinations)
    /// during identification — the first "issue to be investigated" of the
    /// paper's concluding remarks. Computed exactly with BDDs; expensive,
    /// off by default.
    pub use_satisfiability_dont_cares: bool,
    /// Allow replacing a subcircuit by an OR of up to this many comparison
    /// units when its function is not a comparison function — the paper's
    /// concluding remark 2. `1` (the default) reproduces the paper's
    /// single-unit procedure.
    pub max_cover_units: usize,
    /// Also search input polarities during identification: a cone whose
    /// function becomes a comparison function after complementing some of
    /// its inputs is replaced by a unit fed through inverters (which cost
    /// no equivalent 2-input gates and add no paths). A strict
    /// generalization of Definition 1; off by default to match the paper.
    pub allow_input_negation: bool,
    /// The workspace `--jobs` knob, accepted so one option set drives every
    /// flow. Resynthesis itself ignores it: candidate scoring runs on the
    /// calling thread, in enumeration order. A gate has about 16 candidates
    /// — tens of microseconds of work — so fanning them out per gate spent
    /// more on thread spawns than it saved (on a 2-core host a 12K-gate
    /// run was slower at two threads than at one), and the pass's
    /// accept-and-rewire loop orders the gates. The result, and the step accounting under a step
    /// budget, are therefore identical at any value.
    pub jobs: Jobs,
    /// Memoize exact comparison-function identification in the
    /// process-wide tables of [`crate::memo`]: negative verdicts shared
    /// per P-class, positive certificates replayed per exact truth table.
    /// Identification answers — certificates included — and the resulting
    /// netlist are bit-identical to an unmemoized run; repeated cone
    /// functions (within a circuit, across passes, and across circuits)
    /// skip the exponential decision procedure. Only
    /// [`IdentifyMethod::Exact`](crate::IdentifyMethod::Exact) queries are
    /// cached — see the module docs.
    /// On by default.
    pub memoize_identification: bool,
    /// Skip re-scoring gates whose rejection provably replays: a gate
    /// rejected in a pass is not re-scored in the next pass unless the
    /// modified region (the replacements, their fanin frontier, and
    /// everything downstream) reaches its scoring environment. The final
    /// netlist is identical to a full re-walk; under a *step* budget the
    /// run consumes fewer steps and can therefore progress further before
    /// exhaustion. On by default.
    pub incremental_rescoring: bool,
    /// Compact the cumulative verification BDD manager after every
    /// committed pass, keeping only the reference and the committed
    /// circuit's node BDDs. Bounds the manager (and its operation caches)
    /// by the live working set instead of the whole run's history;
    /// [`ResynthReport::verify_nodes`] reports the peak either way. Off, the
    /// manager grows monotonically (the pre-compaction behavior). On by
    /// default.
    pub compact_verifier: bool,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        ResynthOptions {
            max_inputs: 5,
            max_candidates_per_gate: 200,
            objective: Objective::Gates,
            identify: IdentifyOptions::default(),
            max_passes: 16,
            verify_each_pass: true,
            verify_node_limit: sft_bdd::DEFAULT_NODE_LIMIT,
            use_satisfiability_dont_cares: false,
            max_cover_units: 1,
            allow_input_negation: false,
            jobs: Jobs::serial(),
            memoize_identification: true,
            incremental_rescoring: true,
            compact_verifier: true,
        }
    }
}

/// Errors from resynthesis.
///
/// Only genuinely unrecoverable conditions are errors: a circuit that fails
/// validation (or a structural edit that cannot be applied). Recoverable
/// interruptions — BDD blowup, verification mismatch, budget exhaustion,
/// cancellation — roll back to the last verified circuit and are reported
/// through [`ResynthReport::stop_reason`] instead.
#[derive(Debug)]
pub enum ResynthError {
    /// The circuit failed validation before or during resynthesis.
    Netlist(sft_netlist::NetlistError),
}

impl fmt::Display for ResynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResynthError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for ResynthError {}

impl From<sft_netlist::NetlistError> for ResynthError {
    fn from(e: sft_netlist::NetlistError) -> Self {
        ResynthError::Netlist(e)
    }
}

/// Summary of a resynthesis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResynthReport {
    /// Committed (verified) passes.
    pub passes: usize,
    /// Subcircuit replacements in committed passes.
    pub replacements: usize,
    /// Equivalent 2-input gates before.
    pub gates_before: u64,
    /// Equivalent 2-input gates after.
    pub gates_after: u64,
    /// Paths before (saturation-aware).
    pub paths_before: PathCount,
    /// Paths after (saturation-aware).
    pub paths_after: PathCount,
    /// Why the run ended. Everything other than
    /// [`StopReason::Converged`] / [`StopReason::MaxPasses`] means the run
    /// was cut short and the circuit holds the last verified state.
    pub stop_reason: StopReason,
    /// **Peak** node count of the cumulative verification BDD manager over
    /// the run (0 when `verify_each_pass` is off). A direct measure of
    /// verification effort against
    /// [`ResynthOptions::verify_node_limit`]; with
    /// [`ResynthOptions::compact_verifier`] off the manager never shrinks
    /// and the peak equals the final count.
    pub verify_nodes: usize,
}

impl fmt::Display for ResynthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} passes, {} replacements: gates {} -> {}, paths {} -> {} ({})",
            self.passes,
            self.replacements,
            self.gates_before,
            self.gates_after,
            self.paths_before,
            self.paths_after,
            self.stop_reason
        )
    }
}

/// Procedure 2: reduce the number of equivalent 2-input gates.
///
/// # Errors
///
/// See [`ResynthError`].
pub fn procedure2(
    circuit: &mut Circuit,
    options: &ResynthOptions,
) -> Result<ResynthReport, ResynthError> {
    let opts = ResynthOptions { objective: Objective::Gates, ..options.clone() };
    resynthesize(circuit, &opts)
}

/// Procedure 3: reduce the number of paths.
///
/// # Errors
///
/// See [`ResynthError`].
pub fn procedure3(
    circuit: &mut Circuit,
    options: &ResynthOptions,
) -> Result<ResynthReport, ResynthError> {
    let opts = ResynthOptions { objective: Objective::Paths, ..options.clone() };
    resynthesize(circuit, &opts)
}

/// Runs the resynthesis procedure with the configured objective until a
/// pass yields no improvement (or `max_passes`).
///
/// Equivalent to [`resynthesize_with_budget`] with an unlimited budget.
///
/// # Errors
///
/// See [`ResynthError`].
pub fn resynthesize(
    circuit: &mut Circuit,
    options: &ResynthOptions,
) -> Result<ResynthReport, ResynthError> {
    resynthesize_with_budget(circuit, options, &Budget::unlimited())
}

/// Runs resynthesis under an effort budget, transactionally per pass.
///
/// Each pass opens an edit transaction on the live circuit; after the pass
/// the result is re-verified against the reference BDDs, and only then
/// committed. If the pass (or its verification) is interrupted — deadline,
/// step budget, cancellation, BDD node-limit blowup, or a verification
/// mismatch — the journal **rolls the circuit back to the last committed
/// state** (cost proportional to the pass's edits, not the circuit) and the
/// function returns `Ok` with the appropriate [`StopReason`], keeping all
/// previously committed work. The returned circuit is always BDD-verified
/// equivalent to the input (when `verify_each_pass` is on).
///
/// # Errors
///
/// Returns [`ResynthError::Netlist`] only for invalid input circuits or
/// internal structural failures; never for interruptions.
pub fn resynthesize_with_budget(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    budget: &Budget,
) -> Result<ResynthReport, ResynthError> {
    commit::run(circuit, options, budget)
}

#[cfg(test)]
mod tests {
    use super::candidates::{removable_gates, Candidates};
    use super::*;
    use sft_netlist::bench_format::parse;

    /// A chain of 2-input ANDs is a comparison function; Procedure 2 should
    /// keep its cost (no regression) and Procedure 3 must not increase
    /// paths.
    #[test]
    fn and_chain_is_stable() {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(t1, c)\ny = AND(t2, d)\n";
        let mut c = parse(src, "chain").unwrap();
        let before = c.two_input_gate_count();
        let report = procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(report.gates_after <= before);
        assert!(report.paths_after <= report.paths_before);
    }

    /// A redundant double implementation of an XOR-style compare collapses:
    /// y = (a AND !b) OR (!a AND b) is the interval [1,2] and becomes a
    /// 3-eq2-gate comparison unit instead of 3 gates + 2 inverters... the
    /// gate count must not increase and function must hold.
    #[test]
    fn xor_sop_replaced_without_regression() {
        let src = "\
INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\n\
t1 = AND(a, nb)\nt2 = AND(na, b)\ny = OR(t1, t2)\n";
        let original = parse(src, "xor").unwrap();
        let mut c = original.clone();
        let report = procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(report.gates_after <= report.gates_before);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// An inefficient 2-of-2 detector: y = ab + ab(c + !c)-style padding
    /// reduces to a single AND.
    #[test]
    fn padded_and_collapses() {
        let src = "\
INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(b, a)\ny = OR(t1, t2)\n";
        let original = parse(src, "pad").unwrap();
        let mut c = original.clone();
        let report = procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(
            report.gates_after < report.gates_before,
            "redundant duplicate AND must collapse: {report}"
        );
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    #[test]
    fn procedure3_reduces_paths_on_wide_reconvergence() {
        // f = abc + ab!c has 6 paths as an SOP but is the single cube ab
        // (interval): paths drop to 2.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nnc = NOT(c)\n\
t1 = AND(a, b)\np1 = AND(t1, c)\np2 = AND(t1, nc)\ny = OR(p1, p2)\n";
        let original = parse(src, "recon").unwrap();
        let mut c = original.clone();
        let report = procedure3(&mut c, &ResynthOptions::default()).unwrap();
        assert!(report.paths_after < report.paths_before, "{report}");
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    #[test]
    fn function_preserved_on_c17() {
        let src = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";
        let original = parse(src, "c17").unwrap();
        for objective in [
            Objective::Gates,
            Objective::Paths,
            Objective::Combined { gate_weight: 1, path_weight: 1 },
        ] {
            let mut c = original.clone();
            let opts = ResynthOptions { objective, ..ResynthOptions::default() };
            let report = resynthesize(&mut c, &opts).unwrap();
            assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
            assert!(report.gates_after <= report.gates_before || objective == Objective::Paths);
        }
    }

    #[test]
    fn candidate_enumeration_respects_k() {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(c, d)\nt3 = AND(e, f)\nt4 = AND(t1, t2)\ny = AND(t4, t3)\n";
        let c = parse(src, "wide").unwrap();
        let y = c.outputs()[0];
        let mut candidates = Candidates::default();
        let opts = ResynthOptions { max_inputs: 4, ..ResynthOptions::default() };
        candidates.enumerate(&c, y, &opts);
        assert!((0..candidates.len()).all(|i| candidates.get(i).1.len() <= 4));
        // The single-gate candidate is present.
        assert!((0..candidates.len()).any(|i| candidates.get(i).0.len() == 1));
        // With K=6 the full cone is reachable.
        let opts6 = ResynthOptions { max_inputs: 6, ..ResynthOptions::default() };
        candidates.enumerate(&c, y, &opts6);
        assert!((0..candidates.len()).any(|i| candidates.get(i).0.len() == 5));
    }

    /// The set-based enumeration and removal fixpoint the flat-buffer
    /// versions replaced, kept as the reference they must reproduce.
    fn reference_candidates(
        c: &Circuit,
        g: sft_netlist::NodeId,
        opts: &ResynthOptions,
    ) -> Vec<(Vec<sft_netlist::NodeId>, Vec<sft_netlist::NodeId>)> {
        use std::collections::HashSet;
        let inputs_of = |gates: &[sft_netlist::NodeId]| {
            let mut inputs = Vec::new();
            for &x in gates {
                for &f in c.node(x).fanins() {
                    let constant = matches!(
                        c.node(f).kind(),
                        sft_netlist::GateKind::Const0 | sft_netlist::GateKind::Const1
                    );
                    if !constant && !gates.contains(&f) && !inputs.contains(&f) {
                        inputs.push(f);
                    }
                }
            }
            inputs
        };
        let mut seen = HashSet::from([vec![g]]);
        let mut result = Vec::new();
        let mut queue = vec![vec![g]];
        while let Some(gates) = queue.pop() {
            let inputs = inputs_of(&gates);
            if inputs.len() > opts.max_inputs || inputs.is_empty() {
                continue;
            }
            result.push((gates.clone(), inputs.clone()));
            if result.len() >= opts.max_candidates_per_gate {
                break;
            }
            for h in inputs {
                if c.node(h).kind().is_gate() {
                    let mut next = gates.clone();
                    next.push(h);
                    next.sort_unstable();
                    if seen.insert(next.clone()) {
                        queue.push(next);
                    }
                }
            }
        }
        result
    }

    fn reference_removable(
        g: sft_netlist::NodeId,
        cone: &[sft_netlist::NodeId],
        views: &sft_netlist::CircuitViews,
    ) -> Vec<sft_netlist::NodeId> {
        use std::collections::HashSet;
        let mut removable: HashSet<_> = cone.iter().copied().filter(|&x| x != g).collect();
        loop {
            let dead: Vec<_> = removable
                .iter()
                .copied()
                .filter(|&x| {
                    views.drives_output(x)
                        || views.fanout(x).iter().any(|&(c, _)| c != g && !removable.contains(&c))
                })
                .collect();
            if dead.is_empty() {
                break;
            }
            for x in dead {
                removable.remove(&x);
            }
        }
        let mut v: Vec<_> = removable.into_iter().chain([g]).collect();
        v.sort_unstable();
        v
    }

    /// Every gate of a few random circuits (one with constants inside its
    /// cones) yields the reference's candidates in the reference's order,
    /// under several input limits and candidate caps, and the reference's
    /// removable set for each of them.
    #[test]
    fn flat_enumeration_matches_set_based_reference() {
        use sft_circuits::random::{random_circuit, RandomCircuitConfig};
        let mut circuits: Vec<Circuit> = [3u64, 11, 29]
            .iter()
            .map(|&seed| {
                random_circuit(&RandomCircuitConfig {
                    inputs: 8,
                    outputs: 3,
                    gates: 60,
                    window: 12,
                    seed,
                })
            })
            .collect();
        circuits.push(
            parse(
                "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(t1)\nk = CONST1\n\
                 t1 = AND(a, k)\nt2 = OR(t1, b)\nt3 = NAND(t1, c, k)\ny = XOR(t2, t3)\n",
                "consts",
            )
            .unwrap(),
        );
        let mut candidates = Candidates::default();
        for mut c in circuits {
            c.enable_views();
            let gates: Vec<_> =
                c.iter().filter(|(_, n)| n.kind().is_gate()).map(|(id, _)| id).collect();
            for (max_inputs, max_candidates_per_gate) in [(3, 200), (5, 200), (6, 200), (5, 7)] {
                let opts =
                    ResynthOptions { max_inputs, max_candidates_per_gate, ..Default::default() };
                for &g in &gates {
                    let expected = reference_candidates(&c, g, &opts);
                    candidates.enumerate(&c, g, &opts);
                    let got: Vec<_> = (0..candidates.len())
                        .map(|i| {
                            let (gates, inputs) = candidates.get(i);
                            (gates.to_vec(), inputs.to_vec())
                        })
                        .collect();
                    assert_eq!(got, expected, "candidates of {g} at K={max_inputs}");
                    let views = c.views().unwrap();
                    for (cone, _) in &expected {
                        assert_eq!(
                            removable_gates(g, cone, views),
                            reference_removable(g, cone, views)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn removable_excludes_shared_gates() {
        // t1 fans out to y and z: replacing y's cone cannot remove t1.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
t1 = AND(a, b)\ny = OR(t1, c)\nz = NOT(t1)\n";
        let mut c = parse(src, "shared").unwrap();
        let y = c.outputs()[0];
        let t1 = c.iter().find(|(_, n)| n.name() == Some("t1")).map(|(id, _)| id).unwrap();
        c.enable_views();
        let mut cone = [y, t1];
        cone.sort_unstable();
        let removable = removable_gates(y, &cone, c.views().unwrap());
        assert!(!removable.contains(&t1), "shared gate must not be counted removable");
        assert!(removable.contains(&y));
    }

    /// Resynthesis leaves no residue on the circuit: views are detached and
    /// no transaction is open, on every exit path.
    #[test]
    fn run_leaves_circuit_without_views_or_transactions() {
        let mut c = budget_fixture();
        procedure2(&mut c, &ResynthOptions::default()).unwrap();
        assert!(c.views().is_none());
        assert!(!c.in_transaction());

        // Early-exit path: reference BDDs do not fit.
        let mut c = budget_fixture();
        let opts = ResynthOptions { verify_node_limit: 2, ..ResynthOptions::default() };
        resynthesize(&mut c, &opts).unwrap();
        assert!(c.views().is_none());
        assert!(!c.in_transaction());
    }

    #[test]
    fn dont_care_option_still_exact() {
        // With unreachable cone inputs, dc-identification may restructure
        // more aggressively; whole-circuit function must still hold.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
na = NOT(a)\nt1 = AND(a, na)\nt2 = OR(t1, b)\ny = AND(t2, c)\n";
        let original = parse(src, "dc").unwrap();
        let mut c = original.clone();
        let opts =
            ResynthOptions { use_satisfiability_dont_cares: true, ..ResynthOptions::default() };
        resynthesize(&mut c, &opts).unwrap();
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// Concluding remark 2: with multi-unit covers enabled, a cone that is
    /// not a comparison function (majority) can still be replaced by an OR
    /// of units when that helps; the function must be preserved and gates
    /// must not regress relative to the single-unit run.
    #[test]
    fn multi_unit_cover_extension() {
        // A deliberately wasteful majority implementation: the flat SOP of
        // maj(a,b,c) duplicated through buffers.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
t1 = AND(a, b)\nt2 = AND(a, c)\nt3 = AND(b, c)\no1 = OR(t1, t2)\ny = OR(o1, t3)\n";
        let original = parse(src, "maj").unwrap();
        let single = {
            let mut c = original.clone();
            procedure2(&mut c, &ResynthOptions::default()).unwrap();
            c
        };
        let multi = {
            let mut c = original.clone();
            let opts = ResynthOptions { max_cover_units: 3, ..ResynthOptions::default() };
            procedure2(&mut c, &opts).unwrap();
            c
        };
        assert!(sft_bdd::equivalent(&original, &multi).unwrap().is_equivalent());
        assert!(multi.two_input_gate_count() <= original.two_input_gate_count());
        // The extension can only widen the search space.
        assert!(multi.two_input_gate_count() <= single.two_input_gate_count());
    }

    /// The polarity extension finds replacements the plain procedure
    /// cannot: on-set {0, 3} over (b, c) inside a cone is a comparison
    /// function only after complementing one input.
    #[test]
    fn input_negation_extension_preserves_function() {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
nb = NOT(b)\nnc = NOT(c)\nt1 = AND(nb, nc)\nt2 = AND(b, c)\no = OR(t1, t2)\ny = AND(a, o)\n";
        let original = parse(src, "xnor_cone").unwrap();
        let mut c = original.clone();
        let opts = ResynthOptions { allow_input_negation: true, ..ResynthOptions::default() };
        procedure2(&mut c, &opts).unwrap();
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
        assert!(c.two_input_gate_count() <= original.two_input_gate_count());
    }

    #[test]
    fn report_display() {
        let r = ResynthReport {
            passes: 2,
            replacements: 3,
            gates_before: 10,
            gates_after: 8,
            paths_before: PathCount::exact(100),
            paths_after: PathCount::exact(60),
            stop_reason: StopReason::Converged,
            verify_nodes: 0,
        };
        assert_eq!(
            r.to_string(),
            "2 passes, 3 replacements: gates 10 -> 8, paths 100 -> 60 (converged)"
        );
    }

    /// The wasteful XOR SOP used by the budget acceptance tests: several
    /// passes of work are available, so interruptions can land mid-run.
    fn budget_fixture() -> Circuit {
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\n\
t1 = AND(a, nb)\nt2 = AND(na, b)\nx = OR(t1, t2)\n\
p1 = AND(x, c)\np2 = AND(c, x)\ny = OR(p1, p2)\n";
        parse(src, "budget_fixture").unwrap()
    }

    /// A pre-expired deadline stops before the first pass: `Ok` report with
    /// `Deadline`, zero passes, and the circuit untouched.
    #[test]
    fn pre_expired_deadline_returns_input_unchanged() {
        let original = budget_fixture();
        let mut c = original.clone();
        let budget = Budget::unlimited().with_time_limit(std::time::Duration::ZERO);
        let report = resynthesize_with_budget(&mut c, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::Deadline);
        assert_eq!(report.passes, 0);
        assert_eq!(report.replacements, 0);
        assert_eq!(report.gates_after, report.gates_before);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// A tiny step budget interrupts candidate scoring mid-pass; the pass
    /// rolls back, the report is `Ok` with `StepBudget`, and the circuit is
    /// still equivalent to the input.
    #[test]
    fn step_budget_interrupts_mid_pass_and_rolls_back() {
        let original = budget_fixture();
        let mut c = original.clone();
        let budget = Budget::unlimited().with_step_limit(3);
        let report = resynthesize_with_budget(&mut c, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::StepBudget, "{report}");
        assert_eq!(report.passes, 0, "an interrupted pass must not be counted");
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// A raised cancellation flag stops the run with `Cancelled` and the
    /// last committed circuit.
    #[test]
    fn cancellation_stops_the_run() {
        let original = budget_fixture();
        let mut c = original.clone();
        let flag = sft_budget::CancelFlag::new();
        flag.cancel();
        let budget = Budget::unlimited().with_cancel(flag);
        let report = resynthesize_with_budget(&mut c, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(report.stop_reason, StopReason::Cancelled);
        assert_eq!(report.passes, 0);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// A generous budget changes nothing: same result as the unbudgeted
    /// run, stop reason still a natural completion.
    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let mut unbudgeted = budget_fixture();
        let r1 = resynthesize(&mut unbudgeted, &ResynthOptions::default()).unwrap();
        let mut budgeted = budget_fixture();
        let budget = Budget::unlimited()
            .with_time_limit(std::time::Duration::from_secs(3600))
            .with_step_limit(1_000_000);
        let r2 =
            resynthesize_with_budget(&mut budgeted, &ResynthOptions::default(), &budget).unwrap();
        assert_eq!(r1, r2);
        assert!(!r2.stop_reason.is_early());
        assert!(sft_bdd::equivalent(&unbudgeted, &budgeted).unwrap().is_equivalent());
    }

    /// When even the reference BDDs do not fit the verification manager,
    /// the run returns the untouched circuit with `BddBlowup` instead of an
    /// error — the anytime contract holds all the way down.
    #[test]
    fn reference_blowup_returns_input_unchanged() {
        let original = budget_fixture();
        let mut c = original.clone();
        let opts = ResynthOptions { verify_node_limit: 2, ..ResynthOptions::default() };
        let report = resynthesize(&mut c, &opts).unwrap();
        assert_eq!(report.stop_reason, StopReason::BddBlowup);
        assert_eq!(report.passes, 0);
        assert!(sft_bdd::equivalent(&original, &c).unwrap().is_equivalent());
    }

    /// The headline acceptance test: verification blows up only after the
    /// first committed pass, and the run keeps that pass's work —
    /// `replacements > 0`, `stop_reason: BddBlowup`, circuit equivalent to
    /// the input and strictly better than it.
    #[test]
    fn pass2_blowup_keeps_pass1_work() {
        // A seeded reconvergent circuit known to improve over several
        // passes (later passes absorb the unit gates the earlier ones
        // created), so the cumulative verification manager keeps growing
        // after pass 1.
        let original =
            sft_circuits::random::random_circuit(&sft_circuits::random::RandomCircuitConfig {
                inputs: 12,
                outputs: 6,
                gates: 80,
                window: 24,
                seed: 1,
            });
        // With compaction off the verification manager only grows, so
        // `verify_nodes` of a prefix run is a floor for the full run's and
        // the one-node-short limit below lands in a later pass.
        let base = ResynthOptions { compact_verifier: false, ..ResynthOptions::default() };
        let full = {
            let mut c = original.clone();
            resynthesize(&mut c, &base).unwrap()
        };
        let pass1 = {
            let mut c = original.clone();
            let opts = ResynthOptions { max_passes: 1, ..base.clone() };
            resynthesize(&mut c, &opts).unwrap()
        };
        assert!(full.passes >= 2, "fixture must take at least two passes: {full}");
        assert!(
            full.replacements > pass1.replacements,
            "later passes must do real work: {pass1} vs {full}"
        );
        // One node short of the full run's verification demand: the run
        // replays identically until the last allocating pass, whose
        // verification now blows up and rolls back.
        let limit = full.verify_nodes - 1;
        assert!(
            limit >= pass1.verify_nodes,
            "pass-1 verification must fit under the injected limit"
        );
        let mut c = original.clone();
        let opts = ResynthOptions { verify_node_limit: limit, ..base };
        let report = resynthesize(&mut c, &opts).unwrap();
        assert_eq!(report.stop_reason, StopReason::BddBlowup, "{report}");
        assert!(report.passes >= 1, "pass-1 commit must survive the blowup: {report}");
        assert!(report.replacements > 0, "pass-1 work must be kept: {report}");
        assert!(
            sft_bdd::equivalent(&original, &c).unwrap().is_equivalent(),
            "rollback must preserve the function"
        );
        assert!(
            c.two_input_gate_count() < original.two_input_gate_count(),
            "kept work must improve on the input"
        );
    }

    /// The tentpole invariant: P-class memoization and rejection replay are
    /// pure accelerations. On the bundled suite and on a multi-pass fixture
    /// that exercises the skip path, the final netlist and the report are
    /// bit-identical to a cold, fully re-scored run.
    #[test]
    fn memo_and_incremental_rescoring_match_full_rewalk() {
        let fast = ResynthOptions { max_candidates_per_gate: 60, ..ResynthOptions::default() };
        let slow = ResynthOptions {
            memoize_identification: false,
            incremental_rescoring: false,
            ..fast.clone()
        };
        let multi_pass =
            sft_circuits::random::random_circuit(&sft_circuits::random::RandomCircuitConfig {
                inputs: 12,
                outputs: 6,
                gates: 80,
                window: 24,
                seed: 1,
            });
        let mut circuits: Vec<Circuit> =
            sft_circuits::suite::suite_small().into_iter().map(|e| e.circuit).collect();
        circuits.push(multi_pass);
        for original in circuits {
            let mut a = original.clone();
            let mut b = original.clone();
            let ra = resynthesize(&mut a, &fast).unwrap();
            let rb = resynthesize(&mut b, &slow).unwrap();
            assert_eq!(ra, rb, "{}: reports must match", original.name());
            assert_eq!(a, b, "{}: netlists must be bit-identical", original.name());
        }
    }

    /// Compacting the verification manager between passes changes neither
    /// the result nor the decisions, and its peak node count never exceeds
    /// the monotone (uncompacted) manager's.
    #[test]
    fn verifier_compaction_is_transparent_and_bounded() {
        let original =
            sft_circuits::random::random_circuit(&sft_circuits::random::RandomCircuitConfig {
                inputs: 12,
                outputs: 6,
                gates: 80,
                window: 24,
                seed: 1,
            });
        let compacted_opts = ResynthOptions { compact_verifier: true, ..ResynthOptions::default() };
        let monotone_opts = ResynthOptions { compact_verifier: false, ..ResynthOptions::default() };
        let mut compacted = original.clone();
        let rc = resynthesize(&mut compacted, &compacted_opts).unwrap();
        let mut monotone = original.clone();
        let rm = resynthesize(&mut monotone, &monotone_opts).unwrap();
        assert!(rc.passes >= 2, "fixture must take at least two passes: {rc}");
        assert_eq!(compacted, monotone, "compaction must not change the netlist");
        assert_eq!((rc.passes, rc.replacements), (rm.passes, rm.replacements));
        assert_eq!((rc.gates_after, rc.paths_after), (rm.gates_after, rm.paths_after));
        assert!(
            rc.verify_nodes <= rm.verify_nodes,
            "compacted peak {} must not exceed monotone peak {}",
            rc.verify_nodes,
            rm.verify_nodes
        );
    }
}
