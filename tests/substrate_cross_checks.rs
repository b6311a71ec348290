//! Cross-validation between independent substrates: each pair of engines
//! must agree on the quantities they both compute.

use sft::atpg::{generate_test, generate_test_set, TestResult, TestSetOptions};
use sft::bdd::{circuit_bdds, Manager};
use sft::circuits::builders;
use sft::delay::{enumerate_paths, robust_count_for_pair, robust_detection_masks, TwoPatternSim};
use sft::netlist::{Circuit, GateKind};
use sft::sim::{campaign, fault_list, CampaignConfig};
use sft::truth::TruthTable;

/// PODEM and exhaustive random simulation agree on which faults are
/// detectable in a fully exercisable circuit.
#[test]
fn podem_agrees_with_saturating_campaign() {
    let c = builders::ripple_carry_adder(4); // 9 inputs: 512 patterns saturate
    let faults = fault_list(&c);
    let r = campaign(
        &c,
        &faults,
        &CampaignConfig { max_patterns: 1 << 15, plateau: 0, seed: 1, ..Default::default() },
    );
    for (fault, det) in faults.iter().zip(&r.detection_pattern) {
        let podem = generate_test(&c, *fault, 100_000);
        match (det, &podem) {
            (Some(_), TestResult::Test(_)) => {}
            (None, TestResult::Untestable) => {}
            other => panic!("fault {fault}: campaign vs PODEM disagree: {other:?}"),
        }
    }
}

/// The 6 faults the Table-6 campaign leaves undetected on `irs_h`
/// (coverage 0.9922 at 65,536 patterns) are all **testable but
/// random-pattern-resistant**: PODEM finds a test for every one (none is
/// redundant — consistent with the suite preparation having already
/// removed redundancies), so the residual coverage gap is a property of
/// the pattern budget, not of the circuit. Each PODEM test is
/// cross-checked in the fault simulator. Recorded in EXPERIMENTS.md. (The
/// same campaign is pinned against the test-only oracle engine in
/// `sft-sim`.)
#[test]
fn irs_h_undetected_faults_are_random_resistant_not_redundant() {
    let entry = sft::circuits::suite()
        .into_iter()
        .find(|e| e.name == "irs_h")
        .expect("irs_h is in the suite");
    let faults = fault_list(&entry.circuit);
    let r = campaign(
        &entry.circuit,
        &faults,
        &CampaignConfig { max_patterns: 1 << 16, plateau: 0, seed: 0x5f7, ..Default::default() },
    );
    let undetected: Vec<_> = faults
        .iter()
        .zip(&r.detection_pattern)
        .filter(|(_, det)| det.is_none())
        .map(|(f, _)| *f)
        .collect();
    assert_eq!(undetected.len(), 6, "the Table-6 residue must be stable");
    let mut fsim = sft::sim::FaultSim::new(&entry.circuit);
    for fault in undetected {
        let TestResult::Test(assignment) = generate_test(&entry.circuit, fault, 2_000_000) else {
            panic!("undetected fault {fault} must be testable (random-resistant), not redundant");
        };
        // Cross-substrate check: the PODEM vector really detects the fault
        // under parallel-pattern fault simulation.
        let words: Vec<u64> = assignment.iter().map(|&bit| if bit { !0u64 } else { 0 }).collect();
        let masks = fsim.detect_masks(&[fault], &words);
        assert_ne!(masks[0] & 1, 0, "PODEM test for {fault} must detect it in the simulator");
    }
}

/// BDD satisfy counts agree with truth-table on-set sizes for every output
/// of structural circuits.
#[test]
fn bdd_sat_count_agrees_with_truth_tables() {
    let c = builders::comparator(3); // 6 inputs
    let mut manager = Manager::new();
    let outputs = circuit_bdds(&mut manager, &c).unwrap();
    for (slot, &f) in outputs.iter().enumerate() {
        let table = TruthTable::from_fn(6, |m| {
            let assignment: Vec<bool> = (0..6).map(|i| m >> (5 - i) & 1 == 1).collect();
            c.eval_assignment(&assignment)[slot]
        });
        // Input i maps to BDD variable i; the truth-table MSB convention
        // reverses bit order, which sat_count does not care about.
        assert_eq!(manager.sat_count(f, 6), u128::from(table.on_count()), "output {slot}");
    }
}

/// The generated compact test set achieves exactly the campaign's
/// saturated coverage on an exhaustively-coverable circuit.
#[test]
fn test_set_matches_saturated_coverage() {
    let c = builders::mux_tree(3); // 11 inputs
    let set = generate_test_set(&c, &TestSetOptions::default());
    assert_eq!(set.aborted, 0);
    let faults = fault_list(&c);
    let r = campaign(
        &c,
        &faults,
        &CampaignConfig { max_patterns: 1 << 17, plateau: 0, seed: 9, ..Default::default() },
    );
    // Campaign leaves exactly the redundant faults; test set targets the
    // rest deterministically.
    assert_eq!(r.remaining(), set.redundant, "redundant fault counts must agree");
}

/// The non-enumerative robust PDF count equals the enumerative count on a
/// structural circuit, for many random pairs.
#[test]
fn nonenumerative_pdf_count_agrees_on_adder() {
    let c = builders::ripple_carry_adder(3);
    let paths = enumerate_paths(&c, 100_000).unwrap();
    let sim = TwoPatternSim::new(&c);
    let n = c.inputs().len();
    let v1: Vec<u64> =
        (0..n as u64).map(|i| 0xa076_1d64_78bd_642fu64.wrapping_mul(i + 1)).collect();
    let v2: Vec<u64> =
        (0..n as u64).map(|i| 0xe703_7ed1_a0b4_28dbu64.wrapping_mul(i + 5)).collect();
    let waves = sim.simulate(&v1, &v2);
    let analysis = robust_detection_masks(&c, &waves);
    for bit in 0..64 {
        let fast = robust_count_for_pair(&c, &waves, &analysis, bit);
        let slow: u128 = paths
            .iter()
            .map(|p| {
                let (r, f) = analysis.path_masks(&waves, &p);
                u128::from((r | f) >> bit & 1)
            })
            .sum();
        assert_eq!(fast, slow, "pair {bit}");
    }
}

/// Procedure-1 path labels are consistent with explicit enumeration on
/// every structural builder circuit small enough to enumerate.
#[test]
fn path_count_matches_enumeration_on_builders() {
    for c in [
        builders::ripple_carry_adder(5),
        builders::comparator(5),
        builders::mux_tree(3),
        builders::decoder(3),
        builders::parity_tree(8),
        builders::alu_slice(),
    ] {
        let counted = c.path_count();
        let enumerated = enumerate_paths(&c, 1 << 22).unwrap().len() as u128;
        assert_eq!(counted, enumerated, "{}", c.name());
    }
}

/// Equivalent 2-input gate counting is invariant under chain merging
/// (a k-input gate costs exactly what its 2-input decomposition costs).
#[test]
fn eq2_invariant_under_chain_merging() {
    let mut wide = Circuit::new("wide");
    let ins: Vec<_> = (0..6).map(|i| wide.add_input(format!("i{i}"))).collect();
    let g = wide.add_gate(GateKind::And, ins.clone()).unwrap();
    wide.add_output(g, "y");

    let mut tree = Circuit::new("tree");
    let ins: Vec<_> = (0..6).map(|i| tree.add_input(format!("i{i}"))).collect();
    let mut layer = ins;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(tree.add_gate(GateKind::And, vec![pair[0], pair[1]]).unwrap());
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    tree.add_output(layer[0], "y");
    assert_eq!(wide.two_input_gate_count(), tree.two_input_gate_count());
    assert!(sft::bdd::equivalent(&wide, &tree).unwrap().is_equivalent());
}
