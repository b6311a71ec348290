//! The transition (gate-delay) fault model.
//!
//! A transition fault is a gross delay lumped at one line: `slow-to-rise`
//! or `slow-to-fall`. A two-pattern pair `<v1, v2>` detects it iff the
//! line has the corresponding transition and the line's *stuck-at* fault at
//! the initial value is detected by `v2` (the classical reduction of
//! transition-fault testing to stuck-at testing with a launch condition).
//!
//! The paper works with the strictly more expressive path delay fault
//! model; transition faults are provided as the cheaper industrial
//! companion metric — their count is linear in the circuit size, so they
//! survive resynthesis comparisons even when paths cannot be enumerated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sft_netlist::{Circuit, GateKind, NodeId};
use sft_sim::{Fault, FaultSim, FaultSimTables};
use std::fmt;

/// A transition fault on a stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// The affected line.
    pub line: NodeId,
    /// `true` = slow-to-rise (needs a rising transition), `false` =
    /// slow-to-fall.
    pub slow_to_rise: bool,
}

impl fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} slow-to-{}", self.line, if self.slow_to_rise { "rise" } else { "fall" })
    }
}

/// All stem transition faults of the live logic (two per line).
pub fn transition_fault_list(circuit: &Circuit) -> Vec<TransitionFault> {
    let live = circuit.live_mask();
    circuit
        .iter()
        .filter(|(id, n)| {
            live[id.index()] && !matches!(n.kind(), GateKind::Const0 | GateKind::Const1)
        })
        .flat_map(|(id, _)| {
            [
                TransitionFault { line: id, slow_to_rise: true },
                TransitionFault { line: id, slow_to_rise: false },
            ]
        })
        .collect()
}

/// Result of a random two-pattern transition-fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionCampaignResult {
    /// Total transition faults.
    pub total_faults: usize,
    /// Faults detected.
    pub detected: usize,
    /// Pairs applied.
    pub pairs_applied: u64,
}

impl TransitionCampaignResult {
    /// Coverage in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Runs a random two-pattern transition-fault campaign: for each pair, a
/// fault `slow-to-rise on ℓ` is detected iff `v1` sets `ℓ` to 0, `v2` sets
/// it to 1, and `ℓ s-a-0` is detected by `v2` (dually for slow-to-fall).
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn transition_campaign(
    circuit: &Circuit,
    max_pairs: u64,
    seed: u64,
) -> TransitionCampaignResult {
    let faults = transition_fault_list(circuit);
    let tables = FaultSimTables::snapshot(circuit);
    let mut fsim = FaultSim::new(circuit);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = circuit.inputs().len();
    let mut detected = vec![false; faults.len()];
    let mut total_detected = 0usize;
    let mut applied = 0u64;
    let mut v1 = vec![0u64; n];
    let mut v2 = vec![0u64; n];
    let mut launch_values = Vec::new();

    // The stuck-at faults underlying each transition fault.
    let stuck: Vec<Fault> = faults.iter().map(|t| Fault::stem(t.line, !t.slow_to_rise)).collect();

    while applied < max_pairs && total_detected < faults.len() {
        let block = (max_pairs - applied).min(64);
        for i in 0..n {
            v1[i] = rng.gen();
            v2[i] = rng.gen();
        }
        tables.soa().eval_into(&v1, &mut launch_values);
        // Detection of the underlying stuck-at faults by v2, per pair bit.
        // detect_block gives the FIRST detecting bit only, so iterate: any
        // detecting bit where the launch condition also holds counts. To
        // stay exact we re-query per fault with the launch mask applied:
        // the launch condition is a per-bit mask; a fault is detected if
        // its stuck-at diff mask intersects the launch mask. detect_block
        // only exposes the first bit, so run it on the masked subset by
        // checking that first bit, then falling back to a per-fault scan
        // over the remaining bits via repeated calls is wasteful — instead
        // we exploit that stuck-at detection of `ℓ s-a-v` by a vector only
        // depends on that vector: the set of detecting bits is exactly the
        // diff mask. We recover the full mask by injecting the fault once.
        let alive: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
        let alive_stuck: Vec<Fault> = alive.iter().map(|&i| stuck[i]).collect();
        let masks = fsim.detect_masks(&alive_stuck, &v2);
        for (slot, &fi) in alive.iter().enumerate() {
            let t = faults[fi];
            let lv = launch_values[t.line.index()];
            // Launch: v1 value is the pre-transition value.
            let launch_mask = if t.slow_to_rise { !lv } else { lv };
            let usable = masks[slot] & launch_mask & mask_low(block);
            if usable != 0 {
                detected[fi] = true;
                total_detected += 1;
            }
        }
        applied += block;
    }

    TransitionCampaignResult {
        total_faults: faults.len(),
        detected: total_detected,
        pairs_applied: applied,
    }
}

fn mask_low(bits: u64) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_netlist::bench_format::parse;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    #[test]
    fn c17_fully_transition_testable() {
        let c = parse(C17, "c17").unwrap();
        let r = transition_campaign(&c, 1 << 13, 3);
        // c17 is fully testable for stuck-at faults and every line can make
        // both transitions, so coverage saturates.
        assert_eq!(r.detected, r.total_faults, "{r:?}");
    }

    #[test]
    fn redundant_stuck_at_blocks_transition() {
        // t s-a-0 redundant => t slow-to-rise undetectable.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n";
        let c = parse(src, "abs").unwrap();
        let r = transition_campaign(&c, 1 << 12, 7);
        assert!(r.detected < r.total_faults);
    }

    #[test]
    fn deterministic() {
        let c = parse(C17, "c17").unwrap();
        let a = transition_campaign(&c, 512, 9);
        let b = transition_campaign(&c, 512, 9);
        assert_eq!(a, b);
    }

    /// Cross-check against a brute-force per-pair evaluation on a small
    /// circuit: simulate v1 and v2 independently and apply the definition.
    #[test]
    fn agrees_with_definition() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        let c = parse(src, "and").unwrap();
        let faults = transition_fault_list(&c);
        // Exhaust all 16 pairs.
        let mut covered = vec![false; faults.len()];
        for p1 in 0..4u64 {
            for p2 in 0..4u64 {
                let v1 = vec![p1 & 1, p1 >> 1 & 1];
                let v2 = vec![p2 & 1, p2 >> 1 & 1];
                let tables = FaultSimTables::snapshot(&c);
                let (mut launch, mut capture) = (Vec::new(), Vec::new());
                tables.soa().eval_into(&v1, &mut launch);
                tables.soa().eval_into(&v2, &mut capture);
                let mut fsim = FaultSim::new(&c);
                for (fi, t) in faults.iter().enumerate() {
                    let lv = launch[t.line.index()] & 1 == 1;
                    let cv = capture[t.line.index()] & 1 == 1;
                    let transitions = t.slow_to_rise && !lv && cv || !t.slow_to_rise && lv && !cv;
                    let sa = Fault::stem(t.line, !t.slow_to_rise);
                    let det = fsim.detect_block(&[sa], &v2)[0] == Some(0);
                    if transitions && det {
                        covered[fi] = true;
                    }
                }
            }
        }
        // The campaign with enough random pairs finds exactly the same set.
        let r = transition_campaign(&c, 4096, 5);
        assert_eq!(r.detected, covered.iter().filter(|&&x| x).count());
    }
}
