//! Non-enumerative robust path counting (the method of \[8\] the paper
//! builds on — Pomeranz & Reddy, ICCAD 1992).
//!
//! For a single two-pattern pair, the number of path delay faults the pair
//! robustly tests can be computed **without enumerating paths**: label
//! every line with the number of robustly-sensitized partial paths from a
//! transitioning primary input, exactly like Procedure 1 labels lines with
//! path counts, but restricted to the robustly-sensitized edge subgraph.
//! The sum over the primary outputs is the exact per-pair detection count.
//!
//! This is what makes the path-count reductions of Procedures 2 and 3
//! directly meaningful for circuits whose paths cannot be enumerated (the
//! paper's irs15850 has 23 million): coverage analysis stays linear in the
//! circuit size per pattern pair.
//!
//! Per-pair counts cannot simply be summed across pairs (a fault detected
//! twice would be double-counted — the limitation \[8\] engineers around).
//! [`crate::pdf_campaign`] keeps the exact cumulative count instead: one
//! bit per path delay fault, set by a walk over the same sensitized
//! subgraph that prunes at every zero mask, so it too never lists paths.
//! The bitmap is what caps it: two bits per path, up to
//! [`crate::PdfCampaignConfig::path_limit`] paths.

use crate::robust::RobustAnalysis;
use crate::twopattern::LineWaves;
use sft_netlist::{Circuit, GateKind};

/// The number of path delay faults robustly tested by pattern-pair `bit`
/// of a simulated block — computed non-enumeratively in `O(lines)`.
///
/// `waves` and `analysis` must come from the same simulation of `circuit`.
///
/// # Panics
///
/// Panics if the circuit is cyclic, `waves.len() != circuit.len()`, or
/// `bit >= 64`.
pub fn robust_count_for_pair(
    circuit: &Circuit,
    waves: &[LineWaves],
    analysis: &RobustAnalysis,
    bit: u32,
) -> u128 {
    assert_eq!(waves.len(), circuit.len(), "wave vector size mismatch");
    assert!(bit < 64, "pair index out of range");
    let mask = 1u64 << bit;
    let order = circuit.topo_order().expect("combinational circuit");
    let mut labels = vec![0u128; circuit.len()];
    for id in order {
        let node = circuit.node(id);
        labels[id.index()] = match node.kind() {
            GateKind::Input => {
                // A clean transition at the PI launches one partial path.
                u128::from(
                    waves[id.index()].transition() & waves[id.index()].glitch_free & mask != 0,
                )
            }
            GateKind::Const0 | GateKind::Const1 => 0,
            _ => node
                .fanins()
                .iter()
                .enumerate()
                .filter(|&(pin, _)| analysis.pin_mask(id, pin as u8) & mask != 0)
                .fold(0u128, |acc, (_, f)| acc.saturating_add(labels[f.index()])),
        };
    }
    circuit.outputs().iter().fold(0u128, |acc, o| acc.saturating_add(labels[o.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_paths, robust_detection_masks, TwoPatternSim};
    use sft_netlist::bench_format::parse;

    /// Cross-validation: the non-enumerative count equals the number of
    /// paths the per-path `path_masks` fold marks detected, for every pair
    /// of a random block, on several circuits.
    #[test]
    fn matches_enumerative_count() {
        let sources = [
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = OR(b, c)\ny = AND(a, t)\n",
            "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        ];
        for (ci, src) in sources.iter().enumerate() {
            let c = parse(src, format!("c{ci}")).unwrap();
            let paths = enumerate_paths(&c, 10_000).unwrap();
            let sim = TwoPatternSim::new(&c);
            // A deterministic pseudo-random block.
            let n = c.inputs().len();
            let v1: Vec<u64> =
                (0..n as u64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)).collect();
            let v2: Vec<u64> =
                (0..n as u64).map(|i| 0xbf58_476d_1ce4_e5b9u64.wrapping_mul(i + 3)).collect();
            let waves = sim.simulate(&v1, &v2);
            let analysis = robust_detection_masks(&c, &waves);
            for bit in 0..64u32 {
                let fast = robust_count_for_pair(&c, &waves, &analysis, bit);
                let slow: u128 = paths
                    .iter()
                    .map(|p| {
                        let (r, f) = analysis.path_masks(&waves, &p);
                        u128::from((r | f) >> bit & 1)
                    })
                    .sum();
                assert_eq!(fast, slow, "circuit {ci} pair {bit}");
            }
        }
    }

    /// On a circuit with an astronomically large path count, the
    /// non-enumerative count still runs (and is bounded by the total).
    #[test]
    fn scales_past_enumeration() {
        // 24 doubling stages: 2^24 paths — too many to enumerate here.
        let mut src = String::from("INPUT(a)\nOUTPUT(y24)\n");
        src.push_str("y0 = BUF(a)\n");
        for i in 0..24 {
            src.push_str(&format!(
                "l{i} = BUF(y{i})\nr{i} = NOT(y{i})\ny{} = OR(l{i}, r{i})\n",
                i + 1
            ));
        }
        let c = parse(&src, "wide").unwrap();
        assert_eq!(c.path_count(), 1 << 24);
        let sim = TwoPatternSim::new(&c);
        let waves = sim.simulate(&[0], &[u64::MAX]);
        let analysis = robust_detection_masks(&c, &waves);
        let count = robust_count_for_pair(&c, &waves, &analysis, 0);
        assert!(count <= 1 << 24);
    }
}
