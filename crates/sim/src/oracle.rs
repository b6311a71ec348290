//! Test-only reference engines the production ctrace engine is pinned
//! against.
//!
//! - **The explicit per-fault propagation engine** (`detect_masks_wide`).
//!   Each fault's effect is computed at its site and walked up its
//!   fanout-free region (FFR) gate by gate until it reaches the FFR root.
//!   The deviation at the root is then ANDed with the root's full-flip
//!   observability: one event-driven propagation of a complete flip
//!   through the root's fanout cone (the strategy of FSIM \[17\]), cached
//!   per block and shared by all faults on that root. Below
//!   [`OBS_SHARE_MIN`] live faults per root the engine propagates the
//!   fault's actual deviation instead, which is the exact detection mask
//!   directly. It shares the per-block prologue (good-machine sweep) and
//!   the fault-site deviation with the ctrace engine, and nothing past the
//!   fault site; brute-force faulty-machine simulation in `fsim.rs`'s
//!   tests checks the shared part.
//! - **A serial 64-bit reference campaign** (`reference_campaign`): one
//!   pattern block at a time, faults dropped after every block, the same
//!   seeded pattern stream, first-detection accounting and plateau rule as
//!   [`campaign`](crate::campaign), but none of its 256-bit striding,
//!   fault slicing or parallel merge.
//!
//! The identity tests at the end of this module compare the production
//! engine and campaign driver with both references, mask by mask and
//! result by result.

use crate::campaign::{CampaignConfig, CampaignResult};
use crate::fsim::{FaultSimTables, WideFaultSim};
use crate::soa::{eval_gate, SoaCircuit, NONE};
use crate::word::SimWord;
use crate::{pattern_block, Fault};
use sft_netlist::Circuit;
use std::cmp::Reverse;
use std::sync::Arc;

/// Minimum number of live faults on one FFR root before the cached
/// full-flip observability beats per-fault deviation propagation. Below
/// this, surviving faults are usually hard ones whose deviations die within
/// a few gates, while a full flip sweeps the whole downstream cone.
pub(crate) const OBS_SHARE_MIN: u32 = 6;

impl<W: SimWord> WideFaultSim<W> {
    /// The explicit engine: per-fault FFR walk, then full-flip or
    /// actual-deviation propagation per root.
    pub(crate) fn detect_masks_wide(&mut self, faults: &[Fault], input_words: &[W]) -> Vec<W> {
        let tables = Arc::clone(self.tables());
        let soa = &tables.soa;
        self.begin_block(soa, faults, input_words);
        let mut results = Vec::with_capacity(faults.len());
        for fault in faults {
            // Phase 1: the deviation the fault causes at its own site.
            let (mut node, mut dev) = self.site_deviation(soa, fault);
            // Walk the deviation up the fanout-free chain to the root.
            while !dev.is_zero() {
                let head = soa.ffr_head[node as usize];
                if head == NONE {
                    break;
                }
                let h = head as usize;
                let flipped = node;
                let out = eval_gate(soa.kinds[h], soa.fanin_slice(h), |_, f| {
                    let v = self.good[f as usize];
                    if f == flipped {
                        v.xor(dev)
                    } else {
                        v
                    }
                });
                dev = out.xor(self.good[h]);
                node = head;
            }
            // Phase 2: detection = deviation at the root gated by the
            // root's observability. Reuse the cached full-flip mask when it
            // exists (or enough live faults share the root to amortise it);
            // otherwise propagating the actual deviation is the detection
            // mask directly, and dies as early as the deviation does.
            let detected = if dev.is_zero() {
                W::ZERO
            } else {
                let r = node as usize;
                if self.obs_epoch[r] == self.epoch {
                    dev.and(self.obs[r])
                } else if self.root_share[r] >= OBS_SHARE_MIN {
                    dev.and(self.stem_obs(soa, node))
                } else {
                    self.propagate_deviation(soa, node, dev)
                }
            };
            results.push(detected);
        }
        self.end_block();
        results
    }

    /// The per-pattern mask of outputs observing a flip of `root`, computed
    /// by one event-driven propagation of the full flip and cached for the
    /// current block.
    fn stem_obs(&mut self, soa: &SoaCircuit, root: u32) -> W {
        let r = root as usize;
        if self.obs_epoch[r] == self.epoch {
            return self.obs[r];
        }
        let detected = self.propagate_deviation(soa, root, W::ONES);
        self.obs[r] = detected;
        self.obs_epoch[r] = self.epoch;
        detected
    }

    /// Event-propagates a deviation of `dev` at `root` through its fanout
    /// cone and returns the per-pattern mask of outputs that change — the
    /// exact detection mask of any fault producing `dev` at `root`. With
    /// `dev = ONES` this is the root's full-flip observability.
    fn propagate_deviation(&mut self, soa: &SoaCircuit, root: u32, dev: W) -> W {
        let r = root as usize;
        let mut detected = W::ZERO;
        self.faulty[r] = self.good[r].xor(dev);
        self.deviated[r] = true;
        self.dirty.push(root);
        if soa.output_mask[r] {
            detected = dev;
        }
        for &g in soa.fanout_slice(r) {
            self.heap.push(Reverse((soa.topo_pos[g as usize], g)));
        }
        // Propagate events in topological order.
        while let Some(Reverse((_, id))) = self.heap.pop() {
            let i = id as usize;
            // Deduplicate: a node may be queued via several fanins.
            if self.deviated[i] {
                continue;
            }
            let v = eval_gate(soa.kinds[i], soa.fanin_slice(i), |_, f| {
                let fi = f as usize;
                if self.deviated[fi] {
                    self.faulty[fi]
                } else {
                    self.good[fi]
                }
            });
            if v == self.good[i] {
                continue;
            }
            self.faulty[i] = v;
            self.deviated[i] = true;
            self.dirty.push(id);
            if soa.output_mask[i] {
                detected = detected.or(v.xor(self.good[i]));
            }
            for &g in soa.fanout_slice(i) {
                self.heap.push(Reverse((soa.topo_pos[g as usize], g)));
            }
        }
        for id in self.dirty.drain(..) {
            self.deviated[id as usize] = false;
        }
        detected
    }
}

/// Runs the serial 64-bit reference campaign, resolving each block's
/// detection masks through `detect`.
pub(crate) fn reference_campaign(
    circuit: &Circuit,
    faults: &[Fault],
    config: &CampaignConfig,
    mut detect: impl FnMut(&mut WideFaultSim<u64>, &[Fault], &[u64]) -> Vec<u64>,
) -> CampaignResult {
    let mut fsim = WideFaultSim::<u64>::with_tables(Arc::new(FaultSimTables::new(circuit)));
    let num_inputs = circuit.inputs().len();
    let mut detection: Vec<Option<u64>> = vec![None; faults.len()];
    let mut alive: Vec<usize> = (0..faults.len()).collect();
    let mut last_effective: Option<u64> = None;
    let mut applied = 0u64;
    let mut block = 0u64;
    while applied < config.max_patterns && !alive.is_empty() {
        let size = (config.max_patterns - applied).min(64);
        let keep = if size < 64 { (1u64 << size) - 1 } else { u64::MAX };
        let live: Vec<Fault> = alive.iter().map(|&i| faults[i]).collect();
        let masks = detect(&mut fsim, &live, &pattern_block(config.seed, block, num_inputs));
        for (&fi, mask) in alive.iter().zip(masks) {
            let mask = mask & keep;
            if mask != 0 {
                let pattern = applied + u64::from(mask.trailing_zeros());
                detection[fi] = Some(pattern);
                last_effective = Some(last_effective.map_or(pattern, |l| l.max(pattern)));
            }
        }
        alive.retain(|&fi| detection[fi].is_none());
        applied += size;
        block += 1;
        let plateaued = config.plateau > 0
            && match last_effective {
                Some(last) => applied - last > config.plateau,
                None => applied > config.plateau,
            };
        if plateaued {
            break;
        }
    }
    CampaignResult {
        total_faults: faults.len(),
        detected: detection.iter().filter(|d| d.is_some()).count(),
        detection_pattern: detection,
        last_effective_pattern: last_effective,
        patterns_applied: applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::W256;
    use crate::{campaign, fault_list};
    use sft_circuits::random::{random_circuit, RandomCircuitConfig};
    use sft_netlist::bench_format::parse;
    use sft_par::Jobs;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    /// Masks of the ctrace engine and the oracle over `blocks` seeded
    /// blocks, at u64 and in one 256-bit sweep, must agree bit for bit.
    fn assert_masks_match_oracle(c: &Circuit, seed: u64, blocks: u64, tag: &str) {
        let faults = fault_list(c);
        let tables = Arc::new(FaultSimTables::new(c));
        let mut oracle = WideFaultSim::<u64>::with_tables(Arc::clone(&tables));
        let mut ctrace = WideFaultSim::<u64>::with_tables(Arc::clone(&tables));
        let num_inputs = c.inputs().len();
        for block in 0..blocks {
            let words = pattern_block(seed, block, num_inputs);
            assert_eq!(
                oracle.detect_masks_wide(&faults, &words),
                ctrace.detect_masks(&faults, &words),
                "{tag} block {block}"
            );
        }
        let mut oracle256 = WideFaultSim::<W256>::with_tables(Arc::clone(&tables));
        let mut ctrace256 = WideFaultSim::<W256>::with_tables(tables);
        let lanes: Vec<Vec<u64>> =
            (0..W256::LANES as u64).map(|b| pattern_block(seed, b, num_inputs)).collect();
        let inputs: Vec<W256> =
            (0..num_inputs).map(|i| W256::from_lanes(|l| lanes[l][i])).collect();
        assert_eq!(
            oracle256.detect_masks_wide(&faults, &inputs),
            ctrace256.detect_masks(&faults, &inputs),
            "{tag} wide word"
        );
    }

    /// The core bit-identity contract: for every fault and every pattern,
    /// the ctrace engine's detection mask equals the oracle's, at u64 and
    /// at the campaign word width, across several blocks (so the per-block
    /// caches are exercised repeatedly).
    #[test]
    fn ctrace_masks_are_bit_identical_to_oracle() {
        assert_masks_match_oracle(&parse(C17, "c17").unwrap(), 0xC17, 4, "c17");
        for seed in [1u64, 9, 33, 77] {
            let c = random_circuit(&RandomCircuitConfig {
                inputs: 16,
                outputs: 8,
                gates: 220,
                window: 24, // deep: long stem chains, real dominator regions
                seed,
            });
            assert_masks_match_oracle(&c, 0xC0FFEE ^ seed, 6, &format!("seed {seed}"));
        }
    }

    /// XOR checksum trees: the stitched shape where stems chain through
    /// dominators — the regime the shortcut exists for.
    #[test]
    fn ctrace_matches_oracle_on_stitched_checksum_trees() {
        let c = sft_circuits::gen::stitched(
            6,
            &RandomCircuitConfig { inputs: 10, outputs: 4, gates: 80, window: 12, seed: 2 },
        );
        assert_masks_match_oracle(&c, 0x57AB, 4, "stitched");
    }

    /// Campaign results — detection indices, effective-pattern statistic,
    /// plateau stop — equal the serial 64-bit oracle campaign at 1 and N
    /// threads.
    #[test]
    fn campaign_matches_oracle_at_any_thread_count() {
        let c = random_circuit(&RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates: 120,
            window: 18,
            seed: 5,
        });
        let faults = fault_list(&c);
        for (max_patterns, plateau) in [(2048, 0), (1 << 14, 256), (100, 0)] {
            let config = CampaignConfig { max_patterns, plateau, seed: 17, ..Default::default() };
            let reference =
                reference_campaign(&c, &faults, &config, WideFaultSim::detect_masks_wide);
            for jobs in [Jobs::serial(), Jobs::new(4)] {
                let r = campaign(
                    &c,
                    &faults,
                    &CampaignConfig { jobs, parallel_grain: 0, ..config.clone() },
                );
                assert_eq!(reference, r, "jobs={jobs:?} max={max_patterns} plateau={plateau}");
            }
        }
    }

    /// The full Table-6 run on `irs_h` (65,536 patterns) ends identically
    /// under the production campaign and the oracle campaign.
    #[test]
    fn irs_h_table6_campaign_matches_oracle() {
        let entry = sft_circuits::suite()
            .into_iter()
            .find(|e| e.name == "irs_h")
            .expect("irs_h is in the suite");
        let faults = fault_list(&entry.circuit);
        let config =
            CampaignConfig { max_patterns: 1 << 16, plateau: 0, seed: 0x5f7, ..Default::default() };
        let r = campaign(&entry.circuit, &faults, &config);
        let oracle =
            reference_campaign(&entry.circuit, &faults, &config, WideFaultSim::detect_masks_wide);
        assert_eq!(r, oracle);
        assert_eq!(r.remaining(), 6, "the Table-6 residue must be stable");
    }
}
