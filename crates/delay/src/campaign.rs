//! Random two-pattern robust PDF coverage campaigns (the Table 7
//! experiment).
//!
//! Like the stuck-at campaign in `sft-sim`, the pair words of 64-pair
//! block `b` are a pure function of `(seed, b)`, blocks are simulated in
//! chunks of [`PdfCampaignConfig::jobs`] concurrent workers, and results
//! merge in block order — so coverage is bit-identical at any thread
//! count.

use crate::{enumerate_paths, robust_detection_masks, PathEnumError, PathSet, TwoPatternSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sft_budget::{Budget, Exhausted, StopReason};
use sft_netlist::Circuit;
use sft_par::{derive_seed, parallel_map, Jobs};

/// Configuration of a random two-pattern campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdfCampaignConfig {
    /// Maximum number of pattern pairs to apply.
    pub max_pairs: u64,
    /// Stop when no new fault has been detected for this many consecutive
    /// pairs (the paper used 100,000; scale to your budget). 0 disables.
    pub plateau: u64,
    /// RNG seed (equal seeds = identical pair sequences, making
    /// before/after-resynthesis comparisons fair).
    pub seed: u64,
    /// Cap on the number of enumerated paths.
    pub path_limit: usize,
    /// Worker threads simulating pair blocks concurrently. Results are
    /// bit-identical at any value; [`Jobs::serial`] (the default) spawns no
    /// threads. Budget steps are granted on the main thread *before* a
    /// block is dispatched, so a step limit is never overshot.
    pub jobs: Jobs,
}

impl Default for PdfCampaignConfig {
    fn default() -> Self {
        PdfCampaignConfig {
            max_pairs: 1 << 16,
            plateau: 1 << 14,
            seed: 0x5f7,
            path_limit: 1 << 22,
            jobs: Jobs::serial(),
        }
    }
}

/// Result of a random two-pattern robust PDF campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdfCampaignResult {
    /// Total number of path delay faults (2 × paths).
    pub total_faults: usize,
    /// Number of robustly detected faults.
    pub detected: usize,
    /// The last pair index (0-based) that detected a new fault.
    pub last_effective_pair: Option<u64>,
    /// Number of pairs applied.
    pub pairs_applied: u64,
    /// Why the campaign stopped: [`StopReason::Converged`] (all faults
    /// detected, or the plateau heuristic fired), [`StopReason::MaxPasses`]
    /// (the pair cap was reached) or a budget-exhaustion reason. Coverage
    /// accumulated before an early stop is always retained.
    pub stop_reason: StopReason,
}

impl PdfCampaignResult {
    /// Robust PDF coverage in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Runs a random two-pattern robust PDF campaign on `circuit`.
///
/// Pairs are drawn uniformly (both vectors independent) in blocks of 64.
/// Detection is exact per the robust sensitization conditions of
/// [`robust_detection_masks`].
///
/// # Errors
///
/// Returns [`PathEnumError::TooManyPaths`] when the circuit exceeds
/// `config.path_limit` paths.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn pdf_campaign(
    circuit: &Circuit,
    config: &PdfCampaignConfig,
) -> Result<PdfCampaignResult, PathEnumError> {
    pdf_campaign_with_budget(circuit, config, &Budget::unlimited())
}

/// Runs a random two-pattern robust PDF campaign under an effort
/// [`Budget`].
///
/// The budget is checked — and one step consumed — per 64-pair block;
/// exhaustion stops the campaign and reports the coverage reached so far
/// with the matching [`PdfCampaignResult::stop_reason`].
///
/// # Errors
///
/// Returns [`PathEnumError::TooManyPaths`] when the circuit exceeds
/// `config.path_limit` paths.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn pdf_campaign_with_budget(
    circuit: &Circuit,
    config: &PdfCampaignConfig,
    budget: &Budget,
) -> Result<PdfCampaignResult, PathEnumError> {
    let paths = enumerate_paths(circuit, config.path_limit)?;
    Ok(pdf_campaign_on_with_budget(circuit, &paths, config, budget))
}

/// Like [`pdf_campaign`] but over an already-enumerated [`PathSet`].
///
/// # Panics
///
/// Panics if the circuit is cyclic or `paths` was enumerated from a
/// different circuit.
pub fn pdf_campaign_on(
    circuit: &Circuit,
    paths: &PathSet,
    config: &PdfCampaignConfig,
) -> PdfCampaignResult {
    pdf_campaign_on_with_budget(circuit, paths, config, &Budget::unlimited())
}

/// Like [`pdf_campaign_with_budget`] but over an already-enumerated
/// [`PathSet`].
///
/// # Panics
///
/// Panics if the circuit is cyclic or `paths` was enumerated from a
/// different circuit.
pub fn pdf_campaign_on_with_budget(
    circuit: &Circuit,
    paths: &PathSet,
    config: &PdfCampaignConfig,
    budget: &Budget,
) -> PdfCampaignResult {
    let sim = TwoPatternSim::new(circuit);
    let n_inputs = circuit.inputs().len();
    let mut detected = vec![false; paths.fault_count()];
    let mut applied: u64 = 0;
    let mut last_effective: Option<u64> = None;
    let mut total_detected = 0usize;
    let mut block_index: u64 = 0;

    // Simulates one 64-pair block and returns the indices of the path
    // delay faults it robustly detects that `known` does not hold yet.
    // Pure in `(seed, block, known)` and read-only on the simulator, so
    // blocks fan out to worker threads.
    let run_block = |block: u64, known: &[bool]| -> Vec<usize> {
        let (v1, v2) = pair_block(config.seed, block, n_inputs);
        let mut waves = Vec::new();
        sim.simulate_into(&v1, &v2, &mut waves);
        let mut found = Vec::new();
        robust_detection_masks(circuit, &waves).walk(&waves, paths, known, |f| found.push(f));
        found
    };

    let mut stop = StopReason::MaxPasses;
    'campaign: while applied < config.max_pairs {
        if total_detected == detected.len() {
            stop = StopReason::Converged;
            break;
        }
        // One chunk: up to `jobs` blocks, each granted one budget step on
        // this thread *before* dispatch (a step limit is never overshot).
        let blocks_left = (config.max_pairs - applied).div_ceil(64);
        let want = (config.jobs.get() as u64).min(blocks_left);
        let mut blocks: Vec<(u64, u64, u64)> = Vec::with_capacity(want as usize);
        let mut exhausted: Option<Exhausted> = None;
        for i in 0..want {
            if let Err(e) = budget.consume(1) {
                exhausted = Some(e);
                break;
            }
            let offset = applied + i * 64;
            blocks.push((block_index + i, offset, (config.max_pairs - offset).min(64)));
        }
        let detections: Vec<Vec<usize>> =
            parallel_map(config.jobs, &blocks, |_, &(b, _, _)| run_block(b, &detected));
        // Merge strictly in block order; the stop rules run per block
        // exactly as the serial loop would (later blocks of a stopped
        // chunk are discarded).
        for (&(_, offset, size), block_detected) in blocks.iter().zip(&detections) {
            let mut new = 0usize;
            for &fi in block_detected {
                if !detected[fi] {
                    detected[fi] = true;
                    new += 1;
                }
            }
            if new > 0 {
                total_detected += new;
                // Block-granular effectiveness index (the exact bit within
                // the block is not tracked; the paper's statistic is coarse
                // anyway).
                last_effective = Some(offset + size - 1);
            }
            applied = offset + size;
            block_index += 1;
            if total_detected == detected.len() {
                stop = StopReason::Converged;
                break 'campaign;
            }
            if config.plateau > 0 {
                let plateaued = match last_effective {
                    Some(l) => applied.saturating_sub(l) > config.plateau,
                    None => applied > config.plateau,
                };
                if plateaued {
                    stop = StopReason::Converged;
                    break 'campaign;
                }
            }
        }
        if let Some(e) = exhausted {
            stop = e.into();
            break;
        }
    }
    if total_detected == detected.len() {
        stop = StopReason::Converged;
    }

    PdfCampaignResult {
        total_faults: detected.len(),
        detected: total_detected,
        last_effective_pair: last_effective,
        pairs_applied: applied,
        stop_reason: stop,
    }
}

/// The 64 pattern pairs of pair block `block` — `(v1 words, v2 words)`,
/// one word per primary input per vector — derived purely from
/// `(seed, block)`, so any worker regenerates exactly the pairs the
/// single-threaded loop would draw.
pub fn pair_block(seed: u64, block: u64, num_inputs: usize) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, block));
    let v1 = (0..num_inputs).map(|_| rng.gen()).collect();
    let v2 = (0..num_inputs).map(|_| rng.gen()).collect();
    (v1, v2)
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
    fn c17_pdf_coverage_positive_and_deterministic() {
        let c = parse(C17, "c17").unwrap();
        let cfg = PdfCampaignConfig {
            max_pairs: 2048,
            plateau: 0,
            seed: 7,
            path_limit: 1000,
            ..Default::default()
        };
        let a = pdf_campaign(&c, &cfg).unwrap();
        let b = pdf_campaign(&c, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.total_faults, 22);
        assert!(a.detected > 0, "some robust PDFs must be detectable in c17");
        assert!(a.detected <= a.total_faults);
    }

    #[test]
    fn single_and_gate_fully_robustly_testable() {
        let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and").unwrap();
        let cfg = PdfCampaignConfig {
            max_pairs: 4096,
            plateau: 0,
            seed: 3,
            path_limit: 100,
            ..Default::default()
        };
        let r = pdf_campaign(&c, &cfg).unwrap();
        assert_eq!(r.total_faults, 4);
        assert_eq!(r.detected, 4, "all four PDFs of a bare AND are robustly testable");
    }

    #[test]
    fn path_limit_propagates() {
        let c = parse(C17, "c17").unwrap();
        let cfg = PdfCampaignConfig {
            max_pairs: 64,
            plateau: 0,
            seed: 3,
            path_limit: 4,
            ..Default::default()
        };
        assert!(pdf_campaign(&c, &cfg).is_err());
    }

    #[test]
    fn plateau_terminates() {
        let c = parse(C17, "c17").unwrap();
        let cfg = PdfCampaignConfig {
            max_pairs: u64::MAX / 2,
            plateau: 512,
            seed: 5,
            path_limit: 100,
            ..Default::default()
        };
        let r = pdf_campaign(&c, &cfg).unwrap();
        assert!(r.pairs_applied < u64::MAX / 2);
        assert_eq!(r.stop_reason, StopReason::Converged);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let c = parse(C17, "c17").unwrap();
        for (max_pairs, plateau) in [(2048, 0), (1 << 15, 512), (100, 0)] {
            let serial = pdf_campaign(
                &c,
                &PdfCampaignConfig {
                    max_pairs,
                    plateau,
                    seed: 7,
                    path_limit: 1000,
                    ..Default::default()
                },
            )
            .unwrap();
            for jobs in [2, 3, 8] {
                let par = pdf_campaign(
                    &c,
                    &PdfCampaignConfig {
                        max_pairs,
                        plateau,
                        seed: 7,
                        path_limit: 1000,
                        jobs: Jobs::new(jobs),
                    },
                )
                .unwrap();
                assert_eq!(serial, par, "jobs={jobs} max={max_pairs} plateau={plateau}");
            }
        }
    }

    #[test]
    fn pre_expired_deadline_applies_no_pairs() {
        let c = parse(C17, "c17").unwrap();
        let cfg = PdfCampaignConfig {
            max_pairs: 2048,
            plateau: 0,
            seed: 7,
            path_limit: 1000,
            ..Default::default()
        };
        let budget = Budget::unlimited().with_time_limit(std::time::Duration::ZERO);
        let r = pdf_campaign_with_budget(&c, &cfg, &budget).unwrap();
        assert_eq!(r.stop_reason, StopReason::Deadline);
        assert_eq!(r.pairs_applied, 0);
        assert_eq!(r.detected, 0);
    }

    #[test]
    fn step_budget_caps_pattern_blocks() {
        let c = parse(C17, "c17").unwrap();
        let cfg = PdfCampaignConfig {
            max_pairs: 1 << 20,
            plateau: 0,
            seed: 7,
            path_limit: 1000,
            ..Default::default()
        };
        // One step per 64-pair block: two blocks, then exhaustion.
        let budget = Budget::unlimited().with_step_limit(2);
        let full = pdf_campaign(&c, &cfg).unwrap();
        let r = pdf_campaign_on_with_budget(
            &c,
            &enumerate_paths(&c, cfg.path_limit).unwrap(),
            &cfg,
            &budget,
        );
        let _ = full;
        assert!(r.pairs_applied <= 2 * 64, "{} pairs", r.pairs_applied);
        assert!(matches!(r.stop_reason, StopReason::StepBudget | StopReason::Converged));
        if r.stop_reason == StopReason::StepBudget {
            assert!(r.detected <= r.total_faults);
        }
    }
}
