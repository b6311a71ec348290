//! The path delay fault (PDF) substrate: path enumeration, a two-pattern
//! hazard-tracking algebra, robust sensitization analysis and random
//! two-pattern campaigns.
//!
//! The paper's motivation for reducing path counts is the path delay fault
//! model: every physical input-to-output path, in both transition
//! directions, is a fault. This crate provides:
//!
//! - [`PathSet`] / [`enumerate_paths`] — every input-to-output path,
//!   indexed by Procedure 1 labels instead of stored (capped all the same,
//!   since path counts explode); [`PathSet::path`] rebuilds one path;
//! - [`TwoPatternSim`] — 64-way parallel simulation of `<v1, v2>` pattern
//!   pairs computing, per line, the two values plus a conservative
//!   *glitch-free* flag;
//! - robust sensitization masks per gate input (the classical robust
//!   propagation conditions), per-path robust detection, and detection
//!   over a whole [`PathSet`] by a pruned walk of the robustly sensitized
//!   subgraph ([`RobustAnalysis::accumulate`]);
//! - [`pdf_campaign`] — the random two-pattern robust-coverage experiment of
//!   Table 7 of the paper.
//!
//! # Examples
//!
//! ```
//! use sft_delay::enumerate_paths;
//! use sft_netlist::bench_format::parse;
//!
//! let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
//! let paths = enumerate_paths(&c, 100)?;
//! assert_eq!(paths.len(), 2);          // a->y and b->y
//! assert_eq!(paths.fault_count(), 4);  // two transition directions each
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod campaign;
mod nonenumerative;
mod paths;
mod robust;
mod statistics;
mod transition;
mod twopattern;

pub use campaign::{
    pair_block, pdf_campaign, pdf_campaign_on, pdf_campaign_on_with_budget,
    pdf_campaign_with_budget, PdfCampaignConfig, PdfCampaignResult,
};
pub use nonenumerative::robust_count_for_pair;
pub use paths::{enumerate_paths, Path, PathEnumError, PathIter, PathSet};
pub use robust::{robust_detection_masks, RobustAnalysis};
pub use statistics::{path_length_histogram, PathLengthHistogram};
pub use transition::{
    transition_campaign, transition_fault_list, TransitionCampaignResult, TransitionFault,
};
pub use twopattern::{LineWaves, TwoPatternSim};
