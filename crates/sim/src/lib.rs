//! Parallel-pattern logic and stuck-at fault simulation.
//!
//! This crate reimplements the fault-simulation substrate the paper relies
//! on (FSIM \[17\] — Lee & Ha's parallel-pattern single-fault-propagation
//! simulator) in safe Rust, with one production engine:
//!
//! - [`Fault`]/[`FaultSite`] — single stuck-at faults on stems and fanout
//!   branches, with [`fault_list`] and equivalence [`collapse`];
//! - [`FaultSimTables`] — the read-only per-circuit tables every simulator
//!   shares: the struct-of-arrays [`SoaCircuit`] snapshot (packed kinds,
//!   flat fanin/fanout slabs, fanout-free-region and dominator links),
//!   cached per circuit version by [`FaultSimTables::snapshot`];
//!   [`SoaCircuit::eval_into`] is the 64-pattern good-machine simulator;
//! - [`FaultSim`] — 64-pattern single-fault propagation by critical-path
//!   tracing: all detections inside a fanout-free region come from one
//!   backward sensitization sweep per region, and stem observability is
//!   gated at immediate dominators and cached per block;
//! - [`campaign`] — the random-pattern testability experiment driver used by
//!   Table 6 of the paper (fault coverage, remaining faults, last effective
//!   pattern). Campaigns sweep 256 patterns per pass on
//!   [`CampaignConfig::jobs`] worker threads with bit-identical results at
//!   any thread count ([`pattern_block`] derives each block's patterns
//!   purely from `(seed, block)`).
//!
//! The tests pin the engine against brute-force faulty-machine simulation
//! and against an independent explicit-propagation oracle that exists only
//! in test builds.
//!
//! # Examples
//!
//! ```
//! use sft_netlist::bench_format::parse;
//! use sft_sim::{fault_list, FaultSim};
//!
//! let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
//! let faults = fault_list(&c);
//! let mut fsim = FaultSim::new(&c);
//! // Pattern a=1,b=1 detects y stuck-at-0 (among others).
//! let detected = fsim.detect_block(&faults, &[u64::MAX, u64::MAX]);
//! assert!(detected.iter().any(Option::is_some));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod campaign;
mod ctrace;
mod fault;
mod fsim;
mod measures;
#[cfg(test)]
mod oracle;
mod soa;
mod word;

pub use campaign::{campaign, pattern_block, CampaignConfig, CampaignResult};
pub use fault::{collapse, fault_list, Fault, FaultSite};
pub use fsim::{FaultSim, FaultSimTables};
pub use measures::{cop_measures, CopMeasures};
pub use soa::SoaCircuit;
