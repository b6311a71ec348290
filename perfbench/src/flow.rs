//! One pass over a workload: the paper's flows driven through each
//! crate's public API, every call timed from outside.
//!
//! Per circuit: parse → stats → stuck-at campaign → (per objective:
//! parse → `resynthesize_with_budget` → write → re-read →
//! `sft_bdd::equivalent`) → stuck-at campaign → robust PDF campaign →
//! `generate_test_set_with_budget`. An operation that returns an error is
//! recorded as a named failure and the pass carries on with the in-memory
//! circuit, so every other metric still exists.

use crate::check::{self, Net, Site};
use crate::trace::{Flow, Meter};
use crate::workloads::{Job, Workload};
use sft_atpg::{generate_test_set_with_budget, TestSet, TestSetOptions};
use sft_bdd::CheckResult;
use sft_budget::{Budget, StopReason};
use sft_core::{identify_cache_clear, identify_cache_stats, resynthesize_with_budget, Objective};
use sft_core::{ResynthError, ResynthOptions, ResynthReport};
use sft_delay::{enumerate_paths, pdf_campaign_on_with_budget, PdfCampaignConfig};
use sft_io::{parse_bytes, write_bytes, Format, WriteOptions};
use sft_netlist::Circuit;
use sft_par::Jobs;
use sft_sim::{campaign, fault_list, CampaignConfig, FaultSim, FaultSimTables, FaultSite};

/// Step limit of the counting budgets: far above any run's work, so it
/// never binds; the steps a call consumed are read back from
/// `remaining_steps()`.
const STEP_CAP: u64 = 1 << 60;
/// Path enumeration cap of the PDF flow.
const PATH_LIMIT: usize = 1 << 22;
/// Faults re-simulated per test set by the independent check.
const FAULT_SAMPLE: usize = 128;
/// 64-vector words per output comparison.
const COMPARE_WORDS: usize = 16;

/// Work counters of one pass, summed over its calls.
#[derive(Default)]
pub struct Counters {
    pub io_bytes: u64,
    pub io_reread_fail: u64,
    pub netlist_bytes: u64,
    pub netlist_nodes: u64,
    pub core_passes: u64,
    pub core_replacements: u64,
    pub core_score_steps: u64,
    pub core_identify_hits: u64,
    pub core_identify_misses: u64,
    pub core_verify_bdd_peak: u64,
    pub bdd_equiv_undecided: u64,
    pub sim_patterns: u64,
    pub sim_faults: u64,
    pub sim_detected: u64,
    pub delay_paths: u64,
    pub delay_pairs: u64,
    pub delay_blocks: u64,
    pub delay_robust_detected: u64,
    pub atpg_podem_targets: u64,
    pub atpg_redundant: u64,
    pub atpg_aborted: u64,
    pub atpg_untargeted: u64,
}

/// Deterministic quality results of one pass.
#[derive(Default)]
pub struct Quality {
    pub log_gates_ratio: Vec<f64>,
    pub log_paths_ratio: Vec<f64>,
    pub sa_detected: u64,
    pub sa_faults: u64,
    pub test_vectors: u64,
    pub test_detected: u64,
    pub test_testable: u64,
}

/// What the program wrote for one resynthesis: the bytes it read back, or
/// the in-memory circuit when the re-read failed.
pub enum Written {
    Reread(Vec<u8>),
    InMemory(Box<Circuit>),
}

pub struct OutputSubject {
    label: String,
    job: usize,
    written: Written,
}

pub struct TestSubject {
    label: String,
    step_limit: Option<u64>,
    circuit: Circuit,
    set: TestSet,
}

#[derive(Default)]
pub struct Outcome {
    /// One line per decision value; equal passes give equal lines.
    pub decisions: Vec<String>,
    pub attempted: u64,
    /// Named failed operations.
    pub failures: Vec<String>,
    /// Answers found wrong (not equivalent, unexpected budget binding).
    pub wrong: Vec<String>,
    pub counters: Counters,
    pub quality: Quality,
    pub outputs: Vec<OutputSubject>,
    pub tests: Vec<TestSubject>,
}

impl Outcome {
    fn fail(&mut self, op: &str, label: &str, error: impl std::fmt::Display) {
        self.failures.push(format!("{op} {label}: {error}"));
    }
}

fn counting_budget() -> Budget {
    Budget::unlimited().with_step_limit(STEP_CAP)
}

fn steps_used(budget: &Budget, limit: u64) -> u64 {
    limit - budget.remaining_steps().unwrap_or(limit)
}

pub fn resynth_options(objective: Objective, jobs: Jobs) -> ResynthOptions {
    ResynthOptions { objective, jobs, ..ResynthOptions::default() }
}

pub fn testset_options(w: &Workload, jobs: Jobs) -> TestSetOptions {
    TestSetOptions { seed: w.testgen_seed, jobs, ..TestSetOptions::default() }
}

pub fn resynth_decision(label: &str, r: &ResynthReport) -> String {
    format!(
        "{label} resynth passes={} replacements={} gates={} paths={} stop={}",
        r.passes, r.replacements, r.gates_after, r.paths_after, r.stop_reason
    )
}

pub fn testgen_decision(label: &str, set: &TestSet) -> String {
    format!(
        "{label} testgen faults={} redundant={} aborted={} untargeted={} stop={}",
        set.total_faults, set.redundant, set.aborted, set.untargeted, set.stop_reason
    )
}

/// Runs every flow of `w` once. The outcome holds the written results and
/// test sets for [`independent_checks`] and the ablations; every pass
/// keeps them, so all passes do the same work.
pub fn run_pass(w: &Workload, jobs: Jobs, m: &mut Meter) -> Outcome {
    let mut o = Outcome::default();
    m.group(
        || format!("workload:{}", w.name),
        |m| {
            for (index, job) in w.jobs.iter().enumerate() {
                m.group(|| format!("circuit:{}", job.name), |m| run_job(w, index, jobs, m, &mut o));
            }
        },
    );
    o
}

fn parse(job: &Job, bytes: &[u8], m: &mut Meter, o: &mut Outcome) -> Result<Circuit, String> {
    o.attempted += 1;
    o.counters.io_bytes += bytes.len() as u64;
    m.call("io.parse", || parse_bytes(bytes, Format::Bench, &job.name)).map_err(|e| e.to_string())
}

fn run_job(w: &Workload, index: usize, jobs: Jobs, m: &mut Meter, o: &mut Outcome) {
    let job = &w.jobs[index];
    // The initial parse belongs to the command the circuit is loaded for.
    let load_flow = match (job.objectives.is_empty(), job.testgen.is_some()) {
        (false, _) => Flow::Resynth,
        (true, true) => Flow::Testgen,
        (true, false) => Flow::Faultsim,
    };
    let original = m.flow(load_flow, |m| {
        let c = parse(job, &job.bytes, m, o);
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                o.fail("io.parse", &job.name, e);
                return None;
            }
        };
        o.attempted += 1;
        let (gates, paths, depth, mem) = m.call("netlist.stats", || {
            let depth = c.levels().map(|l| l.into_iter().max().unwrap_or(0));
            (c.two_input_gate_count(), c.path_count_exact(), depth, c.memory_stats())
        });
        o.counters.netlist_bytes += mem.total_bytes() as u64;
        o.counters.netlist_nodes += mem.nodes as u64;
        match depth {
            Ok(depth) => o
                .decisions
                .push(format!("{} load gates={gates} paths={paths} depth={depth}", job.name)),
            Err(e) => o.fail("netlist.stats", &job.name, e),
        }
        Some(c)
    });
    let Some(original) = original else { return };
    if job.objectives.is_empty() {
        test_flows(w, job, original, &job.name, jobs, m, o);
        return;
    }
    if job.patterns > 0 {
        m.flow(Flow::Faultsim, |m| {
            stuck_at(w, job, &original, &format!("{} before", job.name), jobs, m, o)
        });
    }
    for &objective in &job.objectives {
        let label = job.label(Some(objective));
        let resynthesized = m.flow(Flow::Resynth, |m| {
            let mut c = match parse(job, &job.bytes, m, o) {
                Ok(c) => c,
                Err(e) => {
                    o.fail("io.parse", &label, e);
                    return None;
                }
            };
            identify_cache_clear();
            let budget = counting_budget();
            o.attempted += 1;
            let report = m.call("core.resynth", || {
                resynthesize_with_budget(&mut c, &resynth_options(objective, jobs), &budget)
            });
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    o.fail("core.resynth", &label, e);
                    return None;
                }
            };
            if report.stop_reason == StopReason::StepBudget {
                o.wrong.push(format!("core.resynth {label}: counting step limit bound"));
            }
            let memo = identify_cache_stats();
            let k = &mut o.counters;
            k.core_passes += report.passes as u64;
            k.core_replacements += report.replacements as u64;
            k.core_score_steps += steps_used(&budget, STEP_CAP);
            k.core_identify_hits += memo.hits;
            k.core_identify_misses += memo.misses;
            k.core_verify_bdd_peak = k.core_verify_bdd_peak.max(report.verify_nodes as u64);
            let ratio = |after: f64, before: f64| (after / before).ln();
            o.quality
                .log_gates_ratio
                .push(ratio(report.gates_after as f64, report.gates_before as f64));
            o.quality
                .log_paths_ratio
                .push(ratio(report.paths_after.value() as f64, report.paths_before.value() as f64));
            o.decisions.push(resynth_decision(&label, &report));
            o.attempted += 1;
            let written =
                m.call("io.write", || write_bytes(&c, Format::Bench, &WriteOptions::default()));
            if let Ok(bytes) = &written {
                o.counters.io_bytes += bytes.len() as u64;
            }
            Some((c, written))
        });
        let Some((c, written)) = resynthesized else { continue };
        let after = m.flow(Flow::Equiv, |m| {
            let reread = match written {
                Ok(bytes) => match parse(job, &bytes, m, o) {
                    Ok(r) => Some((r, bytes)),
                    Err(e) => {
                        o.counters.io_reread_fail += 1;
                        o.fail("io.reread", &label, e);
                        None
                    }
                },
                Err(e) => {
                    o.fail("io.write", &label, e);
                    None
                }
            };
            let after = match reread {
                Some((r, bytes)) => {
                    o.outputs.push(OutputSubject {
                        label: label.clone(),
                        job: index,
                        written: Written::Reread(bytes),
                    });
                    r
                }
                None => {
                    o.outputs.push(OutputSubject {
                        label: label.clone(),
                        job: index,
                        written: Written::InMemory(Box::new(c.clone())),
                    });
                    c
                }
            };
            o.attempted += 1;
            match m.call("bdd.equiv", || sft_bdd::equivalent(&original, &after)) {
                Ok(CheckResult::Equivalent) => {}
                Ok(CheckResult::Different { output, .. }) => {
                    o.fail("bdd.equiv", &label, format!("not equivalent at output {output}"));
                    o.wrong.push(format!("bdd.equiv {label}: not equivalent at output {output}"));
                }
                Err(e) => {
                    o.counters.bdd_equiv_undecided += 1;
                    o.fail("bdd.equiv", &label, e);
                }
            }
            after
        });
        test_flows(w, job, after, &label, jobs, m, o);
    }
}

fn stuck_at(
    w: &Workload,
    job: &Job,
    c: &Circuit,
    label: &str,
    jobs: Jobs,
    m: &mut Meter,
    o: &mut Outcome,
) -> (u64, u64) {
    o.attempted += 1;
    m.call("sim.entry", || FaultSimTables::snapshot(c));
    let cfg = CampaignConfig {
        max_patterns: job.patterns,
        plateau: 0,
        seed: w.campaign_seed,
        jobs,
        ..CampaignConfig::default()
    };
    let r = m.call("sim.campaign", || campaign(c, &fault_list(c), &cfg));
    o.counters.sim_patterns += r.patterns_applied;
    o.counters.sim_faults += r.total_faults as u64;
    o.counters.sim_detected += r.detected as u64;
    o.decisions.push(format!("{label} campaign faults={} detected={}", r.total_faults, r.detected));
    (r.detected as u64, r.total_faults as u64)
}

/// The flows that run on a final circuit: stuck-at campaign, robust PDF
/// campaign and test-set generation.
fn test_flows(
    w: &Workload,
    job: &Job,
    c: Circuit,
    label: &str,
    jobs: Jobs,
    m: &mut Meter,
    o: &mut Outcome,
) {
    if job.patterns > 0 {
        let (detected, faults) =
            m.flow(Flow::Faultsim, |m| stuck_at(w, job, &c, label, jobs, m, o));
        o.quality.sa_detected += detected;
        o.quality.sa_faults += faults;
    }
    if job.pdf_pairs > 0 {
        m.flow(Flow::Pdf, |m| {
            o.attempted += 1;
            let paths = match m.call("delay.path_enum", || enumerate_paths(&c, PATH_LIMIT)) {
                Ok(p) => p,
                Err(e) => return o.fail("delay.path_enum", label, e),
            };
            let cfg = PdfCampaignConfig {
                max_pairs: job.pdf_pairs,
                plateau: 0,
                seed: w.pdf_seed,
                path_limit: PATH_LIMIT,
                jobs,
            };
            let budget = counting_budget();
            let r = m.call("delay.pdf", || pdf_campaign_on_with_budget(&c, &paths, &cfg, &budget));
            if r.stop_reason == StopReason::StepBudget {
                o.wrong.push(format!("delay.pdf {label}: counting step limit bound"));
            }
            let k = &mut o.counters;
            k.delay_paths += paths.len() as u64;
            k.delay_pairs += r.pairs_applied;
            k.delay_blocks += steps_used(&budget, STEP_CAP);
            k.delay_robust_detected += r.detected as u64;
            o.decisions.push(format!(
                "{label} pdf faults={} detected={} pairs={}",
                r.total_faults, r.detected, r.pairs_applied
            ));
        });
    }
    if let Some(step_limit) = job.testgen {
        m.flow(Flow::Testgen, |m| {
            o.attempted += 1;
            let (budget, limit) = match step_limit {
                Some(n) => (Budget::unlimited().with_step_limit(n), n),
                None => (counting_budget(), STEP_CAP),
            };
            let opts = testset_options(w, jobs);
            let set = m.call("atpg.testgen", || generate_test_set_with_budget(&c, &opts, &budget));
            if step_limit.is_none() && set.stop_reason == StopReason::StepBudget {
                o.wrong.push(format!("atpg.testgen {label}: counting step limit bound"));
            }
            let testable = (set.total_faults - set.redundant) as u64;
            let q = &mut o.quality;
            q.test_vectors += set.vectors.len() as u64;
            q.test_testable += testable;
            q.test_detected += testable - (set.aborted + set.untargeted) as u64;
            let k = &mut o.counters;
            k.atpg_podem_targets += steps_used(&budget, limit);
            k.atpg_redundant += set.redundant as u64;
            k.atpg_aborted += set.aborted as u64;
            k.atpg_untargeted += set.untargeted as u64;
            o.decisions.push(testgen_decision(label, &set));
            o.decisions.push(format!("{label} testgen vectors={}", set.vectors.len()));
            o.tests.push(TestSubject { label: label.to_string(), step_limit, circuit: c, set });
        });
    }
}

/// The traced run's ablations, through public options only: a warm
/// identification memo, `verify_each_pass: false` and `compact: false`.
/// Each must reproduce the reference pass's decisions; drifts are
/// returned.
pub fn ablations(w: &Workload, jobs: Jobs, m: &mut Meter, reference: &Outcome) -> Vec<String> {
    let mut drift = Vec::new();
    let mut expect = |line: String, what: &str| {
        if !reference.decisions.contains(&line) {
            drift.push(format!("{what} drifted: {line}"));
        }
    };
    let outcome = |label: &str, r: Result<ResynthReport, ResynthError>| match r {
        Ok(r) => resynth_decision(label, &r),
        Err(e) => format!("{label} resynth error: {e}"),
    };
    m.group(
        || "ablations".to_string(),
        |m| {
            for job in &w.jobs {
                for &objective in &job.objectives {
                    let label = job.label(Some(objective));
                    let fresh = || parse_bytes(&job.bytes, Format::Bench, &job.name).ok();
                    let (Some(mut cold), Some(mut warm)) = (fresh(), fresh()) else { continue };
                    identify_cache_clear();
                    let opts = ResynthOptions {
                        verify_each_pass: false,
                        ..resynth_options(objective, jobs)
                    };
                    let r = m.call("core.resynth_noverify", || {
                        resynthesize_with_budget(&mut cold, &opts, &Budget::unlimited())
                    });
                    expect(outcome(&label, r), "verify_each_pass=false");
                    // The memo now holds every answer this resynthesis asks for.
                    let opts = resynth_options(objective, jobs);
                    let r = m.call("core.resynth_warm", || {
                        resynthesize_with_budget(&mut warm, &opts, &Budget::unlimited())
                    });
                    expect(outcome(&label, r), "warm memo");
                }
            }
            for t in &reference.tests {
                let budget = t
                    .step_limit
                    .map_or_else(Budget::unlimited, |n| Budget::unlimited().with_step_limit(n));
                let opts = TestSetOptions { compact: false, ..testset_options(w, jobs) };
                let set = m.call("atpg.testgen_nocompact", || {
                    generate_test_set_with_budget(&t.circuit, &opts, &budget)
                });
                expect(testgen_decision(&t.label, &set), "compact=false");
            }
        },
    );
    drift
}

/// The independent output check over a pass: every written result
/// against its input on seeded random vectors, and each test set's
/// detections on a seeded fault sample. Returns (checks attempted,
/// mismatches).
pub fn independent_checks(w: &Workload, o: &Outcome) -> (u64, Vec<String>) {
    let mut attempted = 0;
    let mut mismatches = Vec::new();
    for (k, out) in o.outputs.iter().enumerate() {
        attempted += 1;
        let input = std::str::from_utf8(&w.jobs[out.job].bytes).map_err(|e| e.to_string());
        let result = input.and_then(Net::parse_bench).and_then(|a| {
            let b = match &out.written {
                Written::Reread(bytes) => Net::parse_bench(&String::from_utf8_lossy(bytes))
                    .map_err(|e| format!("written file: {e}"))?,
                Written::InMemory(c) => Net::from_circuit(c)?,
            };
            check::compare_outputs(&a, &b, w.check_seed ^ k as u64, COMPARE_WORDS)
        });
        if let Err(e) = result {
            mismatches.push(format!("check.outputs {}: {e}", out.label));
        }
    }
    for (k, t) in o.tests.iter().enumerate() {
        attempted += 1;
        if let Err(e) = check_test_set(t, w.check_seed.wrapping_add(1 + k as u64)) {
            mismatches.push(format!("check.testset {}: {e}", t.label));
        }
    }
    (attempted, mismatches)
}

fn check_test_set(t: &TestSubject, seed: u64) -> Result<(), String> {
    let c = &t.circuit;
    let faults = fault_list(c);
    let mut fsim = FaultSim::new(c);
    let mut detected_by_program = vec![false; faults.len()];
    for chunk in t.set.vectors.chunks(64) {
        // A partial block repeats its first vector in the spare lanes, so
        // every simulated pattern is one of the set's vectors.
        let lane = |b: usize| &chunk[if b < chunk.len() { b } else { 0 }];
        let words: Vec<u64> = (0..c.inputs().len())
            .map(|i| (0..64).fold(0u64, |acc, b| acc | (u64::from(lane(b)[i]) << b)))
            .collect();
        for (d, hit) in detected_by_program.iter_mut().zip(fsim.detect_block(&faults, &words)) {
            *d |= hit.is_some();
        }
    }
    let claimed = t.set.total_faults - t.set.redundant - t.set.aborted - t.set.untargeted;
    let simulated = detected_by_program.iter().filter(|&&d| d).count();
    if simulated < claimed {
        return Err(format!("vectors detect {simulated} faults, set claims {claimed}"));
    }
    let mut rng = crate::rng::SplitMix::new(seed);
    let sample: Vec<usize> = (0..FAULT_SAMPLE.min(faults.len()))
        .map(|_| (rng.next() % faults.len() as u64) as usize)
        .collect();
    let sites: Vec<(Site, bool)> = sample
        .iter()
        .map(|&i| {
            let f = faults[i];
            let site = match f.site {
                FaultSite::Stem(n) => Site::Stem(n.index()),
                FaultSite::Branch { gate, pin } => {
                    Site::Branch { gate: gate.index(), pin: pin as usize }
                }
            };
            (site, f.stuck)
        })
        .collect();
    let net = Net::from_circuit(c)?;
    let independent = check::detected_faults(&net, &t.set.vectors, &sites);
    for (&i, mine) in sample.iter().zip(independent) {
        if mine != detected_by_program[i] {
            return Err(format!(
                "fault {} detected={mine} by re-simulation, {} by the program",
                faults[i], detected_by_program[i]
            ));
        }
    }
    Ok(())
}
