//! Workload set-up: generates the circuits, serializes them to `.bench`
//! bytes with the benchmark's own writer, and derives every stimulus seed
//! from `--seed`. The program under test only ever parses these bytes.

use crate::rng::SplitMix;
use sft_circuits::gen;
use sft_circuits::random::RandomCircuitConfig;
use sft_core::Objective;
use sft_netlist::{Circuit, GateKind};
use std::collections::HashSet;
use std::fmt::Write as _;

pub const NAMES: [&str; 4] = ["paper_irs", "stitch48_p2", "stitch48_p3", "dft_12k"];

/// One circuit and the flows run on it.
pub struct Job {
    pub name: String,
    pub bytes: Vec<u8>,
    /// Resynthesis objectives, each run on a fresh parse. Empty: the test
    /// flows run on the parsed circuit itself.
    pub objectives: Vec<Objective>,
    /// Random patterns per stuck-at campaign (0: no campaign).
    pub patterns: u64,
    /// Pattern pairs per robust PDF campaign (0: no PDF flow).
    pub pdf_pairs: u64,
    /// Test-set generation, with an optional PODEM target budget.
    pub testgen: Option<Option<u64>>,
}

pub struct Workload {
    pub name: &'static str,
    pub jobs: Vec<Job>,
    pub campaign_seed: u64,
    pub pdf_seed: u64,
    pub testgen_seed: u64,
    pub check_seed: u64,
}

/// The stitched core shape behind `stitch48`: the irs_b generator family.
fn stitch48() -> Circuit {
    let core = RandomCircuitConfig { inputs: 32, outputs: 16, gates: 260, window: 56, seed: 0xB1 };
    gen::stitched(48, &core)
}

fn objective_tag(o: Objective) -> &'static str {
    match o {
        Objective::Gates => "p2",
        Objective::Paths => "p3",
        Objective::Combined { .. } => "p23",
    }
}

impl Job {
    pub fn label(&self, objective: Option<Objective>) -> String {
        match objective {
            Some(o) => format!("{}/{}", self.name, objective_tag(o)),
            None => self.name.clone(),
        }
    }
}

/// Builds workload `name` for `seed`; `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Workload> {
    let job = |name: &str, c: &Circuit, objectives: Vec<Objective>| Job {
        name: name.to_string(),
        bytes: serialize(c),
        objectives,
        patterns: 0,
        pdf_pairs: 0,
        testgen: None,
    };
    let (name, jobs) = match name {
        "paper_irs" => {
            let jobs = sft_circuits::suite()
                .iter()
                .map(|e| Job {
                    patterns: 1 << 14,
                    pdf_pairs: 3 << 10,
                    testgen: Some(None),
                    ..job(e.name, &e.circuit, vec![Objective::Gates, Objective::Paths])
                })
                .collect();
            ("paper_irs", jobs)
        }
        "stitch48_p2" | "stitch48_p3" => {
            let (name, objective) = if name == "stitch48_p2" {
                ("stitch48_p2", Objective::Gates)
            } else {
                ("stitch48_p3", Objective::Paths)
            };
            let jobs = vec![Job {
                patterns: 1 << 15,
                testgen: Some(Some(8)),
                ..job("stitch48", &stitch48(), vec![objective])
            }];
            (name, jobs)
        }
        "dft_12k" => {
            let dag = gen::deep_dag(&RandomCircuitConfig {
                inputs: 256,
                outputs: 32,
                gates: 12_000,
                window: 2000,
                seed: 3,
            });
            let jobs = vec![
                Job { patterns: 1 << 15, ..job("dag12k", &dag, vec![]) },
                Job { testgen: Some(None), ..job("mul32", &gen::wide_multiplier(32), vec![]) },
                Job { testgen: Some(Some(16)), ..job("stitch48", &stitch48(), vec![]) },
            ];
            ("dft_12k", jobs)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        jobs,
        campaign_seed: SplitMix::derive(seed, 1),
        pdf_seed: SplitMix::derive(seed, 2),
        testgen_seed: SplitMix::derive(seed, 3),
        check_seed: SplitMix::derive(seed, 4),
    })
}

/// `.bench` text for `c` in the layout `sft gen` writes: unnamed nodes
/// are called `n<id>`, gates follow in (level, name) order, and an output
/// label that differs from its node's name becomes a `BUF` line. The
/// benchmark keeps its own copy so its inputs do not change when the
/// program's writer does.
pub fn serialize(c: &Circuit) -> Vec<u8> {
    let mut used: HashSet<String> =
        c.iter().filter_map(|(_, n)| n.name().map(String::from)).collect();
    let names: Vec<String> = c
        .iter()
        .map(|(id, n)| match n.name() {
            Some(name) => name.to_string(),
            None => {
                let mut name = format!("n{}", id.index());
                while !used.insert(name.clone()) {
                    name.push('_');
                }
                name
            }
        })
        .collect();
    let mut level = vec![0u32; c.len()];
    for id in c.topo_order().expect("generated circuits are acyclic") {
        if c.kind(id).is_gate() {
            level[id.index()] =
                1 + c.fanins(id).iter().map(|f| level[f.index()]).max().unwrap_or(0);
        }
    }
    let mut out = format!("# {}\n", c.name());
    for &i in c.inputs() {
        let _ = writeln!(out, "INPUT({})", names[i.index()]);
    }
    let labels: Vec<&str> = (0..c.outputs().len())
        .map(|slot| c.output_name(slot).unwrap_or(&names[c.outputs()[slot].index()]))
        .collect();
    for label in &labels {
        let _ = writeln!(out, "OUTPUT({label})");
    }
    let mut order: Vec<usize> = (0..c.len()).collect();
    order.sort_by(|&a, &b| (level[a], &names[a]).cmp(&(level[b], &names[b])));
    for i in order {
        let node = c.node(sft_netlist::NodeId::from_index(i));
        match node.kind() {
            GateKind::Input => {}
            kind @ (GateKind::Const0 | GateKind::Const1) => {
                let _ = writeln!(out, "{} = {}", names[i], kind.name());
            }
            kind => {
                let args: Vec<&str> =
                    node.fanins().iter().map(|f| names[f.index()].as_str()).collect();
                let _ = writeln!(out, "{} = {}({})", names[i], kind.name(), args.join(", "));
            }
        }
    }
    for (label, o) in labels.iter().zip(c.outputs()) {
        if *label != names[o.index()] {
            let _ = writeln!(out, "{label} = BUF({})", names[o.index()]);
        }
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{compare_outputs, Net};
    use sft_circuits::builders;

    #[test]
    fn serialization_keeps_the_function_and_reaches_a_fixpoint() {
        let parse = |text: &[u8]| sft_io::parse_bytes(text, sft_io::Format::Bench, "c").unwrap();
        for c in [builders::array_multiplier(3), stitch48()] {
            let text = serialize(&c);
            let a = Net::from_circuit(&c).unwrap();
            let b = Net::parse_bench(std::str::from_utf8(&text).unwrap()).unwrap();
            compare_outputs(&a, &b, 7, 4).unwrap();
            let second = serialize(&parse(&text));
            assert_eq!(serialize(&parse(&second)), second);
        }
    }
}
