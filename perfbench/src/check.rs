//! Independent output check.
//!
//! A small bit-parallel evaluator that shares no code with `sft-sim` or
//! `sft-bdd`. It reads `.bench` text with its own parser (or walks an
//! in-memory circuit when the program's written file cannot be read back),
//! compares every primary output by name on seeded random vectors, and
//! re-simulates a seeded sample of stuck-at faults against a test set.

use crate::rng::SplitMix;
use sft_netlist::{Circuit, GateKind};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Input,
    Const0,
    Const1,
    Buf,
    Not,
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
}

impl Op {
    fn from_bench(name: &str) -> Option<Op> {
        Some(match name.to_ascii_uppercase().as_str() {
            "AND" => Op::And,
            "OR" => Op::Or,
            "NAND" => Op::Nand,
            "NOR" => Op::Nor,
            "XOR" => Op::Xor,
            "XNOR" => Op::Xnor,
            "NOT" | "INV" => Op::Not,
            "BUF" | "BUFF" => Op::Buf,
            "CONST0" | "GND" => Op::Const0,
            "CONST1" | "VDD" => Op::Const1,
            _ => return None,
        })
    }

    fn from_kind(kind: GateKind) -> Op {
        match kind {
            GateKind::Input => Op::Input,
            GateKind::Const0 => Op::Const0,
            GateKind::Const1 => Op::Const1,
            GateKind::Buf => Op::Buf,
            GateKind::Not => Op::Not,
            GateKind::And => Op::And,
            GateKind::Or => Op::Or,
            GateKind::Nand => Op::Nand,
            GateKind::Nor => Op::Nor,
            GateKind::Xor => Op::Xor,
            GateKind::Xnor => Op::Xnor,
        }
    }
}

/// A stuck-at fault: on a node's output (stem) or on one gate input pin
/// (branch). Node indices are the circuit's node ids.
#[derive(Clone, Copy, Debug)]
pub enum Site {
    Stem(usize),
    Branch { gate: usize, pin: usize },
}

/// A flat gate list with a topological evaluation order.
pub struct Net {
    inputs: Vec<(String, usize)>,
    outputs: Vec<(String, usize)>,
    ops: Vec<Op>,
    fanins: Vec<Vec<usize>>,
    order: Vec<usize>,
}

impl Net {
    /// Parses `.bench` text. Duplicate definitions, undefined signals and
    /// cycles are errors.
    pub fn parse_bench(text: &str) -> Result<Net, String> {
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut ops = Vec::new();
        let mut args: Vec<Vec<&str>> = Vec::new();
        let mut inputs = Vec::new();
        let mut output_names = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}", lineno + 1);
            let mut define = |sig| match index.insert(sig, ops.len()) {
                Some(_) => Err(err(&format!("duplicate definition of {sig:?}"))),
                None => Ok(ops.len()),
            };
            if let Some(rest) = line.strip_prefix("INPUT(") {
                let sig = rest.strip_suffix(')').ok_or_else(|| err("bad INPUT"))?.trim();
                let id = define(sig)?;
                ops.push(Op::Input);
                args.push(Vec::new());
                inputs.push((sig.to_string(), id));
            } else if let Some(rest) = line.strip_prefix("OUTPUT(") {
                let sig = rest.strip_suffix(')').ok_or_else(|| err("bad OUTPUT"))?.trim();
                output_names.push(sig);
            } else if let Some((target, expr)) = line.split_once('=') {
                let target = target.trim();
                let (func, list) = match expr.trim().split_once('(') {
                    Some((f, rest)) => {
                        (f.trim(), rest.strip_suffix(')').ok_or_else(|| err("missing ')'"))?)
                    }
                    None => (expr.trim(), ""),
                };
                let op =
                    Op::from_bench(func).ok_or_else(|| err(&format!("unknown gate {func}")))?;
                define(target)?;
                ops.push(op);
                args.push(list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect());
            } else {
                return Err(err("unrecognized line"));
            }
        }
        let resolve =
            |sig: &str| index.get(sig).copied().ok_or_else(|| format!("undefined signal {sig:?}"));
        let fanins = args
            .iter()
            .map(|list| list.iter().map(|s| resolve(s)).collect::<Result<Vec<_>, _>>())
            .collect::<Result<Vec<_>, _>>()?;
        for (op, fs) in ops.iter().zip(&fanins) {
            let arity_ok = match op {
                Op::Input | Op::Const0 | Op::Const1 => fs.is_empty(),
                Op::Buf | Op::Not => fs.len() == 1,
                _ => !fs.is_empty(),
            };
            if !arity_ok {
                return Err(format!("{op:?} with {} fanins", fs.len()));
            }
        }
        let outputs = output_names
            .iter()
            .map(|&s| Ok((s.to_string(), resolve(s)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let order = topo_order(&fanins).ok_or("combinational cycle")?;
        Ok(Net { inputs, outputs, ops, fanins, order })
    }

    /// Reads an in-memory circuit; node indices are its node ids.
    pub fn from_circuit(c: &Circuit) -> Result<Net, String> {
        let order: Vec<usize> =
            c.topo_order().map_err(|e| e.to_string())?.iter().map(|id| id.index()).collect();
        let mut ops = Vec::with_capacity(c.len());
        let mut fanins = Vec::with_capacity(c.len());
        for (_, node) in c.iter() {
            ops.push(Op::from_kind(node.kind()));
            fanins.push(node.fanins().iter().map(|f| f.index()).collect());
        }
        let label = |id: usize, fallback: String| {
            c.node(sft_netlist::NodeId::from_index(id)).name().map_or(fallback, str::to_string)
        };
        let inputs = c
            .inputs()
            .iter()
            .map(|i| (label(i.index(), format!("in{}", i.index())), i.index()))
            .collect();
        let outputs = c
            .outputs()
            .iter()
            .enumerate()
            .map(|(slot, o)| {
                let name = c.output_name(slot).map(str::to_string);
                (name.unwrap_or_else(|| label(o.index(), format!("out{slot}"))), o.index())
            })
            .collect();
        Ok(Net { inputs, outputs, ops, fanins, order })
    }

    /// Good-machine values of every node over `words` 64-vector words;
    /// `input_words[k]` drives the `k`-th input.
    fn eval(&self, words: usize, input_words: &[Vec<u64>]) -> Vec<u64> {
        let mut v = vec![0u64; self.ops.len() * words];
        for (k, &(_, id)) in self.inputs.iter().enumerate() {
            v[id * words..(id + 1) * words].copy_from_slice(&input_words[k]);
        }
        for &n in &self.order {
            if self.ops[n] != Op::Input {
                for w in 0..words {
                    v[n * words + w] = self.gate(n, w, words, &v, None);
                }
            }
        }
        v
    }

    /// One word of gate `n`'s output; `forced` overrides one fanin pin.
    fn gate(
        &self,
        n: usize,
        w: usize,
        words: usize,
        v: &[u64],
        forced: Option<(usize, u64)>,
    ) -> u64 {
        let fanin = |pin: usize, f: usize| match forced {
            Some((p, value)) if p == pin => value,
            _ => v[f * words + w],
        };
        let fs = &self.fanins[n];
        let fold = |init: u64, step: fn(u64, u64) -> u64| {
            fs.iter().enumerate().fold(init, |acc, (pin, &f)| step(acc, fanin(pin, f)))
        };
        match self.ops[n] {
            Op::Input => v[n * words + w],
            Op::Const0 => 0,
            Op::Const1 => !0,
            Op::Buf => fanin(0, fs[0]),
            Op::Not => !fanin(0, fs[0]),
            Op::And => fold(!0, |a, b| a & b),
            Op::Nand => !fold(!0, |a, b| a & b),
            Op::Or => fold(0, |a, b| a | b),
            Op::Nor => !fold(0, |a, b| a | b),
            Op::Xor => fold(0, |a, b| a ^ b),
            Op::Xnor => !fold(0, |a, b| a ^ b),
        }
    }
}

/// Kahn's algorithm over fanin lists; `None` on a cycle.
fn topo_order(fanins: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = fanins.len();
    let mut pending: Vec<usize> = fanins.iter().map(Vec::len).collect();
    let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (g, fs) in fanins.iter().enumerate() {
        for &f in fs {
            fanouts[f].push(g);
        }
    }
    let mut order: Vec<usize> = (0..n).filter(|&g| pending[g] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let g = order[head];
        head += 1;
        for &o in &fanouts[g] {
            pending[o] -= 1;
            if pending[o] == 0 {
                order.push(o);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Compares every primary output of `a` and `b` by name on `words × 64`
/// seeded random vectors, inputs matched by name.
pub fn compare_outputs(a: &Net, b: &Net, seed: u64, words: usize) -> Result<(), String> {
    let mut rng = SplitMix::new(seed);
    let a_in: Vec<Vec<u64>> =
        a.inputs.iter().map(|_| (0..words).map(|_| rng.next()).collect()).collect();
    let by_name: HashMap<&str, usize> =
        a.inputs.iter().enumerate().map(|(k, (name, _))| (name.as_str(), k)).collect();
    if b.inputs.len() != a.inputs.len() {
        return Err(format!("{} inputs, expected {}", b.inputs.len(), a.inputs.len()));
    }
    let b_in = b
        .inputs
        .iter()
        .map(|(name, _)| by_name.get(name.as_str()).map(|&k| a_in[k].clone()))
        .collect::<Option<Vec<_>>>()
        .ok_or("input names differ")?;
    let (va, vb) = (a.eval(words, &a_in), b.eval(words, &b_in));
    let b_out: HashMap<&str, usize> = b.outputs.iter().map(|(n, id)| (n.as_str(), *id)).collect();
    if b.outputs.len() != a.outputs.len() {
        return Err(format!("{} outputs, expected {}", b.outputs.len(), a.outputs.len()));
    }
    for (name, ia) in &a.outputs {
        let ib = *b_out.get(name.as_str()).ok_or_else(|| format!("output {name} missing"))?;
        for w in 0..words {
            let diff = va[ia * words + w] ^ vb[ib * words + w];
            if diff != 0 {
                return Err(format!(
                    "output {name} differs on vector {}",
                    w * 64 + diff.trailing_zeros() as usize
                ));
            }
        }
    }
    Ok(())
}

/// Which of `faults` the test `vectors` (one bool per input, in input
/// order) detect, by explicit faulty-machine re-simulation.
pub fn detected_faults(net: &Net, vectors: &[Vec<bool>], faults: &[(Site, bool)]) -> Vec<bool> {
    let words = vectors.len().div_ceil(64).max(1);
    let mut input_words = vec![vec![0u64; words]; net.inputs.len()];
    for (t, vector) in vectors.iter().enumerate() {
        for (k, &bit) in vector.iter().enumerate() {
            input_words[k][t / 64] |= u64::from(bit) << (t % 64);
        }
    }
    let valid: Vec<u64> = (0..words)
        .map(|w| {
            let lanes = vectors.len().saturating_sub(w * 64).min(64);
            if lanes == 64 {
                !0
            } else {
                (1u64 << lanes) - 1
            }
        })
        .collect();
    let good = net.eval(words, &input_words);
    let mut position = vec![0usize; net.ops.len()];
    for (p, &n) in net.order.iter().enumerate() {
        position[n] = p;
    }
    let mut bad = good.clone();
    faults
        .iter()
        .map(|&(site, stuck)| {
            let stuck_word = if stuck { !0 } else { 0 };
            bad.copy_from_slice(&good);
            let site_node = match site {
                Site::Stem(n) => {
                    bad[n * words..(n + 1) * words].fill(stuck_word);
                    n
                }
                Site::Branch { gate, pin } => {
                    for w in 0..words {
                        bad[gate * words + w] =
                            net.gate(gate, w, words, &good, Some((pin, stuck_word)));
                    }
                    gate
                }
            };
            for &n in &net.order[position[site_node] + 1..] {
                if net.ops[n] != Op::Input {
                    for w in 0..words {
                        bad[n * words + w] = net.gate(n, w, words, &bad, None);
                    }
                }
            }
            net.outputs.iter().any(|&(_, o)| {
                (0..words).any(|w| (good[o * words + w] ^ bad[o * words + w]) & valid[w] != 0)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const XOR_SOP: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\n\
                           t1 = AND(a, nb)\nt2 = AND(na, b)\ny = OR(t1, t2)\n";

    #[test]
    fn equal_functions_compare_equal_and_different_ones_do_not() {
        let a = Net::parse_bench(XOR_SOP).unwrap();
        let b = Net::parse_bench("INPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = XOR(b, a)\n").unwrap();
        let c = Net::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        assert!(compare_outputs(&a, &b, 1, 2).is_ok());
        assert!(compare_outputs(&a, &c, 1, 2).unwrap_err().contains("output y differs"));
    }

    #[test]
    fn parser_rejects_duplicates_and_cycles() {
        let dup = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n";
        assert!(Net::parse_bench(dup).err().unwrap().contains("duplicate definition"));
        let cyc = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n";
        assert!(Net::parse_bench(cyc).is_err());
    }

    #[test]
    fn fault_detection_follows_the_stuck_value() {
        // y = AND(a, b): the vector 11 detects y s-a-0 but not y s-a-1.
        let net = Net::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let faults = [
            (Site::Stem(2), false),
            (Site::Stem(2), true),
            (Site::Branch { gate: 2, pin: 0 }, false),
        ];
        assert_eq!(detected_faults(&net, &[vec![true, true]], &faults), [true, false, true]);
        assert_eq!(detected_faults(&net, &[vec![false, true]], &faults), [false, true, false]);
    }
}
