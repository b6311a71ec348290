//! The input-to-output paths of a circuit, indexed without being stored.

use sft_netlist::{Circuit, NodeId, PathCount};
use std::fmt;

/// One physical path from a primary input to a primary output.
///
/// A path is the start node followed by a sequence of `(gate, pin)` hops:
/// hop `k` enters `gate` through fanin position `pin`, whose driver is the
/// previous element of the path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// The primary input where the path starts.
    pub start: NodeId,
    /// The gates traversed, with the entering pin. The last gate drives a
    /// primary output.
    pub hops: Vec<(NodeId, u8)>,
}

impl Path {
    /// Number of gates on the path.
    pub fn gate_count(&self) -> usize {
        self.hops.len()
    }

    /// The last node of the path (the output node), or the start for a
    /// degenerate input-is-output path.
    pub fn end(&self) -> NodeId {
        self.hops.last().map_or(self.start, |&(g, _)| g)
    }

    /// The parity of inverting gates along the path: `true` if a rising
    /// transition at the start arrives as a falling transition at the end.
    pub fn inverts(&self, circuit: &Circuit) -> bool {
        self.hops.iter().filter(|&&(g, _)| circuit.node(g).kind().inverts()).count() % 2 == 1
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)?;
        for (g, pin) in &self.hops {
            write!(f, " -{pin}-> {g}")?;
        }
        Ok(())
    }
}

/// Error from [`enumerate_paths`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathEnumError {
    /// The circuit has more paths than the requested cap.
    TooManyPaths {
        /// The cap that was exceeded.
        limit: usize,
        /// The exact total path count (from Procedure 1).
        actual: u128,
    },
}

impl fmt::Display for PathEnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathEnumError::TooManyPaths { limit, actual } => {
                write!(f, "circuit has {actual} paths, more than the enumeration cap {limit}")
            }
        }
    }
}

impl std::error::Error for PathEnumError {}

/// Every input-to-output path of a circuit, held implicitly.
///
/// No path is stored. The set keeps the circuit's fanins in a compact CSR,
/// its output list and the Procedure 1 label of every node (the number of
/// paths from a primary input to it). Path `i` is the `i`-th path of a
/// backward depth-first walk from each output in output order, taking
/// fanins in pin order; the paths entering a gate through one pin are then
/// one contiguous index range, as long as the label of that pin's driver.
/// [`path`](Self::path) rebuilds one path by descending the labels, and
/// [`RobustAnalysis::accumulate`](crate::RobustAnalysis::accumulate) walks
/// whole ranges at once.
#[derive(Debug, Clone)]
pub struct PathSet {
    /// Node `n`'s fanins are `fanins[fanin_start[n]..fanin_start[n + 1]]`.
    fanin_start: Vec<u32>,
    fanins: Vec<u32>,
    outputs: Vec<u32>,
    /// Procedure 1 label of every node, clamped at `usize::MAX`. Exact on
    /// every node that reaches an output: such a label never exceeds the
    /// total, which fits the enumeration cap.
    counts: Vec<usize>,
    len: usize,
}

impl PathSet {
    /// Number of paths.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of path delay faults: two transition directions per path.
    pub fn fault_count(&self) -> usize {
        self.len * 2
    }

    /// Rebuilds path `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn path(&self, index: usize) -> Path {
        assert!(index < self.len, "path index {index} out of range ({} paths)", self.len);
        let mut rest = index;
        let mut node = self.outputs[self.locate(&self.outputs, &mut rest)];
        let mut hops = Vec::new();
        loop {
            let fanins = self.fanins(node);
            if fanins.is_empty() {
                break;
            }
            let pin = self.locate(fanins, &mut rest);
            hops.push((NodeId::from_index(node as usize), pin as u8));
            node = fanins[pin];
        }
        hops.reverse();
        Path { start: NodeId::from_index(node as usize), hops }
    }

    /// Iterates over the paths in index order, rebuilding each one.
    pub fn iter(&self) -> PathIter<'_> {
        PathIter { set: self, next: 0 }
    }

    /// The position in `nodes` whose path range holds `rest`, with `rest`
    /// made relative to that range.
    fn locate(&self, nodes: &[u32], rest: &mut usize) -> usize {
        for (k, &n) in nodes.iter().enumerate() {
            let count = self.count(n);
            if *rest < count {
                return k;
            }
            *rest -= count;
        }
        unreachable!("path labels sum to the range being split")
    }

    /// The fanins of `node`, as node indices in pin order.
    pub(crate) fn fanins(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.fanins[self.fanin_start[n] as usize..self.fanin_start[n + 1] as usize]
    }

    /// The number of paths from a primary input to `node`.
    pub(crate) fn count(&self, node: u32) -> usize {
        self.counts[node as usize]
    }

    /// The primary outputs, in output order (a node driving two output
    /// slots is listed twice).
    pub(crate) fn outputs(&self) -> &[u32] {
        &self.outputs
    }
}

/// Iterator over the paths of a [`PathSet`] in index order; see
/// [`PathSet::iter`].
#[derive(Debug, Clone)]
pub struct PathIter<'a> {
    set: &'a PathSet,
    next: usize,
}

impl Iterator for PathIter<'_> {
    type Item = Path;

    fn next(&mut self) -> Option<Path> {
        (self.next < self.set.len).then(|| {
            self.next += 1;
            self.set.path(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.set.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PathIter<'_> {}

impl<'a> IntoIterator for &'a PathSet {
    type Item = Path;
    type IntoIter = PathIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Enumerates every input-to-output path of `circuit`, up to `limit`.
///
/// The number of paths is first computed exactly with Procedure 1; if it
/// exceeds `limit` (or `usize::MAX`), [`PathEnumError::TooManyPaths`] is
/// returned — this mirrors the paper's observation that enumerative
/// methods stop scaling (\[8\]). Otherwise the returned [`PathSet`] holds
/// the paths implicitly, in memory linear in the circuit size.
///
/// Paths through constants do not exist (constants have no input paths);
/// a primary input that directly drives an output contributes a hop-free
/// path per output slot it drives.
///
/// # Errors
///
/// Returns [`PathEnumError::TooManyPaths`] when the exact path count
/// exceeds `limit`.
///
/// # Panics
///
/// Panics if the circuit is cyclic.
pub fn enumerate_paths(circuit: &Circuit, limit: usize) -> Result<PathSet, PathEnumError> {
    let labels = circuit.path_labels_exact();
    let actual = circuit
        .outputs()
        .iter()
        .fold(PathCount::ZERO, |acc, o| acc.saturating_add(labels[o.index()]))
        .value();
    if actual > limit as u128 {
        return Err(PathEnumError::TooManyPaths { limit, actual });
    }
    let mut fanin_start = Vec::with_capacity(circuit.len() + 1);
    let mut fanins = Vec::with_capacity(circuit.fanin_count());
    fanin_start.push(0);
    for (_, node) in circuit.iter() {
        fanins.extend(node.fanins().iter().map(|f| f.index() as u32));
        fanin_start.push(fanins.len() as u32);
    }
    Ok(PathSet {
        fanin_start,
        fanins,
        outputs: circuit.outputs().iter().map(|o| o.index() as u32).collect(),
        counts: labels.iter().map(|l| l.value().min(usize::MAX as u128) as usize).collect(),
        len: actual as usize,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sft_netlist::bench_format::parse;
    use sft_netlist::GateKind;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    /// The reference enumerator: every path materialized by a recursive
    /// backward DFS from each output, fanins in pin order. [`PathSet`]
    /// indexes exactly this sequence.
    fn reference_paths(circuit: &Circuit) -> Vec<Path> {
        fn dfs(
            circuit: &Circuit,
            node: NodeId,
            suffix: &mut Vec<(NodeId, u8)>,
            out: &mut Vec<Path>,
        ) {
            let n = circuit.node(node);
            match n.kind() {
                GateKind::Input => {
                    out.push(Path { start: node, hops: suffix.iter().rev().copied().collect() })
                }
                GateKind::Const0 | GateKind::Const1 => {}
                _ => {
                    for (pin, &f) in n.fanins().iter().enumerate() {
                        suffix.push((node, pin as u8));
                        dfs(circuit, f, suffix, out);
                        suffix.pop();
                    }
                }
            }
        }
        let mut paths = Vec::new();
        for &o in circuit.outputs() {
            dfs(circuit, o, &mut Vec::new(), &mut paths);
        }
        paths
    }

    fn assert_matches_reference(c: &Circuit) {
        let set = enumerate_paths(c, 1 << 20).unwrap();
        let reference = reference_paths(c);
        assert_eq!(set.len(), reference.len(), "{}", c.name());
        assert_eq!(set.iter().len(), reference.len());
        assert_eq!(set.iter().collect::<Vec<_>>(), reference, "{}: iter()", c.name());
        for (i, p) in reference.iter().enumerate() {
            assert_eq!(&set.path(i), p, "{}: path({i})", c.name());
        }
    }

    #[test]
    fn c17_has_11_paths() {
        let c = parse(C17, "c17").unwrap();
        let p = enumerate_paths(&c, 1000).unwrap();
        assert_eq!(p.len(), 11);
        assert_eq!(p.len() as u128, c.path_count());
        assert_eq!(p.fault_count(), 22);
        // Every path ends at an output.
        for path in &p {
            assert!(c.outputs().contains(&path.end()), "path {path} must end at a PO");
        }
    }

    #[test]
    fn limit_enforced_without_enumeration() {
        let c = parse(C17, "c17").unwrap();
        match enumerate_paths(&c, 5) {
            Err(PathEnumError::TooManyPaths { limit: 5, actual: 11 }) => {}
            other => panic!("expected TooManyPaths, got {other:?}"),
        }
        assert_eq!(enumerate_paths(&c, 11).unwrap().len(), 11, "the limit is inclusive");
    }

    #[test]
    fn inversion_parity() {
        let src = "INPUT(a)\nOUTPUT(y)\nt = NOT(a)\ny = NAND(t, t)\n";
        let c = parse(src, "t").unwrap();
        let p = enumerate_paths(&c, 100).unwrap();
        // Two paths (through each NAND pin), each crossing NOT+NAND = even.
        assert_eq!(p.len(), 2);
        for path in &p {
            assert!(!path.inverts(&c));
        }
    }

    #[test]
    fn input_driving_output_directly() {
        let src = "INPUT(a)\nOUTPUT(a)\n";
        let c = parse(src, "wire").unwrap();
        let p = enumerate_paths(&c, 10).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.path(0).gate_count(), 0);
        assert_eq!(p.path(0).end(), c.inputs()[0]);
    }

    #[test]
    fn display_shows_pins() {
        let c = parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let p = enumerate_paths(&c, 10).unwrap();
        let strings: Vec<String> = p.iter().map(|p| p.to_string()).collect();
        assert!(strings.iter().any(|s| s.contains("-0->")));
        assert!(strings.iter().any(|s| s.contains("-1->")));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn path_index_past_the_end_panics() {
        let c = parse(C17, "c17").unwrap();
        enumerate_paths(&c, 100).unwrap().path(11);
    }

    /// Degenerate shapes: PIs driving POs directly, an output listed twice,
    /// constants inside and at the outputs, fanins repeated on one gate.
    #[test]
    fn indexing_matches_reference_on_edge_cases() {
        let mut c = Circuit::new("edges");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let unused = c.add_input("u");
        let zero = c.add_const(false);
        let one = c.add_const(true);
        let dup = c.add_gate(GateKind::And, vec![a, a, b]).unwrap();
        let k = c.add_gate(GateKind::Or, vec![zero, dup, one, dup]).unwrap();
        let consts = c.add_gate(GateKind::Xor, vec![zero, one]).unwrap();
        let n = c.add_gate(GateKind::Not, vec![k]).unwrap();
        c.add_output(a, "pa");
        c.add_output(n, "y");
        c.add_output(consts, "z");
        c.add_output(one, "c1");
        c.add_output(n, "y_again");
        c.add_output(b, "pb");
        let _ = unused;
        assert_matches_reference(&c);
        assert_eq!(enumerate_paths(&c, 100).unwrap().len(), 1 + 6 + 6 + 1);

        let mut empty = Circuit::new("empty");
        let zero = empty.add_const(false);
        empty.add_output(zero, "z");
        let set = enumerate_paths(&empty, 0).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.iter().next(), None);
    }

    #[test]
    fn indexing_matches_reference_on_c17_and_random_dags() {
        assert_matches_reference(&parse(C17, "c17").unwrap());
        for seed in 0..24 {
            assert_matches_reference(&random_dag(seed, 6, 30));
        }
    }

    /// A random DAG over all eight gate kinds, with repeated fanins,
    /// constants and unused nodes, and outputs anywhere (repeats allowed).
    pub(crate) fn random_dag(seed: u64, inputs: usize, gates: usize) -> Circuit {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const KINDS: [GateKind; 8] = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Buf,
            GateKind::Not,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(format!("dag{seed}"));
        for i in 0..inputs {
            c.add_input(format!("i{i}"));
        }
        if seed.is_multiple_of(3) {
            c.add_const(seed.is_multiple_of(2));
        }
        for _ in 0..gates {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let arity = if matches!(kind, GateKind::Buf | GateKind::Not) {
                1
            } else {
                rng.gen_range(2..=3)
            };
            let len = c.len();
            let fanins = (0..arity).map(|_| NodeId::from_index(rng.gen_range(0..len))).collect();
            c.add_gate(kind, fanins).unwrap();
        }
        let len = c.len();
        for k in 0..rng.gen_range(1..=3) {
            // Mostly late nodes, so the outputs see most of the logic.
            let o = len - 1 - rng.gen_range(0..len.min(6));
            c.add_output(NodeId::from_index(o), format!("o{k}"));
        }
        c
    }
}
