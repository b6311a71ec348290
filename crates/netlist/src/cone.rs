//! Cone extraction: the function a line implements in terms of a cut of
//! input lines, as a truth table.

use crate::{Circuit, GateKind, NetlistError, NodeId};
use sft_truth::{TruthTable, MAX_INPUTS};

impl Circuit {
    /// The Boolean function of line `root` in terms of the ordered cut
    /// `inputs` (input 0 is the most significant minterm bit, matching the
    /// paper's `x_1`-is-MSB convention).
    ///
    /// Constants *are* allowed inside the cone; they simply contribute their
    /// value. The cut lines may be any lines of the circuit (gate outputs or
    /// primary inputs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cone`] if `inputs` has more than
    /// [`MAX_INPUTS`] lines, contains duplicates, or does not cut every path
    /// from `root` to the primary inputs.
    ///
    /// # Examples
    ///
    /// ```
    /// use sft_netlist::{Circuit, GateKind};
    ///
    /// let mut c = Circuit::new("t");
    /// let a = c.add_input("a");
    /// let b = c.add_input("b");
    /// let g = c.add_gate(GateKind::Nand, vec![a, b])?;
    /// let f = c.cone_function(g, &[a, b])?;
    /// assert_eq!(f.on_set().collect::<Vec<_>>(), vec![0, 1, 2]);
    /// # Ok::<(), sft_netlist::NetlistError>(())
    /// ```
    pub fn cone_function(
        &self,
        root: NodeId,
        inputs: &[NodeId],
    ) -> Result<TruthTable, NetlistError> {
        if inputs.len() > MAX_INPUTS {
            return Err(NetlistError::Cone(format!(
                "cut has {} lines, more than the supported {MAX_INPUTS}",
                inputs.len()
            )));
        }
        for (i, a) in inputs.iter().enumerate() {
            if inputs[..i].contains(a) {
                return Err(NetlistError::Cone(format!("duplicate cut line {a}")));
            }
        }
        // Evaluate the cone over all 2^k cut assignments using word-parallel
        // simulation: with k <= 7 all 128 minterms fit in two u64 words.
        // The walk is cone-local (memoized DFS), so the cost is proportional
        // to the cone size, not the circuit size — this is the hot path of
        // the resynthesis candidate search. Cones of bounded cuts hold a
        // handful of gates, so the memo is a linear scratch, not a map.
        let k = inputs.len();
        let words = if k > 6 { 2 } else { 1 };
        let mut values: Vec<(NodeId, [u64; 2])> = Vec::with_capacity(2 * MAX_INPUTS);
        // Cut line i (MSB-first) gets the pattern where bit m of word w is
        // bit (k-1-i) of minterm (w*64+m).
        for (i, &line) in inputs.iter().enumerate() {
            let bit = k - 1 - i;
            let v = match VARIABLE_WORDS.get(bit) {
                Some(&pattern) => [pattern, pattern],
                None => [0, u64::MAX], // bit 6 selects the second word
            };
            values.push((line, v));
        }
        // Iterative post-order DFS from the root.
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        let mut buf: Vec<u64> = Vec::new();
        while let Some((n, expanded)) = stack.pop() {
            if lookup(&values, n).is_some() {
                continue;
            }
            let node = self.node(n);
            match node.kind() {
                GateKind::Const0 => values.push((n, [0, 0])),
                GateKind::Const1 => values.push((n, [u64::MAX, u64::MAX])),
                GateKind::Input => {
                    return Err(NetlistError::Cone(format!(
                        "primary input {n} reached without crossing the cut"
                    )));
                }
                kind => {
                    if expanded {
                        let mut out = [0u64; 2];
                        for (w, o) in out.iter_mut().enumerate().take(words) {
                            buf.clear();
                            buf.extend(node.fanins().iter().map(|&f| {
                                lookup(&values, f).expect("fanins evaluate before their gate")[w]
                            }));
                            *o = kind.try_eval_words(&buf).ok_or_else(|| {
                                NetlistError::Cone(format!("gate {n} ({kind}) is malformed"))
                            })?;
                        }
                        values.push((n, out));
                    } else {
                        stack.push((n, true));
                        for &f in node.fanins() {
                            if lookup(&values, f).is_none() {
                                stack.push((f, false));
                            }
                        }
                    }
                }
            }
        }
        let root_vals = lookup(&values, root).expect("the root is evaluated last");
        Ok(TruthTable::from_bits(k, u128::from(root_vals[0]) | u128::from(root_vals[1]) << 64))
    }
}

/// Bit `b` of the minterm index, replicated over a 64-minterm word, for
/// `b < 6` (bit 6 is constant within a word).
const VARIABLE_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The simulated words of `n`, if the cone walk has evaluated it.
fn lookup(values: &[(NodeId, [u64; 2])], n: NodeId) -> Option<[u64; 2]> {
    values.iter().find(|&&(m, _)| m == n).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_through_internal_gate() {
        // root = OR(AND(a,b), c); cut {AND, c} gives a 2-input OR table.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x = c.add_input("c");
        let g1 = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        let g2 = c.add_gate(GateKind::Or, vec![g1, x]).unwrap();
        c.add_output(g2, "y");
        let f = c.cone_function(g2, &[g1, x]).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![1, 2, 3]);
        // Full cut gives the 3-input function.
        let f3 = c.cone_function(g2, &[a, b, x]).unwrap();
        assert_eq!(f3.on_count(), 5); // ab + c has 5 on-minterms of 8
    }

    #[test]
    fn cut_must_dominate() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b]).unwrap();
        c.add_output(g, "y");
        assert!(c.cone_function(g, &[a]).is_err());
    }

    #[test]
    fn duplicate_cut_lines_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Not, vec![a]).unwrap();
        c.add_output(g, "y");
        assert!(c.cone_function(g, &[a, a]).is_err());
    }

    #[test]
    fn constants_inside_cone() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let k1 = c.add_const(true);
        let g = c.add_gate(GateKind::And, vec![a, k1]).unwrap();
        c.add_output(g, "y");
        let f = c.cone_function(g, &[a]).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn seven_input_cone() {
        let mut c = Circuit::new("t");
        let ins: Vec<_> = (0..7).map(|i| c.add_input(format!("i{i}"))).collect();
        let g = c.add_gate(GateKind::And, ins.clone()).unwrap();
        c.add_output(g, "y");
        let f = c.cone_function(g, &ins).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![127]);
    }

    #[test]
    fn root_in_cut_is_identity() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Not, vec![a]).unwrap();
        c.add_output(g, "y");
        let f = c.cone_function(g, &[g]).unwrap();
        assert_eq!(f, sft_truth::TruthTable::variable(1, 0));
    }

    #[test]
    fn msb_convention_matches_paper() {
        // f(x1,x2) with cut order [p, q]: p is x1 (MSB).
        let mut c = Circuit::new("t");
        let p = c.add_input("p");
        let q = c.add_input("q");
        let g = c.add_gate(GateKind::And, vec![p, q]).unwrap();
        let np = c.add_gate(GateKind::Not, vec![p]).unwrap();
        let h = c.add_gate(GateKind::Or, vec![np, g]).unwrap();
        c.add_output(h, "y");
        // h = !p + pq; minterms (p,q): 00->1, 01->1, 10->0, 11->1.
        let f = c.cone_function(h, &[p, q]).unwrap();
        assert_eq!(f.on_set().collect::<Vec<_>>(), vec![0, 1, 3]);
        // Reversed cut order swaps the roles.
        let f_rev = c.cone_function(h, &[q, p]).unwrap();
        assert_eq!(f_rev.on_set().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    /// The word-parallel walk agrees with evaluating the cone one minterm
    /// at a time, for every gate of a random DAG and cuts of 1–7 lines
    /// (including the two-word 7-line case and constants in the cone).
    #[test]
    fn matches_per_minterm_evaluation() {
        fn eval(c: &Circuit, n: NodeId, cut: &[NodeId], m: u64) -> bool {
            if let Some(i) = cut.iter().position(|&x| x == n) {
                return m >> (cut.len() - 1 - i) & 1 == 1;
            }
            let node = c.node(n);
            let fanins: Vec<bool> = node.fanins().iter().map(|&f| eval(c, f, cut, m)).collect();
            node.kind().eval(&fanins)
        }
        let mut rng = 0x0DDB_1A5E_5BADu64;
        let mut next = move |bound: usize| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound
        };
        let mut c = Circuit::new("t");
        let mut lines: Vec<NodeId> = (0..7).map(|i| c.add_input(format!("i{i}"))).collect();
        lines.push(c.add_const(true));
        lines.push(c.add_const(false));
        let kinds = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Xor, GateKind::Not];
        for _ in 0..40 {
            let kind = kinds[next(kinds.len())];
            let arity = if kind == GateKind::Not { 1 } else { 2 + next(2) };
            let fanins = (0..arity).map(|_| lines[next(lines.len())]).collect();
            lines.push(c.add_gate(kind, fanins).unwrap());
        }
        let inputs = c.inputs().to_vec();
        for &root in &lines[9..] {
            for k in 1..=7 {
                // A cut of k primary inputs in a scrambled order; cones the
                // cut does not dominate must fail.
                let mut cut = inputs.clone();
                for i in (1..cut.len()).rev() {
                    cut.swap(i, next(i + 1));
                }
                cut.truncate(k);
                let Ok(f) = c.cone_function(root, &cut) else { continue };
                for m in 0..1u64 << k {
                    assert_eq!(f.value(m), eval(&c, root, &cut, m), "{root} cut {cut:?} m={m}");
                }
            }
        }
    }
}
