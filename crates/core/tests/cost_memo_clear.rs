//! `identify_cache_clear` empties the cost table along with the
//! identification tables. The tables are process-wide, so this check lives
//! in its own test binary: a sibling test running concurrently in the same
//! process could refill them between the clear and the assertion.

use sft_core::memo::cost_cache_entries;
use sft_core::{identify_cache_clear, identify_cache_stats, procedure2, ResynthOptions};
use sft_netlist::bench_format::parse;

#[test]
fn identify_cache_clear_empties_the_cost_table() {
    // y = a XOR b as a sum of products: the comparison unit for [1, 2].
    let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nnb = NOT(b)\n\
               t1 = AND(a, nb)\nt2 = AND(na, b)\ny = OR(t1, t2)\n";
    let mut c = parse(src, "xor_sop").expect("valid bench");
    procedure2(&mut c, &ResynthOptions::default()).expect("resynthesis runs");
    assert!(cost_cache_entries() > 0, "scoring a comparison unit fills the cost table");
    assert!(identify_cache_stats().entries > 0);

    identify_cache_clear();
    assert_eq!(cost_cache_entries(), 0);
    assert_eq!(identify_cache_stats().entries, 0);
}
