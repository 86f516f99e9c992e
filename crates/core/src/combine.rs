//! The **combining handler** (Section III):
//!
//! `Ans_P(W) = { ⋃_{i=1..n} ans_i  :  ans_i ∈ Ans_P(W_i) }`
//!
//! — every combined answer picks one answer set from each partition and
//! unions them. With multi-answer partitions this is the whole cross
//! product, so PR answers exactly as R does.

use crate::config::CombinePolicy;
use asp_core::{AnswerSet, Symbols};

/// Combines per-partition answers. Returns the combined answers and the
/// number of partitions with no answer set. Generic over how each
/// partition's answers are held (`Vec<AnswerSet>`, `&[AnswerSet]`, ...), so
/// the incremental reasoner can combine cached answers without cloning them
/// out of the cache first.
///
/// `policy` has one value. `max_combined` stops the product after that many
/// answers; the reasoners pass `usize::MAX`, so they never cut it. Both
/// parameters stay only because the benchmark's measured surface passes
/// them.
pub fn combine<P: AsRef<[AnswerSet]>>(
    syms: &Symbols,
    per_partition: &[P],
    _policy: CombinePolicy,
    max_combined: usize,
) -> (Vec<AnswerSet>, usize) {
    let unsat = per_partition.iter().filter(|a| a.as_ref().is_empty()).count();
    if unsat > 0 {
        // The set comprehension is empty when some Ans_P(W_i) is empty.
        return (Vec::new(), unsat);
    }
    // Dominant fast path: partitions with exactly one answer set union into
    // a single base via one k-way merge (union is commutative and the
    // result is key-sorted either way, so hoisting the singletons ahead of
    // the cross product cannot change the combined answers).
    let singles: Vec<&AnswerSet> =
        per_partition.iter().map(AsRef::as_ref).filter(|a| a.len() == 1).map(|a| &a[0]).collect();
    let mut acc: Vec<AnswerSet> = vec![AnswerSet::union_many(syms, &singles)];
    for answers in per_partition {
        let answers = answers.as_ref();
        if answers.len() == 1 {
            continue; // singletons are in the base
        }
        let mut next = Vec::with_capacity((acc.len() * answers.len()).min(max_combined));
        'outer: for base in &acc {
            for ans in answers {
                next.push(base.union(ans, syms));
                if next.len() >= max_combined {
                    break 'outer;
                }
            }
        }
        acc = next;
    }
    // Distinct partitions may combine to identical unions.
    acc.dedup();
    (acc, unsat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp_core::{GroundAtom, GroundTerm};

    fn ans(syms: &Symbols, names: &[&str]) -> AnswerSet {
        AnswerSet::new(
            names
                .iter()
                .map(|n| GroundAtom::new(syms.intern(n), vec![GroundTerm::Int(1)]))
                .collect(),
            syms,
        )
    }

    #[test]
    fn single_answers_union() {
        let syms = Symbols::new();
        let parts = vec![vec![ans(&syms, &["a"])], vec![ans(&syms, &["b"])]];
        let (combined, unsat) = combine(&syms, &parts, CombinePolicy::Strict, 16);
        assert_eq!(unsat, 0);
        assert_eq!(combined.len(), 1);
        assert_eq!(combined[0].len(), 2);
    }

    #[test]
    fn cross_product_of_multi_answer_partitions() {
        let syms = Symbols::new();
        let parts = vec![
            vec![ans(&syms, &["a1"]), ans(&syms, &["a2"])],
            vec![ans(&syms, &["b1"]), ans(&syms, &["b2"])],
        ];
        let (combined, _) = combine(&syms, &parts, CombinePolicy::Strict, 16);
        assert_eq!(combined.len(), 4);
    }

    #[test]
    fn cap_limits_cross_product() {
        let syms = Symbols::new();
        let many: Vec<AnswerSet> = (0..10).map(|i| ans(&syms, &[&format!("x{i}")])).collect();
        let parts = vec![many.clone(), many];
        let (combined, _) = combine(&syms, &parts, CombinePolicy::Strict, 7);
        assert_eq!(combined.len(), 7);
    }

    #[test]
    fn strict_empties_on_unsat_partition() {
        let syms = Symbols::new();
        let parts = vec![vec![ans(&syms, &["a"])], vec![]];
        let (combined, unsat) = combine(&syms, &parts, CombinePolicy::Strict, 16);
        assert!(combined.is_empty());
        assert_eq!(unsat, 1);
    }

    #[test]
    fn identical_unions_deduplicate() {
        let syms = Symbols::new();
        let parts = vec![vec![ans(&syms, &["a"]), ans(&syms, &["a"])], vec![ans(&syms, &["b"])]];
        let (combined, _) = combine(&syms, &parts, CombinePolicy::Strict, 16);
        assert_eq!(combined.len(), 1);
    }

    #[test]
    fn no_partitions_yields_single_empty_answer() {
        let syms = Symbols::new();
        let (combined, unsat) = combine::<Vec<AnswerSet>>(&syms, &[], CombinePolicy::Strict, 16);
        assert_eq!(unsat, 0);
        assert_eq!(combined.len(), 1);
        assert!(combined[0].is_empty());
    }
}
