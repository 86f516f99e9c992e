//! The **combining handler** (Section III):
//!
//! `Ans_P(W) = { ⋃_{i=1..n} ans_i  :  ans_i ∈ Ans_P(W_i) }`
//!
//! — every combined answer picks one answer set from each partition and
//! unions them. With multi-answer partitions this is the whole cross
//! product, so PR answers exactly as R does.
//!
//! Each partition's answers come to the one body either borrowed or owned.
//! Borrowed answers (held for the next window, or passed by a caller of
//! [`combine`]) are cloned into the combined answers; owned ones (freshly
//! solved and held for nothing) are moved, atom boxes and all. Partitions
//! with one answer set union into a single base in one pass
//! ([`AnswerSet::union_parts`]), which lays the predicate runs only one
//! partition holds end to end and merges only the shared ones.

use crate::config::CombinePolicy;
use asp_core::{AnswerSet, Symbols};
use std::borrow::Cow;

/// Combines per-partition answers, borrowing each partition's. Returns the
/// combined answers and the number of partitions with no answer set.
/// Generic over how each partition's answers are held (`Vec<AnswerSet>`,
/// `&[AnswerSet]`, ...), so held answers combine without being cloned out
/// first. The partitioned reasoner hands its freshly solved answers to the
/// same body owned, so they are moved rather than cloned.
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
    let parts = per_partition.iter().map(|p| Cow::Borrowed(p.as_ref())).collect();
    combine_parts(syms, parts, max_combined)
}

/// Combines per-partition answers each borrowed or owned: an owned
/// partition's atoms are moved into the combined answers, a borrowed one's
/// are cloned. The answers are the same either way.
pub(crate) fn combine_parts(
    syms: &Symbols,
    parts: Vec<Cow<'_, [AnswerSet]>>,
    max_combined: usize,
) -> (Vec<AnswerSet>, usize) {
    let unsat = parts.iter().filter(|a| a.is_empty()).count();
    if unsat > 0 {
        // The set comprehension is empty when some Ans_P(W_i) is empty.
        return (Vec::new(), unsat);
    }
    // Dominant fast path: partitions with exactly one answer set union into
    // a single base in one pass (union is commutative and the result is
    // sorted either way, so hoisting the singletons ahead of the cross
    // product cannot change the combined answers).
    let (singles, multis): (Vec<_>, Vec<_>) =
        parts.into_iter().map(each).partition(|a| a.len() == 1);
    let mut acc = vec![AnswerSet::union_parts(syms, singles.into_iter().flatten().collect())];
    for mut answers in multis {
        let mut next = Vec::with_capacity((acc.len() * answers.len()).min(max_combined));
        'outer: for (b, base) in acc.iter().enumerate() {
            // The last base takes the answers as they came: moved if owned.
            let round = if b + 1 == acc.len() {
                std::mem::take(&mut answers)
            } else {
                answers.iter().map(|a| Cow::Borrowed(&**a)).collect()
            };
            for ans in round {
                next.push(AnswerSet::union_parts(syms, vec![Cow::Borrowed(base), ans]));
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

/// A partition's answers one by one, each borrowed or owned as the
/// partition's were.
fn each(part: Cow<'_, [AnswerSet]>) -> Vec<Cow<'_, AnswerSet>> {
    match part {
        Cow::Borrowed(answers) => answers.iter().map(Cow::Borrowed).collect(),
        Cow::Owned(answers) => answers.into_iter().map(Cow::Owned).collect(),
    }
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
    fn owned_and_borrowed_parts_combine_to_the_same_bytes() {
        let syms = Symbols::new();
        // Multi-answer partitions sharing `s` (the cross product), singles
        // sharing `t`, and the same with an unsat partition among them.
        let multi = vec![
            vec![ans(&syms, &["a1", "s"]), ans(&syms, &["a2", "s"])],
            vec![ans(&syms, &["b", "t"])],
            vec![ans(&syms, &["c1", "s"]), ans(&syms, &["c2"]), ans(&syms, &["s"])],
            vec![ans(&syms, &["d", "t"])],
        ];
        let mut unsat = multi.clone();
        unsat.insert(2, Vec::new());
        let render = |out: &(Vec<AnswerSet>, usize)| {
            let sets: Vec<String> = out.0.iter().map(|a| a.display(&syms).to_string()).collect();
            (sets, out.1)
        };
        for (parts, cap) in [(&multi, usize::MAX), (&multi, 4), (&unsat, usize::MAX)] {
            let borrowed = combine(&syms, parts, CombinePolicy::Strict, cap);
            let owned = parts.iter().cloned().map(Cow::Owned).collect();
            assert_eq!(render(&combine_parts(&syms, owned, cap)), render(&borrowed));
        }
        let borrowed = combine(&syms, &multi, CombinePolicy::Strict, usize::MAX);
        assert_eq!(borrowed.0.len(), 6, "{:?}", render(&borrowed));
        assert_eq!(render(&combine(&syms, &unsat, CombinePolicy::Strict, usize::MAX)), (vec![], 1));
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
