//! The **partitioning plan**: the output of the design-time decomposing
//! process — a mapping from input predicates to the communities whose
//! sub-window they belong to. Duplicated predicates map to several
//! communities (Section II-B).

use asp_core::{FastMap, FastSet};
use std::fmt;

/// A partitioning plan over predicate *names* (the partitioning handler
/// groups raw triples, whose predicates are names, not name/arity pairs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitioningPlan {
    /// Number of communities (= number of parallel reasoners).
    pub communities: usize,
    /// Predicate name → sorted community ids (≥1 entry; >1 ⇔ duplicated).
    pub membership: FastMap<String, Vec<u32>>,
}

impl PartitioningPlan {
    /// A single-partition plan (PR degenerates to R).
    pub fn single(predicates: impl IntoIterator<Item = String>) -> Self {
        PartitioningPlan {
            communities: 1,
            membership: predicates.into_iter().map(|p| (p, vec![0])).collect(),
        }
    }

    /// The communities of `predicate`, or `None` when the plan does not know
    /// it.
    pub fn communities_of(&self, predicate: &str) -> Option<&[u32]> {
        self.membership.get(predicate).map(Vec::as_slice)
    }

    /// Predicates assigned to more than one community.
    pub fn duplicated(&self) -> Vec<&str> {
        let mut v: Vec<&str> =
            self.membership.iter().filter(|(_, c)| c.len() > 1).map(|(p, _)| p.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// The predicate names of community `c`, sorted.
    pub fn community_members(&self, c: u32) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .membership
            .iter()
            .filter(|(_, cs)| cs.contains(&c))
            .map(|(p, _)| p.as_str())
            .collect();
        v.sort_unstable();
        v
    }

    /// Serializes to the plan text format:
    ///
    /// ```text
    /// communities 2
    /// average_speed: 0
    /// car_number: 0 1
    /// ```
    pub fn to_text(&self) -> String {
        let mut lines = vec![format!("communities {}", self.communities)];
        let mut entries: Vec<(&String, &Vec<u32>)> = self.membership.iter().collect();
        entries.sort_by_key(|(p, _)| p.as_str());
        for (p, cs) in entries {
            let ids: Vec<String> = cs.iter().map(u32::to_string).collect();
            lines.push(format!("{p}: {}", ids.join(" ")));
        }
        lines.join("\n") + "\n"
    }

    /// Checks internal consistency: ids in range, every community non-empty.
    pub fn validate(&self) -> Result<(), String> {
        let mut used: FastSet<u32> = FastSet::default();
        for (p, cs) in &self.membership {
            for &c in cs {
                if c as usize >= self.communities {
                    return Err(format!(
                        "predicate `{p}` maps to community {c} out of {}",
                        self.communities
                    ));
                }
                used.insert(c);
            }
        }
        for c in 0..self.communities as u32 {
            if !used.contains(&c) {
                return Err(format!("community {c} has no predicates"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for PartitioningPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PartitioningPlan {
        let mut membership: FastMap<String, Vec<u32>> = FastMap::default();
        membership.insert("average_speed".into(), vec![0]);
        membership.insert("traffic_light".into(), vec![0]);
        membership.insert("car_number".into(), vec![0, 1]);
        membership.insert("car_in_smoke".into(), vec![1]);
        PartitioningPlan { communities: 2, membership }
    }

    #[test]
    fn text_roundtrip() {
        let plan = sample();
        let text = "communities 2\naverage_speed: 0\ncar_in_smoke: 1\ncar_number: 0 1\n\
                    traffic_light: 0\n";
        assert_eq!(plan.to_text(), text);
        assert_eq!(plan.to_string(), text);
    }

    #[test]
    fn duplicated_lists_multi_community_predicates() {
        assert_eq!(sample().duplicated(), vec!["car_number"]);
    }

    #[test]
    fn community_members_sorted() {
        let plan = sample();
        assert_eq!(plan.community_members(0), vec!["average_speed", "car_number", "traffic_light"]);
        assert_eq!(plan.community_members(1), vec!["car_in_smoke", "car_number"]);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut plan = sample();
        plan.membership.insert("rogue".into(), vec![7]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_community() {
        let mut plan = sample();
        plan.communities = 3;
        assert!(plan.validate().unwrap_err().contains("community 2"));
    }

    #[test]
    fn single_plan() {
        let plan = PartitioningPlan::single(["p".to_string(), "q".to_string()]);
        assert_eq!(plan.communities, 1);
        assert_eq!(plan.communities_of("p"), Some(&[0u32][..]));
        assert!(plan.validate().is_ok());
    }
}
