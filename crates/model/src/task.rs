//! Task / application categories used throughout the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The application domain a job belongs to.
///
/// The paper benchmarks four task mixes: Vision, Language, Recommendation and
/// a combined "Mix" task that draws from all three, mirroring the job mix of a
/// multi-tenant inference data center.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum TaskType {
    /// CNN-dominated vision models (image tagging, photo auto-editing, video).
    Vision,
    /// Transformer / RNN language models (voice processing, NLP services).
    Language,
    /// Deep recommendation models (MLP + embedding dominated).
    Recommendation,
    /// A mixture of vision, language and recommendation jobs running together.
    #[default]
    Mix,
}

impl TaskType {
    /// All four task categories, in the order the paper's figures use.
    pub const ALL: [TaskType; 4] =
        [TaskType::Vision, TaskType::Language, TaskType::Recommendation, TaskType::Mix];

    /// The three *pure* (non-Mix) task categories.
    pub const PURE: [TaskType; 3] =
        [TaskType::Vision, TaskType::Language, TaskType::Recommendation];

    /// Short label used in result tables ("Vision", "Lang", "Recom", "Mix").
    pub fn short_name(self) -> &'static str {
        match self {
            TaskType::Vision => "Vision",
            TaskType::Language => "Lang",
            TaskType::Recommendation => "Recom",
            TaskType::Mix => "Mix",
        }
    }
}

impl fmt::Display for TaskType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_four_distinct_tasks() {
        let mut v = TaskType::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn pure_excludes_mix() {
        assert!(!TaskType::PURE.contains(&TaskType::Mix));
        assert_eq!(TaskType::PURE.len(), 3);
    }

    #[test]
    fn display_matches_short_name() {
        for t in TaskType::ALL {
            assert_eq!(t.to_string(), t.short_name());
        }
    }

    #[test]
    fn serde_round_trip() {
        for t in TaskType::ALL {
            let s = serde_json::to_string(&t).unwrap();
            let back: TaskType = serde_json::from_str(&s).unwrap();
            assert_eq!(t, back);
        }
    }
}
