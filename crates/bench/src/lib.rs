//! # ceps-bench
//!
//! The experiment harness: for **every figure in the paper's evaluation
//! section** (Sec. 7) there is a runner here that regenerates the same
//! series on the synthetic DBLP stand-in:
//!
//! | Paper artifact | Runner | What it sweeps |
//! |---|---|---|
//! | Fig. 2 (connection subgraph case study) | [`figures::case_studies`] | CePS vs delivered current, both query orders |
//! | Fig. 1 / Fig. 3 (multi-query case studies) | [`figures::case_studies`] | `AND` vs `K_softAND` on cross-community queries |
//! | Fig. 4(a)(b) | [`figures::fig4`] | NRatio / ERatio vs budget `b`, per query count `Q` |
//! | Fig. 5(a)(b) | [`figures::fig5`] | NRatio / ERatio vs normalization `α`, per `Q` |
//! | Fig. 6(a)(b) + the 6:1 headline | [`figures::fig6`] | RelRatio & response time vs partition count `p` |
//!
//! The `experiments` binary drives them and writes printed tables plus CSV
//! and JSON files; `EXPERIMENTS.md` at the workspace root records the
//! measured numbers next to the paper's.
//!
//! Criterion micro-benchmarks (in `benches/`) cover the substrate
//! hot paths: the RWR solver, score combination, EXTRACT, and the
//! partitioner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod regression;
pub mod report;
pub mod rss;
pub mod workload;

/// Scale presets for the experiment graphs.
///
/// Variants are declared smallest-first, so the derived `Ord` compares by
/// graph size (used by the nodes × threads sweep to cap its largest scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// ~100 nodes — CI-friendly smoke scale.
    Tiny,
    /// ~1K nodes — default for quick local runs.
    Small,
    /// ~10K nodes — evaluation sweeps.
    Medium,
    /// ~80K nodes — timing experiments.
    Large,
    /// ~315K nodes — the paper's DBLP scale.
    Paper,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The generator configuration for this scale.
    pub fn config(self) -> ceps_datagen::CoauthorConfig {
        match self {
            Scale::Tiny => ceps_datagen::CoauthorConfig::tiny(),
            Scale::Small => ceps_datagen::CoauthorConfig::small(),
            Scale::Medium => ceps_datagen::CoauthorConfig::medium(),
            Scale::Large => ceps_datagen::CoauthorConfig::large(),
            Scale::Paper => ceps_datagen::CoauthorConfig::paper_scale(),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
            Scale::Paper => "paper",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_round_trips() {
        for s in [
            Scale::Tiny,
            Scale::Small,
            Scale::Medium,
            Scale::Large,
            Scale::Paper,
        ] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scales_order_by_size() {
        assert!(Scale::Tiny < Scale::Small);
        assert!(Scale::Small < Scale::Medium);
        assert!(Scale::Medium < Scale::Large);
        assert!(Scale::Large < Scale::Paper);
    }
}
