//! Experiment drivers regenerating the evaluation of the PODC'07 brief.
//!
//! Each `figN` module reproduces one figure of the paper as a pure library
//! function returning structured rows; the `figures` binary
//! (`cargo run -p sap-bench --release --bin figures`) prints them as
//! paper-style series. Performance is measured by `perfbench` (see
//! `BENCHMARK.json`), not here.
//!
//! | Paper figure | Module | Claim being reproduced |
//! |---|---|---|
//! | Figure 2 | [`fig2`] | optimized perturbations dominate random ones |
//! | Figure 3 | [`fig3`] | optimality rates across parties & partitions |
//! | Figure 4 | [`fig4`] | lower bound on #parties vs satisfaction |
//! | Figure 5 | [`fig5_fig6`] | KNN accuracy deviation across 12 datasets |
//! | Figure 6 | [`fig5_fig6`] | SVM(RBF) accuracy deviation |

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5_fig6;
pub mod report;

/// Shared experiment scale knobs. `quick` keeps everything a few seconds per
/// figure (CI-friendly); `full` approximates the paper's round counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced rounds/candidates, for smoke runs.
    Quick,
    /// Paper-like rounds (Figure 3's "100 rounds" etc.).
    Full,
}

impl Scale {
    /// Optimization rounds per bound estimate.
    pub fn rounds(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Full => 30,
        }
    }

    /// Random/optimized draws for Figure 2's distributions.
    pub fn fig2_draws(self) -> usize {
        match self {
            Scale::Quick => 20,
            Scale::Full => 100,
        }
    }

    /// Optimizer candidates per run.
    pub fn candidates(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Full => 32,
        }
    }

    /// Session repeats per dataset/scheme cell in Figures 5–6.
    pub fn repeats(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 3,
        }
    }
}
