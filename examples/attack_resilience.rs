//! Attack resilience: runs the full attack suite against random vs
//! optimized geometric perturbations at several noise levels — the scenario
//! behind the paper's Figure 2 and the SDM'07 threat model.
//!
//! ```text
//! cargo run --example attack_resilience --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::registry::UciDataset;
use sap_repro::perturb::GeometricPerturbation;
use sap_repro::privacy::attack::{AttackSuite, AttackerKnowledge};
use sap_repro::privacy::optimize::{optimize, OptimizerConfig};

fn main() {
    let (data, _) = min_max_normalize(&UciDataset::Diabetes.generate(7));
    let x = data.to_column_matrix();
    println!(
        "Diabetes stand-in: {} records × {} attributes",
        x.cols(),
        x.rows()
    );

    // Worst-case adversary: exact marginals + covariance + 6 known records.
    let sample = {
        let cols: Vec<Vec<f64>> = (0..400.min(x.cols())).map(|c| x.column(c)).collect();
        sap_repro::linalg::Matrix::from_columns(&cols)
    };
    let knowledge = AttackerKnowledge::worst_case(&sample, 6);
    let suite = AttackSuite::standard();
    let mut rng = StdRng::seed_from_u64(11);

    println!("\n-- per-attack privacy (rho) for one random perturbation, sigma = 0.05 --");
    let g = GeometricPerturbation::random(x.rows(), 0.05, &mut rng);
    let (y, _) = g.perturb(&sample, &mut rng);
    for outcome in suite.run(&sample, &y, &knowledge) {
        match outcome.privacy {
            Some(rho) => println!("  {:<22} rho = {rho:.3}", outcome.attack),
            None => println!("  {:<22} (not applicable)", outcome.attack),
        }
    }

    println!("\n-- random vs optimized perturbation across noise levels --");
    println!(
        "{:>8} {:>14} {:>16}",
        "sigma", "random rho", "optimized rho"
    );
    for sigma in [0.0, 0.02, 0.05, 0.1, 0.2] {
        let g = GeometricPerturbation::random(x.rows(), sigma, &mut rng);
        let (y, _) = g.perturb(&sample, &mut rng);
        let rho_random = suite.privacy_guarantee(&sample, &y, &knowledge);

        let config = OptimizerConfig {
            candidates: 16,
            noise_sigma: sigma,
            known_points: 6,
            eval_sample: 300,
            use_ica: true,
        };
        let opt = optimize(&sample, &config, &mut rng).expect("valid optimizer config");
        println!(
            "{sigma:>8.2} {rho_random:>14.3} {:>16.3}",
            opt.privacy_guarantee
        );
    }

    println!("\nReading: without noise (sigma=0) the known-point attack fully breaks");
    println!("any rotation (rho ~ 0); noise restores a privacy floor, and optimized");
    println!("rotations dominate random ones at every noise level — Figure 2's claim.");
}
