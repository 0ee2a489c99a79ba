//! Regenerates every figure of the paper's evaluation as text tables.
//!
//! ```text
//! cargo run -p sap-bench --release --bin figures -- --fig all --scale quick
//! cargo run -p sap-bench --release --bin figures -- --fig 5 --scale full
//! ```

use sap_bench::fig5_fig6::FigClassifier::{self, Knn, SvmRbf};
use sap_bench::report::{f2s, f3, render_histogram, render_table};
use sap_bench::{ablation, fig2, fig3, fig4, fig5_fig6, Scale};
use sap_datasets::UciDataset;

type Draw = fn(Scale, u64);

/// Every `--fig` value except `all`, in the order `--fig all` draws them.
const FIGS: [(&str, Draw); 6] = [
    ("2", figure2),
    ("3", figure3),
    ("4", |_, _| figure4()),
    ("5", |scale, seed| figure56(Knn, scale, seed)),
    ("6", |scale, seed| figure56(SvmRbf, scale, seed)),
    ("ablation", |_, seed| ablations(seed)),
];

/// The `--fig` choices as the usage line spells them.
fn fig_choices() -> String {
    FIGS.iter()
        .fold("all".into(), |s, (name, _)| s + "|" + name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig = String::from("all");
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                fig = match args.get(i) {
                    Some(f) if f == "all" || FIGS.iter().any(|&(name, _)| *f == name) => f.clone(),
                    _ => usage(&format!("--fig takes {}", fig_choices())),
                };
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("full") => Scale::Full,
                    _ => usage("--scale takes quick|full"),
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed takes a u64"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    for (name, draw) in FIGS {
        if fig == "all" || fig == name {
            draw(scale, seed);
        }
    }
}

fn ablations(seed: u64) {
    println!("== Ablations (docs/PRIVACY.md, \"Ablations\") ==\n");

    let rows = ablation::noise_sweep(
        UciDataset::Diabetes,
        &[0.0, 0.02, 0.05, 0.1, 0.2, 0.4],
        seed,
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.sigma),
                f3(r.privacy),
                format!("{:.1}%", 100.0 * r.knn_accuracy),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Noise sweep (Diabetes): privacy vs KNN accuracy",
            &["sigma", "min privacy", "KNN accuracy"],
            &table,
        )
    );

    let rows = ablation::composition_ablation(UciDataset::Diabetes, 0.05, seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.variant.to_string(), f3(r.privacy)])
        .collect();
    println!(
        "{}",
        render_table(
            "Perturbation composition at sigma = 0.05 (Diabetes)",
            &["variant", "min privacy"],
            &table,
        )
    );

    let rows = ablation::known_point_sweep(UciDataset::Diabetes, 0.05, &[0, 2, 4, 8, 16, 32], seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.known_points.to_string(),
                r.privacy.map_or("n/a".into(), f3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Distance-inference attack vs known-point budget (Diabetes, sigma 0.05)",
            &["known points", "min privacy"],
            &table,
        )
    );
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: figures [--fig {}] [--scale quick|full] [--seed N]",
        fig_choices()
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn figure2(scale: Scale, seed: u64) {
    println!("== Figure 2: random vs optimized perturbation privacy guarantee ==\n");
    let mut rows = Vec::new();
    for ds in [UciDataset::Diabetes, UciDataset::Votes, UciDataset::Iris] {
        let r = fig2::run(ds, scale, seed);
        rows.push(vec![
            r.dataset.to_string(),
            f3(r.random_mean()),
            f3(r.optimized_mean()),
            f3(r.dominance()),
        ]);
        if ds == UciDataset::Diabetes {
            let lo = 0.0;
            let hi = r
                .optimized
                .iter()
                .chain(&r.random)
                .fold(0.0_f64, |m, &x| m.max(x))
                * 1.05;
            println!("Diabetes ρ distribution (random):");
            println!("{}", render_histogram(&r.random, lo, hi, 10));
            println!("Diabetes ρ distribution (optimized):");
            println!("{}", render_histogram(&r.optimized, lo, hi, 10));
        }
    }
    println!(
        "{}",
        render_table(
            "Figure 2 summary",
            &[
                "dataset",
                "mean rho (random)",
                "mean rho (optimized)",
                "P(opt > rand)"
            ],
            &rows,
        )
    );
}

fn figure3(scale: Scale, seed: u64) {
    println!("== Figure 3: optimality rates vs #parties ==\n");
    let rows = fig3::run(scale, seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} - {}", r.dataset, r.scheme),
                r.parties.to_string(),
                f3(r.optimality_rate),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 3: mean optimality rate per party",
            &["series", "# parties", "optimality rate"],
            &table,
        )
    );
}

fn figure4() {
    println!("== Figure 4: lower bound on #parties vs satisfaction level ==\n");
    let curves = fig4::run();
    let axis = fig4::s0_axis();
    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(axis.iter().map(|s| format!("{s:.2}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            std::iter::once(format!("{}: opt-rate {}", c.dataset, c.opt_rate))
                .chain(
                    c.points
                        .iter()
                        .map(|(_, k)| k.map_or_else(|| "∞".to_string(), |k| k.to_string())),
                )
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_table("Figure 4: minimum # of parties", &header_refs, &table)
    );
}

fn figure56(classifier: FigClassifier, scale: Scale, seed: u64) {
    let name = match classifier {
        Knn => "KNN",
        SvmRbf => "SVM(RBF)",
    };
    println!(
        "== Figure {}: accuracy deviation for the {name} classifier ==\n",
        classifier.figure()
    );
    let rows = fig5_fig6::run(classifier, scale, seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.scheme == "Uniform")
        .map(|r| {
            let class_dev = rows
                .iter()
                .find(|q| q.dataset == r.dataset && q.scheme == "Class")
                .map_or(f64::NAN, |q| q.deviation);
            vec![
                r.dataset.to_string(),
                format!("{:.1}%", 100.0 * r.baseline_accuracy),
                f2s(r.deviation),
                f2s(class_dev),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Figure {} ({name}) — deviation in accuracy points",
                classifier.figure()
            ),
            &["dataset", "baseline acc", "SAP - Uniform", "SAP - Class"],
            &table,
        )
    );
}
