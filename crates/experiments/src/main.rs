//! `autosens-experiments` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! autosens-experiments all               # every artifact, full scale
//! autosens-experiments fig4              # one artifact
//! autosens-experiments fig4 --bench      # smaller (smoke) dataset
//! autosens-experiments all --threads 4   # explicit worker count (0 = auto)
//! autosens-experiments list              # artifact ids
//! ```
//!
//! Each run prints the artifact's rows/series plus its shape checks, and
//! writes CSV payloads under `results/`.

use std::io::Write;
use std::path::Path;

use autosens_experiments::artifacts;
use autosens_experiments::dataset::{Dataset, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = args.iter().any(|a| a == "--bench");
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => match args.get(i + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) => n,
            _ => {
                eprintln!("--threads requires a non-negative integer");
                std::process::exit(2);
            }
        },
        None => 0,
    };
    let mut skip = false;
    let targets: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip {
                skip = false;
                return false;
            }
            if a.as_str() == "--threads" {
                skip = true;
            }
            !a.starts_with("--")
        })
        .collect();

    let target = match targets.first() {
        Some(t) => t.as_str(),
        None => {
            eprintln!(
                "usage: autosens-experiments <all|list|{}> [--bench] [--threads N]",
                artifacts::ids().join("|")
            );
            std::process::exit(2);
        }
    };

    if target == "list" {
        for id in artifacts::ids() {
            println!("{id}");
        }
        return;
    }

    let scale = if bench { Scale::Bench } else { Scale::Full };
    eprintln!("loading dataset ({scale:?})...");
    let t0 = std::time::Instant::now();
    let data = Dataset::load(scale, threads);
    eprintln!(
        "generated {} records in {:.1?}\n",
        data.log.len(),
        t0.elapsed()
    );

    let selected: Vec<artifacts::Artifact> = if target == "all" {
        artifacts::all(&data)
    } else {
        match artifacts::by_id(&data, target) {
            Some(a) => vec![a],
            None => {
                eprintln!("unknown artifact {target:?}; try `list`");
                std::process::exit(2);
            }
        }
    };

    let results_dir = Path::new("results");
    std::fs::create_dir_all(results_dir).expect("create results/");

    let mut failures = 0;
    for artifact in &selected {
        println!("================================================================");
        println!("{} — {}\n", artifact.id, artifact.title);
        println!("{}", artifact.rendered);
        println!("shape checks:");
        print!("{}", artifact.render_checks());
        if !artifact.all_pass() {
            failures += 1;
        }
        for (stem, body) in &artifact.csv {
            let path = results_dir.join(format!("{stem}.csv"));
            let mut f = std::fs::File::create(&path).expect("create CSV");
            f.write_all(body.as_bytes()).expect("write CSV");
            println!("  wrote {}", path.display());
        }
        println!();
    }

    println!("================================================================");
    println!(
        "{} artifact(s), {} with failing checks",
        selected.len(),
        failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
