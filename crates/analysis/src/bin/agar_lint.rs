//! `agar-lint` — the workspace invariant gate.
//!
//! ```text
//! agar-lint [--root DIR] [--baseline FILE] [--list] [--write-baseline] [--pass ID]
//! ```
//!
//! Default mode analyzes `crates/*/src` and `src/` under `--root`
//! (default `.`), compares against the committed baseline (default
//! `ci/lint_baseline.json`) and exits non-zero on any deviation:
//! new findings, stale waivers, allow directives that suppress
//! nothing, or an unwrap/expect ratchet moving in either direction
//! without a baseline refresh.

use agar_analysis::{analyze, baseline::Baseline, diag::fingerprints, gate};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    baseline: PathBuf,
    list: bool,
    write_baseline: bool,
    pass: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: PathBuf::from("."),
        baseline: PathBuf::from("ci/lint_baseline.json"),
        list: false,
        write_baseline: false,
        pass: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => options.root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--baseline" => {
                options.baseline = PathBuf::from(args.next().ok_or("--baseline needs a value")?)
            }
            "--list" => options.list = true,
            "--write-baseline" => options.write_baseline = true,
            "--pass" => options.pass = Some(args.next().ok_or("--pass needs a value")?),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(options)
}

fn print_help() {
    println!("agar-lint: workspace invariant analyzer\n");
    println!(
        "USAGE: agar-lint [--root DIR] [--baseline FILE] [--list] [--write-baseline] [--pass ID]\n"
    );
    println!("PASSES:");
    for pass in agar_analysis::passes::registry() {
        println!("  {:22} {}", pass.id(), pass.description());
    }
    println!("\nWaive a site inline with `// agar-lint: allow(<pass-id>)` (same or previous");
    println!("line; file-wide when placed in the header docs before any code).");
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("agar-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut report = match analyze(&options.root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("agar-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = &options.pass {
        report.findings.retain(|f| f.pass == pass);
        report.stale_allows.retain(|a| a.pass == *pass);
    }

    if options.write_baseline {
        if options.pass.is_some() {
            eprintln!("agar-lint: refusing to write a baseline filtered by --pass");
            return ExitCode::from(2);
        }
        let json = report.as_baseline().to_json();
        if let Err(e) = std::fs::write(&options.baseline, json) {
            eprintln!("agar-lint: writing {}: {e}", options.baseline.display());
            return ExitCode::from(2);
        }
        println!(
            "agar-lint: wrote {} ({} waived findings, {} ratcheted files)",
            options.baseline.display(),
            report.findings.len(),
            report.ratchet.len()
        );
        return ExitCode::SUCCESS;
    }

    if options.list {
        for (fp, finding) in fingerprints(&report.findings) {
            println!("{finding}");
            println!("  = fingerprint: {fp}\n");
        }
        for stale in &report.stale_allows {
            println!("{}\n", agar_analysis::Violation::StaleAllow(stale.clone()));
        }
        println!(
            "agar-lint: {} findings, {} stale allow directives",
            report.findings.len(),
            report.stale_allows.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&options.baseline) {
        Ok(text) => match Baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("agar-lint: parsing {}: {e}", options.baseline.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!(
                "agar-lint: reading baseline {}: {e} (run with --write-baseline to create it)",
                options.baseline.display()
            );
            return ExitCode::from(2);
        }
    };

    let violations = gate(&report, &baseline);
    if violations.is_empty() {
        println!(
            "agar-lint: clean — {} waived findings, {} ratcheted files, 5 passes",
            baseline.waived.len(),
            baseline.ratchet.len()
        );
        return ExitCode::SUCCESS;
    }
    for violation in &violations {
        eprintln!("{violation}\n");
    }
    eprintln!(
        "agar-lint: {} violation(s) against the committed baseline",
        violations.len()
    );
    ExitCode::FAILURE
}
