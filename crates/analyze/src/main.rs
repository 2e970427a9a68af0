#![forbid(unsafe_code)]
//! Command-line front end for the workspace linter.
//!
//! ```text
//! cargo run -p hoga-analyze [--root PATH] [--format text|json] [--report PATH] [--stats]
//! ```
//!
//! `--report` additionally writes the JSON findings report to a file (the
//! artifact CI archives) regardless of the console `--format`; the write
//! is atomic (temp file + rename) so a killed run never leaves a torn
//! report. Every run analyzes every file from source: there is no state
//! between runs to configure.
//!
//! Exit status: 0 = clean, 1 = findings reported, 2 = usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hoga_analyze::rules::Finding;
use hoga_analyze::{analyze_workspace, render_json, render_text};

enum Format {
    Text,
    Json,
}

/// Every flag the binary accepts, with its metavar (if any) and help
/// line. The `--help` output and the usage string are generated from this
/// table, and the CLI test asserts every entry appears in `--help` — a
/// new flag cannot be added without documenting it.
const FLAGS: &[(&str, &str, &str)] = &[
    ("--root", "PATH", "workspace root to analyze (default: this binary's workspace)"),
    ("--format", "text|json", "console output format (default: text)"),
    ("--report", "PATH", "also write the JSON findings report atomically to PATH"),
    ("--stats", "", "print analysis statistics to stderr"),
    ("--help", "", "show this help"),
];

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut report: Option<PathBuf> = None;
    let mut show_stats = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--report" => match args.next() {
                Some(p) => report = Some(PathBuf::from(p)),
                None => return usage("--report needs a path"),
            },
            "--stats" => show_stats = true,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some(other) => return usage(&format!("unknown format `{other}`")),
                None => return usage("--format needs `text` or `json`"),
            },
            "--help" | "-h" => {
                print!("{}", help_text());
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Default to the workspace that this binary was built from, so plain
    // `cargo run -p hoga-analyze` does the right thing from any cwd.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    let (findings, stats, _graph) = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hoga-analyze: error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &report {
        if let Err(e) = write_atomic(path, &render_json(&findings)) {
            eprintln!("hoga-analyze: error writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    match format {
        Format::Text => {
            print!("{}", render_text(&findings));
            if findings.is_empty() {
                eprintln!("hoga-analyze: workspace clean");
            } else {
                eprintln!("hoga-analyze: {}", severity_summary(&findings));
            }
        }
        Format::Json => print!("{}", render_json(&findings)),
    }

    if show_stats {
        eprintln!(
            "hoga-analyze: stats: {} file(s); call graph: {} node(s), {} edge(s), {} scc(s)",
            stats.files, stats.call_nodes, stats.call_edges, stats.call_sccs
        );
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// ` [--flag METAVAR]` for every flag but `--help`.
fn synopsis() -> String {
    let mut out = String::new();
    for (flag, metavar, _) in FLAGS.iter().filter(|(flag, ..)| *flag != "--help") {
        let sep = if metavar.is_empty() { "" } else { " " };
        out.push_str(&format!(" [{flag}{sep}{metavar}]"));
    }
    out
}

fn help_text() -> String {
    let mut out = format!(
        "hoga-analyze: workspace linter + invariant auditor\n\nUSAGE: hoga-analyze{}\n\nOPTIONS:\n",
        synopsis()
    );
    for (flag, metavar, help) in FLAGS {
        let left =
            if metavar.is_empty() { (*flag).to_string() } else { format!("{flag} {metavar}") };
        out.push_str(&format!("  {left:<32} {help}\n"));
    }
    out.push_str(
        "\nWalks every .rs file under the workspace root and reports rule\n\
         violations as file:line:col diagnostics. Exits 0 when clean, 1 when\n\
         findings exist, 2 on a usage or I/O error. See docs/STATIC_ANALYSIS.md\n\
         for the rule catalogue.\n",
    );
    out
}

/// Writes through a sibling temp file + rename so readers never observe a
/// partial report.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn severity_summary(findings: &[Finding]) -> String {
    let errors = findings.iter().filter(|f| f.severity() == "error").count();
    let warnings = findings.len() - errors;
    format!("{} violation(s): {errors} error(s), {warnings} warning(s)", findings.len())
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("hoga-analyze: {msg}\nUSAGE: hoga-analyze{}", synopsis());
    ExitCode::from(2)
}
