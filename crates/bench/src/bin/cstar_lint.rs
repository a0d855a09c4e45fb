//! `cstar-lint` — the mini-C\*\* diagnostics front end.
//!
//! Compiles each given `.cstar` file, runs the W001–W007/E008 lint suite,
//! and (with `--oracle`) the static↔dynamic schedule oracle. Renders
//! rustc-style caret diagnostics by default, or a lossless JSON array with
//! `--json`. With `--emit-directives` the placed
//! [`DirectivePlan`](prescient_cstar::directives::DirectivePlan) of each
//! file — including `CommutativeMerge` ops — is serialized to stdout as
//! one JSON document per line (diagnostics then go to stderr), so a build
//! system can hand the plan straight to the runtime.
//!
//! ```text
//! usage: cstar-lint [--json] [--deny-warnings] [--oracle]
//!                   [--emit-directives] [--nodes N] [--seed S]
//!                   <file.cstar>...
//! ```
//!
//! Exit status: 0 clean, 1 on any error (or warning under
//! `--deny-warnings`), 2 on usage/IO problems.

use std::process::ExitCode;

use prescient_cstar::sema::ClassifyRules;
use prescient_cstar::{compile_diag, lint_program, run_oracle_compiled, Diagnostic, OracleConfig};

struct Opts {
    json: bool,
    deny_warnings: bool,
    oracle: bool,
    emit_directives: bool,
    nodes: usize,
    seed: u64,
    files: Vec<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        json: false,
        deny_warnings: false,
        oracle: false,
        emit_directives: false,
        nodes: 4,
        seed: 0x5eed,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => o.json = true,
            "--deny-warnings" => o.deny_warnings = true,
            "--oracle" => o.oracle = true,
            "--emit-directives" => o.emit_directives = true,
            "--nodes" => {
                o.nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--nodes needs a positive integer")?;
            }
            "--seed" => {
                o.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--help" | "-h" => {
                return Err("usage: cstar-lint [--json] [--deny-warnings] [--oracle] \
                            [--emit-directives] [--nodes N] [--seed S] <file.cstar>..."
                    .to_string())
            }
            f if !f.starts_with('-') => o.files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    if o.files.is_empty() {
        return Err("no input files (usage: cstar-lint [options] <file.cstar>...)".to_string());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("cstar-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut all: Vec<Diagnostic> = Vec::new();
    let mut rendered = String::new();
    for file in &opts.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cstar-lint: cannot read `{file}`: {e}");
                return ExitCode::from(2);
            }
        };
        let diags = match compile_diag(&src, true, ClassifyRules::default()) {
            Err(d) => vec![d],
            Ok(prog) => {
                if opts.emit_directives {
                    // One plan document per input line; stdout carries
                    // nothing else in this mode.
                    println!("{}", prog.plan.to_json());
                }
                let mut ds = lint_program(&prog);
                if opts.oracle {
                    let cfg = OracleConfig { nodes: opts.nodes, block_size: 8, seed: opts.seed };
                    let report = run_oracle_compiled(&prog, &cfg);
                    eprintln!(
                        "cstar-lint: oracle[{file}]: {} observed events, {} predicted access \
                         classes, {} never fired (imprecision {:.2})",
                        report.observed_events,
                        report.predictions,
                        report.unobserved,
                        report.imprecision_ratio(),
                    );
                    ds.extend(report.diagnostics);
                }
                ds
            }
        };
        for d in diags {
            let d = d.with_file(file.clone());
            if !opts.json {
                if !rendered.is_empty() {
                    rendered.push('\n');
                }
                rendered.push_str(&d.render(&src, file));
            }
            all.push(d);
        }
    }

    let errors = all.iter().filter(|d| d.is_error()).count();
    let warnings = all.len() - errors;
    if opts.json {
        // `--emit-directives` owns stdout; diagnostics move to stderr.
        if opts.emit_directives {
            eprintln!("{}", Diagnostic::json_array(&all));
        } else {
            println!("{}", Diagnostic::json_array(&all));
        }
    } else {
        if opts.emit_directives {
            eprint!("{rendered}");
        } else {
            print!("{rendered}");
        }
        eprintln!(
            "cstar-lint: {} file(s), {errors} error(s), {warnings} warning(s)",
            opts.files.len()
        );
    }

    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
