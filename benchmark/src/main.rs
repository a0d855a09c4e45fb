//! `prescient-benchmark`: the repo benchmark's command line. See README.md.

use std::path::PathBuf;
use std::process::ExitCode;

use prescient_benchmark::host;
use prescient_benchmark::run::{self, Options};
use prescient_benchmark::sets;
use prescient_benchmark::workload::{self, Workload};

const USAGE: &str = "\
usage: prescient-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
       prescient-benchmark --aa [--seed N] [--seconds S] [--quick]
       prescient-benchmark --record DIR --commit ID [--seed N] [--seconds S]

  --workload NAME  water | barnes | adaptive | adaptive_observed; one process, one result line
  --seed N         make the inputs from N (0, the default: the paper's inputs)
  --seconds S      budget of the whole run, cold rep included (default 30)
  --trace 0|1      0: end-to-end metrics; 1: traced run with layer probes and attribution
  --quick          8 nodes, reduced inputs, two timed reps: a smoke test, never a reported number
  --out FILE       also write per-rep values, summaries and harness spans as JSON
  --aa             run every workload twice, untraced, and hold the two sets to the bounds
  --record DIR     five untraced runs and a traced run of every workload: write DIR/baseline.json
                   and append a row labelled --commit ID to DIR/history.jsonl";

struct Cli {
    workload: Option<String>,
    aa: bool,
    record: Option<PathBuf>,
    commit: Option<String>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        aa: false,
        record: None,
        commit: None,
        opts: Options { seed: 0, seconds: 30.0, trace: false, quick: false, out: None },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.opts.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => cli.opts.out = Some(PathBuf::from(value()?)),
            "--quick" => cli.opts.quick = true,
            "--aa" => cli.aa = true,
            "--record" => cli.record = Some(PathBuf::from(value()?)),
            "--commit" => cli.commit = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Do what the command line asked; `Ok` is what to print on standard output.
fn dispatch(cli: &Cli) -> Result<Option<String>, String> {
    if let Some(dir) = &cli.record {
        let commit = cli.commit.as_deref().ok_or("--record needs --commit ID")?;
        return sets::record(dir, commit, &cli.opts).map(|()| None);
    }
    if cli.aa {
        let within = sets::aa(&cli.opts)?;
        return within.then_some(None).ok_or("the two sets differ by more than a bound".into());
    }
    let name = cli.workload.as_deref().ok_or("one of --workload, --aa, --record is needed")?;
    // Before any thread exists: no ambient knobs, one CPU.
    workload::scrub_env();
    let unpinned = host::pin_to_first_cpu()?;
    let workload = Workload::new(name, cli.opts.seed, cli.opts.quick)?;
    run::run(workload, &cli.opts, &unpinned).map(|outcome| Some(outcome.to_line()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&cli) {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("prescient-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
