//! One run: one workload in one process, rep after rep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use prescient_apps::AppRun;

use crate::calib::{normalise, occupancy, Sampler, UNDISTURBED_OCCUPANCY};
use crate::host::{self, CpuSet};
use crate::json::Json;
use crate::layers;
use crate::oracle::{Expect, Gated};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::Workload;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Budget of the whole run, cold rep included.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Also write the full record (per-rep values, summaries, spans) here.
    pub out: Option<PathBuf>,
}

/// One named number of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one line the driver reads.
    pub fn to_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .to_line()
    }
}

/// `{name: {"value", "unit"}}`, the result line's form of a metric list.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

/// What turns raw seconds measured inside one interval into calibrated
/// seconds: the mean time of the calibration slices that ran inside it.
/// With it, the share of the interval the process had the CPU, which says
/// whether the host disturbed the measurement and never rescales it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// 1 while the process is not pinned: threads then run side by side and
    /// CPU time says nothing about time taken away.
    pub occupancy: f64,
    /// NaN if no slice ran, which no summary accepts: the run fails.
    pub slice_s: f64,
}

impl Scale {
    pub fn apply(&self, raw_s: f64) -> f64 {
        normalise(raw_s, self.slice_s)
    }
}

/// Host timings of one rep, raw, with what calibrates them.
#[derive(Debug, Clone, Copy)]
pub struct RepTiming {
    /// `RunReport.wall`: the program's measured main loop.
    pub wall_raw_s: f64,
    /// The rest of the `run_*` call: machine build, allocation, the init
    /// and gather runs, thread join, telemetry export.
    pub setup_raw_s: f64,
    pub scale: Scale,
}

impl RepTiming {
    pub fn wall_s(&self) -> f64 {
        self.scale.apply(self.wall_raw_s)
    }

    pub fn setup_s(&self) -> f64 {
        self.scale.apply(self.setup_raw_s)
    }

    /// The process had the CPU for all but a sliver of the call. Pinned to
    /// one CPU the program always has a runnable thread, so a lower share
    /// means the host ran something else, or the program has started to
    /// block; which of the two, [`kept`] tells from the other reps.
    pub fn undisturbed(&self) -> bool {
        self.scale.occupancy >= UNDISTURBED_OCCUPANCY
    }
}

/// One completed, checked rep.
pub struct Rep {
    pub timing: RepTiming,
    pub run: AppRun,
}

/// A directory the harness owns for the program's telemetry files; gone
/// when the run ends.
pub struct TelemetryDir(PathBuf);

impl TelemetryDir {
    /// A fresh directory next to the harness's own executable: inside the
    /// checkout's build directory, never in a system-wide temp directory.
    pub fn create() -> Result<TelemetryDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("bench-tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TelemetryDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TelemetryDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is litter, not a wrong result.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The state of a run in progress.
pub struct Harness {
    pub workload: Workload,
    pub telemetry: TelemetryDir,
    pub sampler: Sampler,
    pub spans: Spans,
    pub started: Instant,
    /// The process is confined to one CPU (always, but for the traced run's
    /// all-CPU block).
    pub pinned: bool,
    /// Built after the first application call, so the sequential reference
    /// it may need adds nothing to the peak memory read after that call.
    expect: Option<Expect>,
    /// `VmHWM` right after the first application call: the memory it takes
    /// to run the workload once. Later reps only add allocator drift.
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Harness {
    pub fn new(workload: Workload, trace: bool) -> Result<Harness, String> {
        let telemetry = TelemetryDir::create()?;
        // The program's trace export reads its destination from the
        // environment; nothing else of the configuration does.
        std::env::set_var("PRESCIENT_TRACE_OUT", telemetry.path().join("trace"));
        Ok(Harness {
            workload,
            telemetry,
            sampler: Sampler::start(),
            spans: Spans::new(trace),
            started: Instant::now(),
            pinned: true,
            expect: None,
            peak_rss_mb: None,
            attempted: 0,
            failed: 0,
        })
    }

    /// Run `body` inside span `name` and say how to calibrate what it
    /// timed.
    pub fn measured<R>(&mut self, name: &str, body: impl FnOnce(&mut Harness) -> R) -> (R, Scale) {
        self.spans.enter(name);
        let (t, cpu) = (Instant::now(), host::process_cpu_s());
        let result = body(self);
        let (end, cpu_s) = (Instant::now(), host::process_cpu_s() - cpu);
        self.spans.exit();
        let occupancy = if self.pinned { occupancy(cpu_s, (end - t).as_secs_f64()) } else { 1.0 };
        let slice_s = self.sampler.mean_between(t, end).unwrap_or_else(|| {
            eprintln!("{name}: the calibration sampler did not run; this interval has no time");
            f64::NAN
        });
        (result, Scale { occupancy, slice_s })
    }

    /// One rep: call the application, check. A rep that panics or fails its
    /// check counts in `failed` and yields `None`. `metrics` turns the
    /// program's timeline on for this rep.
    pub fn rep(&mut self, metrics: bool) -> Option<Rep> {
        let machine = self.workload.machine(self.telemetry.path(), metrics);
        self.attempted += 1;
        self.spans.enter("rep");
        let ((result, call_s), scale) = self.measured("app_call", |h| {
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| h.workload.run(machine)));
            let call_s = t.elapsed().as_secs_f64();
            if let Ok(run) = &result {
                let wall = run.report.wall.as_secs_f64();
                h.spans.leaf("main_loop", wall);
                h.spans.leaf("setup", call_s - wall);
            }
            (result, call_s)
        });
        self.spans.exit();

        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = host::peak_rss_mb().ok();
        }
        let checked = match result {
            Ok(run) => self.check(&run).map(|()| run),
            Err(_) => Err("panicked (message above)".to_string()),
        };
        match checked {
            Ok(run) => {
                let wall_raw_s = run.report.wall.as_secs_f64();
                let timing = RepTiming { wall_raw_s, setup_raw_s: call_s - wall_raw_s, scale };
                Some(Rep { timing, run })
            }
            Err(why) => {
                eprintln!("{}: rep {} failed: {why}", self.workload.name, self.attempted - 1);
                self.failed += 1;
                None
            }
        }
    }

    fn check(&mut self, run: &AppRun) -> Result<(), String> {
        if self.expect.is_none() {
            let w = &self.workload;
            self.expect = Some(if w.paper_inputs {
                Expect::Reference(Gated::reference(w.app())?)
            } else {
                Expect::Sequential { checksum: w.reference_checksum(), first: None }
            });
        }
        self.expect.as_mut().expect("just built").check(run)
    }

    /// Timed reps until `deadline_s` of the run's budget is spent, and at
    /// least `min_reps` of them. Stops early when the next rep would end
    /// past the deadline, judged by the slowest rep so far. A disturbed rep
    /// is run again, past the deadline if need be, until `min_reps` are
    /// undisturbed or twice that many have been tried.
    pub fn timed_reps(&mut self, min_reps: usize, deadline_s: f64) -> Vec<RepTiming> {
        let mut reps: Vec<RepTiming> = Vec::new();
        let mut slowest_s: f64 = 0.0;
        let mut tried = 0;
        loop {
            let elapsed = self.started.elapsed().as_secs_f64();
            let undisturbed = reps.iter().filter(|t| t.undisturbed()).count();
            let enough = undisturbed >= min_reps || tried >= 2 * min_reps;
            if tried >= min_reps && enough && elapsed + slowest_s > deadline_s {
                return reps;
            }
            tried += 1;
            reps.extend(self.rep(false).map(|rep| rep.timing));
            slowest_s = slowest_s.max(self.started.elapsed().as_secs_f64() - elapsed);
        }
    }
}

/// The reps a timing metric is taken over: the undisturbed ones. When fewer
/// than `floor` are, all of them: reps that are all short of the CPU are
/// what a program that blocks looks like, and its time must still count.
pub fn kept(reps: &[RepTiming], floor: usize) -> Vec<RepTiming> {
    let undisturbed: Vec<RepTiming> = reps.iter().copied().filter(RepTiming::undisturbed).collect();
    if undisturbed.len() >= floor.max(1) {
        undisturbed
    } else {
        reps.to_vec()
    }
}

/// Median and spread of one per-rep quantity.
pub fn summarise(reps: &[RepTiming], f: impl Fn(&RepTiming) -> f64) -> Option<Summary> {
    Summary::of(&reps.iter().map(f).collect::<Vec<_>>())
}

fn reps_json(reps: &[RepTiming]) -> Json {
    Json::Arr(
        reps.iter()
            .map(|t| {
                Json::obj([
                    ("wall_s", Json::Num(t.wall_s())),
                    ("setup_s", Json::Num(t.setup_s())),
                    ("wall_raw_s", Json::Num(t.wall_raw_s)),
                    ("setup_raw_s", Json::Num(t.setup_raw_s)),
                    ("occupancy", Json::Num(t.scale.occupancy)),
                    ("undisturbed", Json::Bool(t.undisturbed())),
                    ("slice_s", Json::Num(t.scale.slice_s)),
                ])
            })
            .collect(),
    )
}

/// Run `workload` as the options say and report.
pub fn run(workload: Workload, opts: &Options, unpinned: &CpuSet) -> Result<Outcome, String> {
    let mut h = Harness::new(workload, opts.trace)?;
    h.spans.enter("run");

    // Rep 0: cold (first touch of every page and lazy table), checked like
    // the rest, never timed. In a traced run it also has the program's
    // timeline on, which is where the phase counts come from.
    let cold = h.rep(opts.trace);
    let peak_rss_mb = h.peak_rss_mb.ok_or("no VmHWM line in /proc/self/status")?;

    let (metrics, detail) = match (&cold, opts.trace) {
        (None, _) => (Vec::new(), Json::Null),
        (Some(cold), false) => {
            let reps = h.timed_reps(workload.min_reps, opts.seconds);
            end_to_end(cold, &reps, workload.min_reps, peak_rss_mb)
        }
        (Some(cold), true) => layers::traced(&mut h, cold, opts, unpinned)?,
    };
    h.spans.exit();

    if let Some(path) = &opts.out {
        let doc = Json::obj([
            ("workload", Json::str(workload.name)),
            ("input", Json::str(workload.describe())),
            ("seed", Json::Num(opts.seed as f64)),
            ("nodes", Json::Num(workload.nodes as f64)),
            ("trace", Json::Bool(opts.trace)),
            ("quick", Json::Bool(opts.quick)),
            ("attempted", Json::Num(h.attempted as f64)),
            ("failed", Json::Num(h.failed as f64)),
            ("detail", detail),
            ("spans", h.spans.to_json()),
        ]);
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if metrics.is_empty() {
        return Err(format!("{}: no rep completed, nothing to report", workload.name));
    }
    Ok(Outcome { correct: h.failed == 0, attempted: h.attempted, failed: h.failed, metrics })
}

/// The six end-to-end metrics of an untraced run, and the record behind
/// them.
fn end_to_end(
    cold: &Rep,
    reps: &[RepTiming],
    min_reps: usize,
    peak_rss_mb: f64,
) -> (Vec<Metric>, Json) {
    let timed = kept(reps, min_reps);
    let (Some(wall), Some(setup)) =
        (summarise(&timed, RepTiming::wall_s), summarise(&timed, RepTiming::setup_s))
    else {
        return (Vec::new(), Json::Null);
    };
    // Every rep was checked equal to the cold one on all gated columns, so
    // the simulated metrics are those of any rep.
    let sim = Gated::of(&cold.run);
    let metrics = vec![
        Metric { name: "wall_s", value: wall.median, unit: "s" },
        Metric { name: "setup_s", value: setup.median, unit: "s" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MiB" },
        Metric { name: "vtime_s", value: sim.vtime_ns as f64 / 1e9, unit: "s" },
        Metric { name: "msgs", value: sim.msgs as f64, unit: "count" },
        Metric { name: "bytes_moved", value: sim.bytes_moved as f64, unit: "bytes" },
    ];
    let detail = Json::obj([
        ("wall_s", wall.to_json()),
        ("setup_s", setup.to_json()),
        ("wall_raw_s", summarise(&timed, |t| t.wall_raw_s).expect("same reps").to_json()),
        ("setup_raw_s", summarise(&timed, |t| t.setup_raw_s).expect("same reps").to_json()),
        ("occupancy", summarise(reps, |t| t.scale.occupancy).expect("more reps").to_json()),
        ("reps", reps_json(reps)),
    ]);
    (metrics, detail)
}
