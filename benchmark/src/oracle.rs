//! The correctness oracle: what one rep must have computed and counted.

use prescient_apps::{rel_err, AppRun};

use crate::json::Json;

/// The perf gate's committed reference, read at build time so a run does
/// not depend on the directory it starts in.
const REFERENCE: &str = include_str!("../../results/BENCH_prescient.json");

/// Relative tolerance of a checksum against the sequential reference: the
/// apps' own tests allow 1e-9 per coordinate.
pub const CHECKSUM_TOLERANCE: f64 = 1e-9;

/// The eight columns the perf gate holds bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gated {
    pub checksum_bits: u64,
    pub vtime_ns: u64,
    pub msgs: u64,
    pub bytes_moved: u64,
    pub blocks_moved: u64,
    pub misses: u64,
    pub presend_blocks: u64,
    pub presend_useless: u64,
}

impl Gated {
    pub fn of(run: &AppRun) -> Gated {
        let t = run.report.total_stats();
        Gated {
            checksum_bits: run.checksum.to_bits(),
            vtime_ns: run.report.exec_time_ns(),
            msgs: t.msgs_out,
            bytes_moved: run.report.bytes_moved(),
            blocks_moved: run.report.blocks_moved(),
            misses: t.misses(),
            presend_blocks: t.presend_blocks_out,
            presend_useless: t.presend_useless,
        }
    }

    /// The committed row of `app` in `results/BENCH_prescient.json`.
    pub fn reference(app: &str) -> Result<Gated, String> {
        Gated::from_reference(REFERENCE, app)
    }

    /// The row of `app` in a perf-gate document.
    pub fn from_reference(text: &str, app: &str) -> Result<Gated, String> {
        let doc = Json::parse(text)?;
        let row = doc
            .get("apps")
            .and_then(Json::as_arr)
            .and_then(|rows| rows.iter().find(|r| r.get("app").and_then(Json::as_str) == Some(app)))
            .ok_or_else(|| format!("reference has no app {app:?}"))?;
        let num = |key: &str| {
            row.get(key).and_then(Json::as_u64).ok_or_else(|| format!("reference {app}.{key}"))
        };
        let checksum = row.get("checksum").and_then(Json::as_str).unwrap_or_default();
        Ok(Gated {
            checksum_bits: u64::from_str_radix(checksum, 16)
                .map_err(|_| format!("reference {app}.checksum"))?,
            vtime_ns: num("vtime_ns")?,
            msgs: num("msgs")?,
            bytes_moved: num("bytes_moved")?,
            blocks_moved: num("blocks_moved")?,
            misses: num("misses")?,
            presend_blocks: num("presend_blocks")?,
            presend_useless: num("presend_useless")?,
        })
    }
}

/// What every rep of one run is held to.
pub enum Expect {
    /// Paper inputs: the eight gated columns, bit for bit.
    Reference(Gated),
    /// Any other input: the checksum of the sequential reference, within
    /// [`CHECKSUM_TOLERANCE`]; and, once one rep has run, that rep's eight
    /// columns exactly.
    Sequential { checksum: f64, first: Option<Gated> },
}

impl Expect {
    /// Check one rep; `Err` says what differed.
    pub fn check(&mut self, run: &AppRun) -> Result<(), String> {
        let got = Gated::of(run);
        match self {
            Expect::Reference(want) if got == *want => Ok(()),
            Expect::Reference(want) => Err(format!(
                "differs from results/BENCH_prescient.json: got {got:?}, want {want:?}"
            )),
            Expect::Sequential { checksum, first } => {
                let err = rel_err(run.checksum, *checksum);
                if err.is_nan() || err > CHECKSUM_TOLERANCE {
                    return Err(format!(
                        "checksum {} is {err:e} from the sequential reference {checksum}",
                        run.checksum
                    ));
                }
                match first {
                    Some(f) if *f != got => {
                        Err(format!("reps disagree: got {got:?}, first rep {f:?}"))
                    }
                    _ => {
                        *first = Some(got);
                        Ok(())
                    }
                }
            }
        }
    }
}
