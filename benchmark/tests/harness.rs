//! Self-tests of the harness's own arithmetic and parsers.

use std::time::Instant;

use prescient_benchmark::calib::{
    normalise, occupancy, Sampler, PERIOD, SLICE_REF_S, UNDISTURBED_OCCUPANCY,
};
use prescient_benchmark::host::{first_allowed_cpu, vm_hwm_kb};
use prescient_benchmark::json::Json;
use prescient_benchmark::layers::{read_timeline, read_trace};
use prescient_benchmark::oracle::Gated;
use prescient_benchmark::run::{kept, Metric, Outcome, RepTiming, Scale};
use prescient_benchmark::spans::Spans;
use prescient_benchmark::stats::Summary;
use prescient_benchmark::workload::{Input, Workload, NAMES};
use prescient_benchmark::{sets, workload};

#[test]
fn median_and_quartiles_follow_pythons_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&v).unwrap();
    assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
    assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    assert_eq!(s.iqr_share(), 1.0);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; order is irrelevant.
    let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = Summary::of(&[1.0, 2.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    // One value is its own quartiles; nothing, or a NaN, has no summary.
    let s = Summary::of(&[4.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    assert!(Summary::of(&[]).is_none());
    assert!(Summary::of(&[1.0, f64::NAN]).is_none());
}

#[test]
fn a_slowdown_of_rep_and_calibration_alike_cancels() {
    let (raw, slice) = (2.0, 0.00064);
    let base = normalise(raw, slice);
    let slowed = normalise(2.0 * raw, 2.0 * slice);
    assert!((base - slowed).abs() < 1e-12, "{base} vs {slowed}");
    // On the defining machine, quiet, a calibrated second is a raw second.
    assert_eq!(normalise(raw, SLICE_REF_S), raw);
    // A slower host alone (same raw time) means the code got faster.
    assert!(normalise(raw, 2.0 * slice) < base);
}

#[test]
fn an_interval_is_calibrated_by_the_slices_inside_it() {
    let sampler = Sampler::start();
    let from = Instant::now();
    std::thread::sleep(5 * PERIOD);
    let to = Instant::now();
    let mean = sampler.mean_between(from, to).expect("slices ran");
    let all = sampler.all();
    assert!(all.len() >= 3, "{} slices in five periods", all.len());
    let (lo, hi) = all.iter().fold((f64::MAX, 0.0f64), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
    assert!(lo > 0.0 && (lo..=hi).contains(&mean), "{lo} <= {mean} <= {hi}");
    // An interval that ended before the first slice has nothing to go by.
    let before = from.checked_sub(10 * PERIOD).expect("the clock is past its first second");
    assert_eq!(sampler.mean_between(before, before), None);
}

#[test]
fn a_disturbed_rep_is_set_aside_never_rescaled() {
    let rep = |wall_raw_s, occupancy| RepTiming {
        wall_raw_s,
        setup_raw_s: 0.01,
        scale: Scale { occupancy, slice_s: SLICE_REF_S },
    };
    assert_eq!(occupancy(1.5, 3.0), 0.5);
    // A pinned process cannot have run more than all of the time.
    assert_eq!(occupancy(3.001, 3.0), 1.0);
    // Wall time counts in full, whatever share of it the process ran.
    assert_eq!(rep(3.0, 0.5).wall_s(), 3.0);
    assert!(rep(3.0, UNDISTURBED_OCCUPANCY).undisturbed() && !rep(3.0, 0.9).undisturbed());
    // The host took the CPU during one rep of three: that rep is left out.
    let walls = |reps: &[RepTiming], floor| -> Vec<f64> {
        kept(reps, floor).iter().map(RepTiming::wall_s).collect()
    };
    let reps = [rep(2.0, 0.99), rep(3.0, 0.6), rep(2.1, 1.0)];
    assert_eq!(walls(&reps, 2), [2.0, 2.1]);
    // Too few are left, or the program itself blocks in every rep: all count.
    assert_eq!(walls(&reps, 3), [2.0, 3.0, 2.1]);
    let blocking = [rep(4.0, 0.7), rep(4.1, 0.7)];
    assert_eq!(walls(&blocking, 2), [4.0, 4.1]);
}

const STATUS: &str = "Name:\tprescient-bench\nVmPeak:\t  300000 kB\nVmHWM:\t   97588 kB\n\
                      VmRSS:\t   12345 kB\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";

#[test]
fn proc_status_parsers() {
    assert_eq!(vm_hwm_kb(STATUS), Some(97588));
    assert_eq!(first_allowed_cpu(STATUS), Some(0));
    assert_eq!(first_allowed_cpu("Cpus_allowed_list:\t3,5-7\n"), Some(3));
    assert_eq!(first_allowed_cpu("Cpus_allowed_list:\t12\n"), Some(12));
    assert_eq!(first_allowed_cpu("Cpus_allowed:\tff\n"), None);
    assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    assert_eq!(vm_hwm_kb("VmRSS:\t 5 kB\n"), None);
}

#[test]
fn json_round_trips() {
    let doc = Json::obj([
        ("name", Json::str("quote \" slash \\ newline \n tab \t é")),
        ("count", Json::Num(181483008.0)),
        ("time", Json::Num(0.40409452062099305)),
        ("tiny", Json::Num(1.5e-9)),
        ("neg", Json::Num(-3.0)),
        ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
        ("empty", Json::obj::<&str>([])),
    ]);
    for text in [doc.to_line(), doc.to_pretty()] {
        assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
    }
    // Counters print as whole numbers, timings with every digit and no exponent.
    let line = doc.to_line();
    assert!(line.contains("\"count\": 181483008,"), "{line}");
    assert!(line.contains("\"time\": 0.40409452062099305,"), "{line}");
    assert!(line.contains("\"tiny\": 0.0000000015,"), "{line}");
    // A non-finite measurement is never written as a number.
    assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    for bad in ["", "{", "{\"a\" 1}", "[1,]", "\"open", "{\"a\": 1} x", "nul", "\"\\u12\"", "\"\\"]
    {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
    assert!(Json::parse(&"[".repeat(100_000)).is_err(), "deep nesting must not overflow");
}

#[test]
fn the_result_line_has_the_contracts_shape() {
    let out = Outcome {
        correct: true,
        attempted: 65,
        failed: 0,
        metrics: vec![Metric { name: "wall_s", value: 0.4041, unit: "s" }],
    };
    let line = out.to_line();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 65, \"failed\": 0, \
         \"metrics\": {\"wall_s\": {\"value\": 0.4041, \"unit\": \"s\"}}}"
    );
    assert_eq!(sets::parse_result(&line).unwrap(), vec![("wall_s".to_string(), 0.4041)]);
    let failed = Outcome { correct: false, failed: 1, ..out };
    assert!(sets::parse_result(&failed.to_line()).is_err());
}

#[test]
fn seeds_make_inputs_deterministically() {
    for name in NAMES {
        let describe = |seed| Workload::new(name, seed, false).unwrap().describe();
        assert_eq!(describe(7), describe(7), "{name}: the same seed gives the same input");
        assert_ne!(describe(7), describe(8), "{name}: another seed gives another input");
        assert_ne!(describe(0), describe(7));
        let paper = Workload::new(name, 0, false).unwrap();
        assert!(paper.paper_inputs && paper.nodes == 32);
        assert!(!Workload::new(name, 7, false).unwrap().paper_inputs);
        let quick = Workload::new(name, 0, true).unwrap();
        assert!(!quick.paper_inputs && quick.nodes == 8 && quick.min_reps == 2);
    }
    // Seed 0 is the paper's inputs, as the perf gate describes them.
    assert_eq!(
        Workload::new("water", 0, false).unwrap().describe(),
        "n=512 steps=20 seed=0x5eed0001"
    );
    assert_eq!(
        Workload::new("barnes", 0, false).unwrap().describe(),
        "n=16384 steps=3 theta=0.7 seed=0xbab1e5"
    );
    assert_eq!(
        Workload::new("adaptive_observed", 0, false).unwrap().describe(),
        "n=128 iters=100 tau=0.5 max_depth=3"
    );
    // The derived parameters stay in their documented ranges.
    for seed in 1..200 {
        let Input::Adaptive(a) = Workload::new("adaptive", seed, false).unwrap().input else {
            panic!("adaptive runs Adaptive");
        };
        assert!((workload::TAU_RANGE.0..workload::TAU_RANGE.1).contains(&a.tau), "{}", a.tau);
        let Input::Barnes(b) = Workload::new("barnes", seed, false).unwrap().input else {
            panic!("barnes runs Barnes");
        };
        assert!((workload::THETA_RANGE.0..workload::THETA_RANGE.1).contains(&b.theta));
    }
    assert!(Workload::new("nbody", 0, false).is_err());
}

#[test]
fn the_oracle_reads_the_perf_gates_columns() {
    let water = Gated::reference("water").unwrap();
    assert_eq!(water.checksum_bits, 0x40e9dc2cd5c4f64a);
    assert_eq!((water.vtime_ns, water.msgs, water.bytes_moved), (1089247400, 87808, 7667712));
    assert_eq!((water.blocks_moved, water.misses), (30816, 1632));
    assert_eq!((water.presend_blocks, water.presend_useless), (29184, 0));
    assert!(Gated::reference("adaptive").is_ok() && Gated::reference("barnes").is_ok());
    assert!(Gated::reference("adaptive_observed").is_err());
    assert!(Gated::from_reference("{\"apps\": [{\"app\": \"water\"}]}", "water").is_err());
}

#[test]
fn telemetry_readers_count_phases_and_lost_events() {
    let timeline = "{\"nodes\": 2, \"records\": [{}, {}, {}], \"phases\": [\
        {\"run\": 1, \"phase\": 0, \"iter\": 0}, {\"run\": 2, \"phase\": 0, \"iter\": 0},\
        {\"run\": 2, \"phase\": 1, \"iter\": 0}, {\"run\": 2, \"phase\": 2, \"iter\": 0},\
        {\"run\": 2, \"phase\": 1, \"iter\": 1}, {\"run\": 3, \"phase\": 0, \"iter\": 0}]}";
    assert_eq!(read_timeline(timeline).unwrap(), (3, 3));
    assert!(read_timeline("{\"records\": []}").is_err());
    // Node 0 kept seq 5..=6 of 7 emitted, node 1 kept its only event.
    let trace = "{\"node\":0,\"seq\":5,\"t\":1,\"phase\":0,\"kind\":\"x\",\"a\":0,\"b\":0}\n\
                 {\"node\":1,\"seq\":0,\"t\":1,\"phase\":0,\"kind\":\"x\",\"a\":0,\"b\":0}\n\
                 {\"node\":0,\"seq\":6,\"t\":2,\"phase\":0,\"kind\":\"x\",\"a\":0,\"b\":0}\n";
    assert_eq!(read_trace(trace).unwrap(), (3, 5));
    assert_eq!(read_trace("").unwrap(), (0, 0));
    assert!(read_trace("{\"node\":900,\"seq\":0}\n").is_err());
}

#[test]
fn spans_keep_count_total_self_and_parent() {
    let mut s = Spans::new(true);
    s.enter("run");
    for _ in 0..2 {
        s.enter("rep");
        s.leaf("main_loop", 0.5);
        s.leaf("setup", 0.25);
        s.exit();
    }
    s.exit();
    let json = s.to_json();
    let row = |name: &str| {
        json.as_arr()
            .unwrap()
            .iter()
            .find(|r| r.get("name").unwrap().as_str() == Some(name))
            .unwrap()
            .clone()
    };
    assert_eq!(row("run").get("parent"), Some(&Json::Null));
    assert_eq!(row("rep").get("parent").unwrap().as_str(), Some("run"));
    assert_eq!(row("rep").get("count").unwrap().as_u64(), Some(2));
    assert_eq!(row("main_loop").get("total_s").unwrap().as_f64(), Some(1.0));
    assert_eq!(row("main_loop").get("parent").unwrap().as_str(), Some("rep"));
    // The leaves are longer than the (instant) rep that holds them here, so
    // the rep's self time is what is left: negative, and not hidden.
    let rep = row("rep");
    let (total, own) = (
        rep.get("total_s").unwrap().as_f64().unwrap(),
        rep.get("self_s").unwrap().as_f64().unwrap(),
    );
    assert!((total - own - 1.5).abs() < 1e-9);
    // Disabled, nothing is recorded.
    let mut off = Spans::new(false);
    off.enter("run");
    off.leaf("x", 1.0);
    off.exit();
    assert_eq!(off.to_json(), Json::Arr(vec![]));
}

#[test]
fn the_manifest_names_what_the_harness_reports() {
    let bounds = sets::bounds().unwrap();
    let names: Vec<&str> = bounds.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["wall_s", "setup_s", "peak_rss_mb", "vtime_s", "msgs", "bytes_moved"]);
    assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.10), "no bound above a tenth");
    let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let listed: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(listed, NAMES);
}
