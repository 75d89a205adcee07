//! End-to-end trace acceptance: a traced run writes a JSONL log whose
//! header reproduces the originating configuration and which the replay
//! validator accepts from the file alone.

use std::io::BufReader;

use selective_preemption::prelude::*;
use selective_preemption::trace::{validate_jsonl, Json, ReplayOptions, TraceRecord};
use selective_preemption::workload::traces::SDSC;

#[test]
fn jsonl_trace_of_10k_sdsc_ss_run_validates_and_embeds_config() {
    let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 }).with_jobs(10_000);
    let path = std::env::temp_dir().join("sps_trace_roundtrip_sdsc_ss2.jsonl");
    let mut sink = JsonlSink::create(&path).expect("create trace file");
    let result = cfg.runner().trace_sink(&mut sink).run();
    sink.finish().expect("flush trace file");
    assert_eq!(result.report.overall.count, 10_000);

    // The validator re-checks the scheduling invariants from the log alone.
    let file = std::fs::File::open(&path).expect("reopen trace file");
    let stats = validate_jsonl(BufReader::new(file), ReplayOptions::default())
        .expect("trace must satisfy every replay invariant");
    assert!(stats.has_header);
    assert_eq!(stats.arrivals, 10_000);
    assert_eq!(stats.completions, 10_000);
    assert_eq!(stats.live_at_end, 0);
    assert_eq!(stats.suspensions as u64, result.sim.preemptions);
    assert!(stats.peak_occupied <= SDSC.procs as usize);

    // The header's embedded config deserializes back into the original.
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let first = text.lines().next().expect("non-empty trace");
    let record = TraceRecord::from_json(&Json::parse(first).expect("header parses"))
        .expect("header decodes");
    let TraceRecord::Header {
        scheduler, config, ..
    } = record
    else {
        panic!("first record must be the header");
    };
    assert_eq!(scheduler, "ss:2.0");
    assert_eq!(scheduler.parse::<SchedulerKind>().unwrap(), cfg.scheduler);
    // A closed run's header leaves the stopping condition and warmup at
    // their defaults out, byte-identical to headers that predate them.
    assert!(config.get("until").is_none() && config.get("warmup").is_none());
    let back = selective_preemption::core::experiment::ExperimentConfig::from_json(&config)
        .expect("embedded config decodes");
    assert_eq!(back.system.name, cfg.system.name);
    assert_eq!(back.n_jobs, cfg.n_jobs);
    assert_eq!(back.seed, cfg.seed);
    assert_eq!(back.load_factor, cfg.load_factor);
    assert_eq!(back.estimates, cfg.estimates);
    assert_eq!(back.overhead, cfg.overhead);
    assert_eq!(back.scheduler, cfg.scheduler);
    assert_eq!(back.tick_period, cfg.tick_period);
    // And regenerates the identical trace.
    assert_eq!(back.trace(), cfg.trace());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn open_system_header_reproduces_its_run() {
    let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
        .with_seed(5)
        .with_arrivals(ArrivalSpec::Poisson { load: Some(0.9) })
        .with_until(RunUntil::SimTime(SimTime::new(2 * 86_400)))
        .with_warmup(6 * 3_600);
    let mut sink = MemorySink::new();
    let traced = cfg.runner().trace_sink(&mut sink).run();
    let Some(TraceRecord::Header { config, .. }) = sink.records().first() else {
        panic!("first record must be the header");
    };
    // Decode from the rendered text, as a reader of the log would.
    let text = config.render();
    assert!(text.contains(r#""until":"172800s""#), "{text}");
    let back = ExperimentConfig::from_json(&Json::parse(&text).expect("header parses"))
        .expect("embedded config decodes");
    assert_eq!(back.arrivals, cfg.arrivals);
    assert_eq!(back.until, cfg.until);
    assert_eq!(back.warmup, cfg.warmup);

    // The header alone reproduces the run.
    let rerun = back
        .run_checked()
        .expect("an open header carries its stopping condition");
    assert!(traced.sim.windowed.is_some(), "warmup makes a window");
    assert_eq!(rerun.sim.outcomes, traced.sim.outcomes);
    assert_eq!(rerun.sim.windowed, traced.sim.windowed);
}
