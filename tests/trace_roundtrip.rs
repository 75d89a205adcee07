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

/// One record of every variant, with the number edge cases (shortest
/// round-trip floats, integral floats at and past 1e15, a non-finite
/// value) and a string that needs escaping.
fn every_record_variant() -> Vec<TraceRecord> {
    use selective_preemption::trace::{JobEvent, ProcEvent, Reason, TRACE_VERSION};

    vec![
        TraceRecord::Header {
            version: TRACE_VERSION,
            scheduler: "ss:2.0".into(),
            config: Json::Obj(vec![
                (
                    "system".into(),
                    Json::Obj(vec![
                        ("name".into(), Json::Str("SDSC".into())),
                        ("procs".into(), Json::Int(128)),
                    ]),
                ),
                (
                    "loads".into(),
                    Json::Arr(vec![Json::Num(0.85), Json::Num(1.0)]),
                ),
                ("seed".into(), Json::Int(42)),
                ("faults".into(), Json::Null),
                ("speed_blind".into(), Json::Bool(false)),
            ]),
        },
        TraceRecord::Job {
            t: 0,
            job: 3,
            event: JobEvent::Arrival,
            procs: None,
        },
        TraceRecord::Job {
            t: 5,
            job: 3,
            event: JobEvent::Dispatch,
            procs: Some(vec![0, 1, 7]),
        },
        TraceRecord::Job {
            t: 6,
            job: 4,
            event: JobEvent::Reject,
            procs: None,
        },
        TraceRecord::Decision {
            t: 9,
            reason: Reason::Backfilled {
                job: 7,
                shadow: 1_000,
            },
        },
        TraceRecord::Decision {
            t: 10,
            reason: Reason::PreemptedVictim {
                victim: 1,
                suspender: 2,
                victim_xf: 0.1 + 0.2,
                suspender_xf: 1e16,
            },
        },
        TraceRecord::Decision {
            t: 11,
            reason: Reason::DisableLimit {
                job: 4,
                category: "L W".into(),
                xfactor: 9.5,
                limit: 4.25,
            },
        },
        TraceRecord::Decision {
            t: 12,
            reason: Reason::ReentryOnOriginalProcs { job: 1, victims: 2 },
        },
        TraceRecord::Decision {
            t: 13,
            reason: Reason::MigratedResume { job: 6 },
        },
        TraceRecord::Gauge {
            t: 60,
            queued: 3,
            idle: 10,
            draining: 4,
            suspended: 1,
            running: 9,
        },
        TraceRecord::Proc {
            t: 40,
            proc: 17,
            event: ProcEvent::Failed,
        },
        TraceRecord::Proc {
            t: 90,
            proc: 17,
            event: ProcEvent::Repaired,
        },
        TraceRecord::EngineStats {
            t: 99,
            batches: 1_234,
            events: 5_678,
        },
        TraceRecord::Health {
            t: 50,
            detector: "thrash".into(),
            job: Some(3),
            value: f64::NAN,
        },
        TraceRecord::Health {
            t: 95,
            detector: "x\"y".into(),
            job: None,
            value: 460_800.0,
        },
    ]
}

/// The JSONL bytes of every record variant, pinned line by line. The
/// goldens cover only the job, decision, gauge and engine lines of runs
/// without faults or telemetry; this pins the header (with a nested
/// config), proc and health encodings too, plus the number edge cases:
/// shortest round-trip floats, integral floats at and past 1e15, a
/// non-finite value and an escaped string.
#[test]
fn jsonl_sink_bytes_of_every_record_variant_are_pinned() {
    let expected = [
        r#"{"type":"header","version":2,"scheduler":"ss:2.0","config":{"system":{"name":"SDSC","procs":128},"loads":[0.85,1.0],"seed":42,"faults":null,"speed_blind":false}}"#,
        r#"{"type":"job","t":0,"job":3,"event":"arrival"}"#,
        r#"{"type":"job","t":5,"job":3,"event":"dispatch","procs":[0,1,7]}"#,
        r#"{"type":"job","t":6,"job":4,"event":"reject"}"#,
        r#"{"type":"decision","t":9,"reason":"backfilled","job":7,"shadow":1000}"#,
        r#"{"type":"decision","t":10,"reason":"preempted_victim","victim":1,"suspender":2,"victim_xf":0.30000000000000004,"suspender_xf":10000000000000000}"#,
        r#"{"type":"decision","t":11,"reason":"disable_limit","job":4,"category":"L W","xfactor":9.5,"limit":4.25}"#,
        r#"{"type":"decision","t":12,"reason":"reentry_on_original_procs","job":1,"victims":2}"#,
        r#"{"type":"decision","t":13,"reason":"migrated_resume","job":6}"#,
        r#"{"type":"gauge","t":60,"queued":3,"idle":10,"draining":4,"suspended":1,"running":9}"#,
        r#"{"type":"proc","t":40,"proc":17,"event":"failed"}"#,
        r#"{"type":"proc","t":90,"proc":17,"event":"repaired"}"#,
        r#"{"type":"engine","t":99,"batches":1234,"events":5678}"#,
        r#"{"type":"health","t":50,"detector":"thrash","job":3,"value":null}"#,
        r#"{"type":"health","t":95,"detector":"x\"y","value":460800.0}"#,
    ];

    let mut sink = JsonlSink::new(Vec::new());
    for rec in &every_record_variant() {
        sink.record(rec);
    }
    assert_pinned(sink.finish().expect("in-memory writes succeed"), &expected);
}

/// The CSV bytes of the same records, pinned line by line: the column
/// header, empty cells for the columns a record lacks, `Display` numbers
/// (`NaN`, no trailing `.0`) and a quoted field with a doubled quote.
#[test]
fn csv_sink_bytes_of_every_record_variant_are_pinned() {
    let expected = [
        r#"record,t,job,event,procs,reason,victim,suspender,victim_xf,suspender_xf,category,xfactor,limit,shadow,victims,queued,idle,draining,suspended,running,batches,events,proc,version,scheduler,detector,value"#,
        r#"header,,,,,,,,,,,,,,,,,,,,,,,2,ss:2.0,,"#,
        r#"job,0,3,arrival,,,,,,,,,,,,,,,,,,,,,,,"#,
        r#"job,5,3,dispatch,0 1 7,,,,,,,,,,,,,,,,,,,,,,"#,
        r#"job,6,4,reject,,,,,,,,,,,,,,,,,,,,,,,"#,
        r#"decision,9,7,,,backfilled,,,,,,,,1000,,,,,,,,,,,,,"#,
        r#"decision,10,,,,preempted_victim,1,2,0.30000000000000004,10000000000000000,,,,,,,,,,,,,,,,,"#,
        r#"decision,11,4,,,disable_limit,,,,,L W,9.5,4.25,,,,,,,,,,,,,,"#,
        r#"decision,12,1,,,reentry_on_original_procs,,,,,,,,,2,,,,,,,,,,,,"#,
        r#"decision,13,6,,,migrated_resume,,,,,,,,,,,,,,,,,,,,,"#,
        r#"gauge,60,,,,,,,,,,,,,,3,10,4,1,9,,,,,,,"#,
        r#"proc,40,,failed,,,,,,,,,,,,,,,,,,,17,,,,"#,
        r#"proc,90,,repaired,,,,,,,,,,,,,,,,,,,17,,,,"#,
        r#"engine,99,,,,,,,,,,,,,,,,,,,1234,5678,,,,,"#,
        r#"health,50,3,,,,,,,,,,,,,,,,,,,,,,,thrash,NaN"#,
        r#"health,95,,,,,,,,,,,,,,,,,,,,,,,,"x""y",460800"#,
    ];

    let mut sink = CsvSink::new(Vec::new());
    for rec in &every_record_variant() {
        sink.record(rec);
    }
    assert_pinned(sink.finish().expect("in-memory writes succeed"), &expected);
}

/// A sink's output matches the pinned lines one by one, each
/// newline-terminated.
fn assert_pinned(bytes: Vec<u8>, expected: &[&str]) {
    let text = String::from_utf8(bytes).expect("trace text is UTF-8");
    let lines: Vec<&str> = text.split_terminator('\n').collect();
    assert_eq!(lines.len(), expected.len(), "{text}");
    for (got, want) in lines.iter().zip(expected) {
        assert_eq!(got, want);
    }
    assert!(text.ends_with('\n'), "every line is newline-terminated");
}
