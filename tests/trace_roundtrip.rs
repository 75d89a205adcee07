//! End-to-end trace acceptance: a traced run writes a JSONL log whose
//! header reproduces the originating configuration and which the replay
//! validator accepts from the file alone. The encoder's bytes are pinned
//! for every record variant and integer edge, and seeded mutations of
//! its lines never panic the decoder or the validator.

use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// A trace of another schema version is refused with one violation that
/// names its version, not with one per record of the old schema.
#[test]
fn a_trace_of_another_schema_version_is_refused_once() {
    let v1 = concat!(
        r#"{"type":"header","version":1,"scheduler":"tss:2.0","config":null}"#,
        "\n",
        r#"{"type":"decision","t":120,"reason":"blocked_by_disable_limit","victim":1,"suspender":2,"category":"L W","victim_xf":9.5,"limit":4.25}"#,
        "\n",
    );
    let violations = validate_jsonl(BufReader::new(v1.as_bytes()), ReplayOptions::default())
        .expect_err("a version-1 trace is refused");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].message.contains("version 1"),
        "{}",
        violations[0].message
    );
}

/// Every record variant with each of its integer fields set from `n`
/// (ids, counts, processors, the header version), its times from `t`
/// and the engine counts from `big`, beside the JSONL line and CSV row
/// built field by field with `format!`: the bytes the encoder's decimal
/// writer must match.
fn integer_cases(t: i64, n: u32, big: u64) -> Vec<(TraceRecord, String, String)> {
    use selective_preemption::trace::{JobEvent, ProcEvent, Reason};

    // The CSV row holding `fields` (column name, text), empty elsewhere.
    let csv = |fields: &[(&str, String)]| {
        TraceRecord::CSV_COLUMNS
            .iter()
            .map(|col| {
                fields
                    .iter()
                    .find(|(name, _)| name == col)
                    .map_or("", |(_, text)| text.as_str())
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let (t_s, n_s) = (format!("{t}"), format!("{n}"));
    vec![
        (
            TraceRecord::Header {
                version: n,
                scheduler: "ss:2.0".into(),
                config: Json::Null,
            },
            format!(r#"{{"type":"header","version":{n},"scheduler":"ss:2.0","config":null}}"#),
            csv(&[
                ("record", "header".into()),
                ("version", n_s.clone()),
                ("scheduler", "ss:2.0".into()),
            ]),
        ),
        (
            TraceRecord::Job {
                t,
                job: n,
                event: JobEvent::Arrival,
                procs: None,
            },
            format!(r#"{{"type":"job","t":{t},"job":{n},"event":"arrival"}}"#),
            csv(&[
                ("record", "job".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("event", "arrival".into()),
            ]),
        ),
        (
            TraceRecord::Job {
                t,
                job: n,
                event: JobEvent::Suspend,
                procs: Some(vec![0, n, 10]),
            },
            format!(r#"{{"type":"job","t":{t},"job":{n},"event":"suspend","procs":[0,{n},10]}}"#),
            csv(&[
                ("record", "job".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("event", "suspend".into()),
                ("procs", format!("0 {n} 10")),
            ]),
        ),
        (
            TraceRecord::Decision {
                t,
                reason: Reason::Backfilled { job: n, shadow: t },
            },
            format!(
                r#"{{"type":"decision","t":{t},"reason":"backfilled","job":{n},"shadow":{t}}}"#
            ),
            csv(&[
                ("record", "decision".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("reason", "backfilled".into()),
                ("shadow", t_s.clone()),
            ]),
        ),
        (
            TraceRecord::Decision {
                t,
                reason: Reason::PreemptedVictim {
                    victim: n,
                    suspender: n,
                    victim_xf: 1.5,
                    suspender_xf: 4.0,
                },
            },
            format!(
                r#"{{"type":"decision","t":{t},"reason":"preempted_victim","victim":{n},"suspender":{n},"victim_xf":1.5,"suspender_xf":4.0}}"#
            ),
            csv(&[
                ("record", "decision".into()),
                ("t", t_s.clone()),
                ("reason", "preempted_victim".into()),
                ("victim", n_s.clone()),
                ("suspender", n_s.clone()),
                ("victim_xf", "1.5".into()),
                ("suspender_xf", "4".into()),
            ]),
        ),
        (
            TraceRecord::Decision {
                t,
                reason: Reason::DisableLimit {
                    job: n,
                    category: "S N".into(),
                    xfactor: 2.5,
                    limit: 1.25,
                },
            },
            format!(
                r#"{{"type":"decision","t":{t},"reason":"disable_limit","job":{n},"category":"S N","xfactor":2.5,"limit":1.25}}"#
            ),
            csv(&[
                ("record", "decision".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("reason", "disable_limit".into()),
                ("category", "S N".into()),
                ("xfactor", "2.5".into()),
                ("limit", "1.25".into()),
            ]),
        ),
        (
            TraceRecord::Decision {
                t,
                reason: Reason::ReentryOnOriginalProcs { job: n, victims: n },
            },
            format!(
                r#"{{"type":"decision","t":{t},"reason":"reentry_on_original_procs","job":{n},"victims":{n}}}"#
            ),
            csv(&[
                ("record", "decision".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("reason", "reentry_on_original_procs".into()),
                ("victims", n_s.clone()),
            ]),
        ),
        (
            TraceRecord::Decision {
                t,
                reason: Reason::MigratedResume { job: n },
            },
            format!(r#"{{"type":"decision","t":{t},"reason":"migrated_resume","job":{n}}}"#),
            csv(&[
                ("record", "decision".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("reason", "migrated_resume".into()),
            ]),
        ),
        (
            TraceRecord::Gauge {
                t,
                queued: n,
                idle: n,
                draining: n,
                suspended: n,
                running: n,
            },
            format!(
                r#"{{"type":"gauge","t":{t},"queued":{n},"idle":{n},"draining":{n},"suspended":{n},"running":{n}}}"#
            ),
            csv(&[
                ("record", "gauge".into()),
                ("t", t_s.clone()),
                ("queued", n_s.clone()),
                ("idle", n_s.clone()),
                ("draining", n_s.clone()),
                ("suspended", n_s.clone()),
                ("running", n_s.clone()),
            ]),
        ),
        (
            TraceRecord::Proc {
                t,
                proc: n,
                event: ProcEvent::Repaired,
            },
            format!(r#"{{"type":"proc","t":{t},"proc":{n},"event":"repaired"}}"#),
            csv(&[
                ("record", "proc".into()),
                ("t", t_s.clone()),
                ("event", "repaired".into()),
                ("proc", n_s.clone()),
            ]),
        ),
        (
            TraceRecord::EngineStats {
                t,
                batches: big,
                events: big,
            },
            format!(r#"{{"type":"engine","t":{t},"batches":{big},"events":{big}}}"#),
            csv(&[
                ("record", "engine".into()),
                ("t", t_s.clone()),
                ("batches", format!("{big}")),
                ("events", format!("{big}")),
            ]),
        ),
        (
            TraceRecord::Health {
                t,
                detector: "starvation".into(),
                job: Some(n),
                value: 12.0,
            },
            format!(
                r#"{{"type":"health","t":{t},"detector":"starvation","job":{n},"value":12.0}}"#
            ),
            csv(&[
                ("record", "health".into()),
                ("t", t_s.clone()),
                ("job", n_s.clone()),
                ("detector", "starvation".into()),
                ("value", "12".into()),
            ]),
        ),
    ]
}

/// Every integer field encodes in JSONL and CSV exactly as `format!`
/// writes it, at the digit-count edges (0, 9, 10), at `u32::MAX`, at
/// `u64::MAX` for the engine counts and at both ends of `i64` for times;
/// and each line decodes back to its record wherever the decoder accepts
/// its numbers (a JSON integer past `i64` is not one it accepts).
#[test]
fn integer_fields_encode_as_format_writes_them() {
    let times = [i64::MIN, -1, 0, 9, 10, i64::from(u32::MAX), i64::MAX];
    let counts = [0, 9, 10, u32::MAX];
    let engine = [0, 9, 10, u64::from(u32::MAX), u64::MAX];
    for t in times {
        for n in counts {
            for big in engine {
                for (rec, json, csv) in integer_cases(t, n, big) {
                    let mut line = String::new();
                    rec.write_json(&mut line);
                    assert_eq!(line, json);
                    let mut row = String::new();
                    rec.write_csv_row(&mut row);
                    assert_eq!(row, csv);

                    let decoded = TraceRecord::parse_line(&line);
                    if i64::try_from(big).is_err() && matches!(rec, TraceRecord::EngineStats { .. })
                    {
                        assert!(decoded.is_err(), "{line} decoded as {decoded:?}");
                    } else {
                        assert_eq!(decoded.as_ref(), Ok(&rec), "{line}");
                    }
                }
            }
        }
    }
}

/// A JSONL sink that keeps the last gauge's encoded counts writes each
/// line exactly as a fresh sink writes that record alone: through runs of
/// repeated gauges, changed counts, counts that return after a change,
/// and job and decision records between them.
#[test]
fn a_gauge_run_writes_each_line_as_a_fresh_sink_would() {
    use selective_preemption::trace::{JobEvent, Reason};

    let gauge = |t: i64, counts: [u32; 5]| TraceRecord::Gauge {
        t,
        queued: counts[0],
        idle: counts[1],
        draining: counts[2],
        suspended: counts[3],
        running: counts[4],
    };
    let (a, b) = ([3, 10, 0, 1, 9], [3, 10, 0, 1, 10]);
    let records = vec![
        gauge(60, a),
        gauge(120, a),
        gauge(180, a),
        TraceRecord::Job {
            t: 200,
            job: 7,
            event: JobEvent::Dispatch,
            procs: Some(vec![4, 5]),
        },
        gauge(240, b),
        gauge(300, b),
        TraceRecord::Decision {
            t: 330,
            reason: Reason::Backfilled {
                job: 8,
                shadow: 900,
            },
        },
        gauge(360, a),
        gauge(420, [0, 0, 0, 0, 0]),
        gauge(480, [0, 0, 0, 0, 0]),
        gauge(-60, a),
        gauge(i64::MAX, [u32::MAX; 5]),
        gauge(i64::MIN, [u32::MAX; 5]),
        gauge(540, b),
    ];

    let mut kept = JsonlSink::new(Vec::new());
    for rec in &records {
        kept.record(rec);
    }
    let text = String::from_utf8(kept.finish().expect("in-memory writes succeed"))
        .expect("trace text is UTF-8");
    let lines: Vec<&str> = text.split_terminator('\n').collect();
    assert_eq!(lines.len(), records.len());
    for (rec, line) in records.iter().zip(lines) {
        let mut fresh = JsonlSink::new(Vec::new());
        fresh.record(rec);
        let alone = fresh.finish().expect("in-memory writes succeed");
        assert_eq!(format!("{line}\n").as_bytes(), alone.as_slice(), "{rec:?}");
        let mut encoded = String::new();
        rec.write_json(&mut encoded);
        assert_eq!(line, encoded);
    }
}

/// Mutated lines per run.
const MUTATIONS: u64 = 12_000;
/// The seed of mutation `i` is `BASE_SEED + i`.
const BASE_SEED: u64 = 0x5eed_0000;

/// SplitMix64: a seeded stream of 64-bit values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Integers at and past the edges of what the decoder accepts.
const EDGE_INTEGERS: [&str; 13] = [
    "0",
    "-1",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "18446744073709551616",
    "99999999999999999999999999999",
    "1e400",
    "-0",
    "00012",
    "-",
];

/// Single bytes that change a JSON line's structure.
const STRAY: &[u8] = b"\"[]{},:\\ -.e0";

/// The JSONL lines the mutations start from: a small traced TSS run with
/// telemetry, at most four lines of each kind so that gauges, most of a
/// run's lines, do not crowd out the rarer ones, then every record
/// variant, so each is covered whatever that run writes. The run's header
/// comes first.
fn mutation_base_lines() -> Vec<String> {
    let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Tss { sf: 2.0 })
        .with_jobs(60)
        .with_load_factor(2.0)
        .with_seed(3);
    let mut sink = MemorySink::new();
    let mut telemetry = Telemetry::new();
    cfg.runner()
        .trace_sink(&mut sink)
        .telemetry(&mut telemetry)
        .run();
    let mut per_kind = std::collections::HashMap::new();
    let run = sink.records().iter().filter(|rec| {
        let kind = match rec {
            TraceRecord::Job { event, .. } => event.name(),
            TraceRecord::Decision { reason, .. } => reason.name(),
            TraceRecord::Header { .. } => "header",
            TraceRecord::Gauge { .. } => "gauge",
            TraceRecord::Proc { .. } => "proc",
            TraceRecord::EngineStats { .. } => "engine",
            TraceRecord::Health { .. } => "health",
        };
        let seen = per_kind.entry(kind).or_insert(0);
        *seen += 1;
        *seen <= 4
    });
    run.chain(&every_record_variant())
        .map(|rec| {
            let mut line = String::new();
            rec.write_json(&mut line);
            line
        })
        .collect()
}

/// Apply one to three random edits to `line`.
fn mutate(line: &str, rng: &mut Rng) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len();
        match rng.below(8) {
            // Swap an integer for one at or past the decoder's range; the
            // line often still decodes, so the validator meets the value.
            0..=2 => {
                let digits: Vec<usize> = (0..len).filter(|&i| bytes[i].is_ascii_digit()).collect();
                if !digits.is_empty() {
                    let at = digits[rng.below(digits.len())];
                    let end = (at..len)
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(len);
                    let with = EDGE_INTEGERS[rng.below(EDGE_INTEGERS.len())];
                    bytes.splice(at..end, with.bytes());
                }
            }
            // Flip a byte to any value, structural or not.
            3 if len > 0 => {
                let at = rng.below(len);
                bytes[at] = if rng.below(2) == 0 {
                    rng.next() as u8
                } else {
                    STRAY[rng.below(STRAY.len())]
                };
            }
            // Cut the line short.
            4 => bytes.truncate(rng.below(len + 1)),
            // Insert a stray quote, bracket or separator.
            5 => {
                let at = rng.below(len + 1);
                bytes.insert(at, STRAY[rng.below(STRAY.len())]);
            }
            // Delete a span.
            6 if len > 0 => {
                let at = rng.below(len);
                let end = (at + 1 + rng.below(8)).min(len);
                bytes.drain(at..end);
            }
            // Double a span.
            7 if len > 0 => {
                let at = rng.below(len);
                let end = (at + 1 + rng.below(16)).min(len);
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
            _ => {}
        }
    }
    bytes
}

/// The JSONL boundary never panics: seeded mutations of lines of every
/// record variant (byte flips, truncations, integers at and past the
/// `u32`/`i64` range, stray quotes and brackets, cut and doubled spans)
/// reach the line decoder and, after a valid header, the replay
/// validator. A panic fails with the seed that rebuilds its input and the
/// input itself.
#[test]
fn mutated_jsonl_lines_never_panic_the_decoder_or_the_validator() {
    let lines = mutation_base_lines();
    let header = &lines[0];
    assert!(header.starts_with(r#"{"type":"header""#), "{header}");
    let mut decoded = 0;
    for i in 0..MUTATIONS {
        let seed = BASE_SEED + i;
        let mut rng = Rng(seed);
        let mutated = mutate(&lines[rng.below(lines.len())], &mut rng);
        let mut trace = format!("{header}\n").into_bytes();
        trace.extend_from_slice(&mutated);
        trace.push(b'\n');
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let line = TraceRecord::parse_line(&String::from_utf8_lossy(&mutated));
            let _ = validate_jsonl(trace.as_slice(), ReplayOptions::default());
            line.is_ok()
        }));
        match outcome {
            Ok(ok) => decoded += u32::from(ok),
            Err(_) => panic!(
                "seed {seed:#x} panicked on the line {:?}",
                String::from_utf8_lossy(&mutated)
            ),
        }
    }
    // Some mutated lines still decode, so the validator meets odd values,
    // not only parse errors.
    assert!(
        u64::from(decoded) >= MUTATIONS / 20,
        "only {decoded} mutated lines decoded"
    );
}
