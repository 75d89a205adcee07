//! Observing a run never changes its schedule. A run with a JSONL trace
//! sink and telemetry attached elides quiescent ticks exactly as a plain
//! run does, so it executes the plain run's events and decides. Its trace
//! is still byte-identical to the every-tick schedule's: the ticks that
//! lapse while the machine is quiescent are replayed from the unchanged
//! state, and the `engine` record counts them. Fault-injected and
//! admission-controlled runs elide the same way.

mod common;

use selective_preemption::prelude::*;
use selective_preemption::workload::traces::{CTC, KTH, SDSC};

/// What one observed run leaves behind.
struct Observed {
    trace: String,
    health: HealthReport,
    sim: SimResult,
}

/// Run `cfg` with a JSONL sink and telemetry, eliding idle ticks or not.
fn observed(cfg: &ExperimentConfig, elide: bool) -> Observed {
    let mut sink = JsonlSink::new(Vec::new());
    let mut tel = Telemetry::new();
    let sim = cfg
        .runner()
        .trace_sink(&mut sink)
        .telemetry(&mut tel)
        .build()
        .with_tick_elision(elide)
        .run();
    let bytes = sink.finish().expect("in-memory writes succeed");
    Observed {
        trace: String::from_utf8(bytes).expect("JSONL is UTF-8"),
        health: tel.health_report(),
        sim,
    }
}

/// Panic at the first line where two traces differ, instead of printing
/// both traces whole.
fn assert_same_trace(got: &str, want: &str, label: &str) {
    if got == want {
        return;
    }
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let i = got
        .iter()
        .zip(&want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    panic!(
        "{label}: the observed trace leaves the every-tick trace at line {} \
         ({} vs {} lines)\n  observed:   {:?}\n  every-tick: {:?}",
        i + 1,
        got.len(),
        want.len(),
        got.get(i),
        want.get(i),
    );
}

/// The observed run writes the every-tick run's trace bytes and health
/// report, and its results equal the plain run's. Returns the observed
/// run and the every-tick one for case-specific checks.
fn check(cfg: &ExperimentConfig, label: &str) -> (Observed, Observed) {
    let every_tick = observed(cfg, false);
    let obs = observed(cfg, true);
    assert_same_trace(&obs.trace, &every_tick.trace, label);
    assert_eq!(obs.health, every_tick.health, "{label}: health report");

    let plain = cfg.runner().simulate();
    let (o, p) = (&obs.sim, &plain);
    assert_eq!(o.kernel.events, p.kernel.events, "{label}: events");
    assert_eq!(
        o.kernel.decide_calls, p.kernel.decide_calls,
        "{label}: decides"
    );
    assert_eq!(o.status, p.status, "{label}: status");
    assert_eq!(o.outcomes, p.outcomes, "{label}: outcomes");
    assert_eq!(o.windowed, p.windowed, "{label}: windowed report");
    assert_eq!(o.preemptions, p.preemptions, "{label}: preemptions");
    assert_eq!(
        o.utilization.to_bits(),
        p.utilization.to_bits(),
        "{label}: utilization"
    );
    (obs, every_tick)
}

/// Every scheme at a load where the machine keeps emptying and at a
/// saturated one.
#[test]
fn observed_runs_keep_the_plain_schedule_and_the_every_tick_trace() {
    for spec in [
        "ns", "is", "ss:2", "tss:1.5", "tss:2", "cons", "flex:2", "fcfs", "gang",
    ] {
        for load in [0.2, 1.4] {
            let cfg = ExperimentConfig::new(SDSC, spec.parse().expect("spec parses"))
                .with_jobs(120)
                .with_seed(31)
                .with_load_factor(load);
            let label = format!("{spec} at load {load}");
            let (obs, every_tick) = check(&cfg, &label);
            let policy = cfg.scheduler.build();
            if policy.quiescent_noop() && policy.needs_tick() {
                assert!(
                    obs.sim.kernel.events < every_tick.sim.kernel.events,
                    "{label}: the observed run elided no tick"
                );
            }
        }
    }
}

/// A machine that empties mid-run: the every-tick schedule's armed tick
/// still fires once on the empty machine, and the next arrival wakes it.
#[test]
fn a_machine_that_empties_mid_run_replays_its_last_armed_tick() {
    for spec in ["ss:2", "is", "tss:2"] {
        let cfg = ExperimentConfig::new(SDSC, spec.parse().expect("spec parses"))
            .with_jobs(150)
            .with_seed(5)
            .with_load_factor(0.2);
        let (obs, _) = check(&cfg, spec);
        let gauges: Vec<&str> = obs
            .trace
            .lines()
            .filter(|l| l.starts_with(r#"{"type":"gauge""#))
            .collect();
        let idle = gauges[..gauges.len() - 1]
            .iter()
            .filter(|l| {
                l.ends_with(r#""queued":0,"idle":128,"draining":0,"suspended":0,"running":0}"#)
            })
            .count();
        assert!(idle > 0, "{spec}: the machine never emptied mid-run");
    }
}

/// A closed run whose horizon falls 0–60 s after its last completion:
/// the plain run drains, and the every-tick run delivers its trailing tick
/// only if the horizon reaches it.
#[test]
fn a_horizon_just_past_the_last_completion_replays_only_reachable_ticks() {
    let base = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
        .with_jobs(100)
        .with_seed(3)
        .with_load_factor(0.6);
    let last = base
        .runner()
        .simulate()
        .outcomes
        .iter()
        .map(|o| o.completion.secs())
        .max()
        .expect("jobs complete");
    let tick = (last / 60 + 1) * 60;
    for horizon in [last, tick - 1, tick, last + 60] {
        let cfg = base
            .clone()
            .with_until(RunUntil::SimTime(SimTime::new(horizon)));
        check(&cfg, &format!("horizon {horizon} (last completion {last})"));
    }
}

/// Open arrivals stopped at a simulated-time horizon with a warmup window,
/// and at a completed-job count.
#[test]
fn time_and_job_count_stops_match() {
    for spec in ["ss:2", "is", "tss:2"] {
        let open = ExperimentConfig::new(SDSC, spec.parse().expect("spec parses"))
            .with_seed(8)
            .with_arrivals(ArrivalSpec::Poisson { load: Some(0.4) });
        let timed = open
            .clone()
            .with_until(RunUntil::SimTime(SimTime::new(86_400)))
            .with_warmup(6 * 3_600);
        let (obs, _) = check(&timed, &format!("{spec} until 1d, warmup 6h"));
        assert_eq!(obs.sim.status, RunStatus::Stopped(StopReason::Horizon));
        let counted = open.with_until(RunUntil::Jobs(150));
        let (obs, _) = check(&counted, &format!("{spec} until 150j"));
        assert_eq!(obs.sim.status, RunStatus::Stopped(StopReason::JobCount));
    }
}

/// The paper's overhead model (drains and reloads), and a tick period
/// other than the paper's minute.
#[test]
fn paper_overhead_and_an_odd_tick_period_match() {
    for spec in ["ss:2", "tss:2", "is"] {
        for load in [0.3, 1.2] {
            let cfg = ExperimentConfig::new(CTC, spec.parse().expect("spec parses"))
                .with_jobs(120)
                .with_seed(13)
                .with_load_factor(load);
            let paper = cfg.clone().with_overhead(OverheadModel::paper());
            check(&paper, &format!("{spec} at load {load}, paper overhead"));
            let odd = cfg.with_tick_period(37);
            check(&odd, &format!("{spec} at load {load}, 37 s ticks"));
        }
    }
}

/// A saturated TSS run whose no-op tick decides still write
/// `blocked_by_disable_limit` records: every tick that lapses before a
/// no-op horizon writes them again.
#[test]
fn lapsed_noop_ticks_rewrite_tss_decision_records() {
    let cfg = ExperimentConfig::new(KTH, SchedulerKind::Tss { sf: 2.0 })
        .with_jobs(400)
        .with_seed(1201)
        .with_load_factor(2.0)
        .with_overhead(OverheadModel::paper());
    let (_, every_tick) = check(&cfg, "tss:2 on KTH at load 2.0, paper overhead");
    assert!(
        every_tick.trace.contains(r#""blocked_by_disable_limit""#),
        "no blocked_by_disable_limit record"
    );
}

/// Saturated SS and TSS: fresh jobs wait on suspended jobs' claims, the
/// no-op decides report horizons at crossings and certify arrivals and
/// stale completions, and the every-tick trace still comes out, with and
/// without the paper's overhead. The TSS run writes
/// `blocked_by_disable_limit` records, which lapsed ticks replay.
#[test]
fn saturated_ss_and_tss_keep_the_every_tick_trace() {
    for spec in ["ss:2", "tss:2"] {
        let cfg = ExperimentConfig::new(CTC, spec.parse().expect("spec parses"))
            .with_jobs(1_200)
            .with_seed(31)
            .with_load_factor(2.0);
        let (obs, _) = check(&cfg, &format!("{spec} on CTC at load 2.0"));
        if spec == "tss:2" {
            assert!(
                obs.trace.contains(r#""blocked_by_disable_limit""#),
                "{spec}: no blocked_by_disable_limit record"
            );
        }
        let paper = cfg.with_overhead(OverheadModel::paper());
        check(
            &paper,
            &format!("{spec} on CTC at load 2.0, paper overhead"),
        );
    }
}

/// Saturated Immediate Service under the paper's overhead: its no-op
/// decides report protection-expiry horizons, and the ticks before them
/// lapse while jobs wait, suspended and queued alike.
#[test]
fn lapsed_noop_ticks_keep_the_is_trace() {
    let cfg = ExperimentConfig::new(CTC, SchedulerKind::ImmediateService)
        .with_jobs(400)
        .with_seed(17)
        .with_load_factor(1.6)
        .with_overhead(OverheadModel::paper());
    let (obs, _) = check(&cfg, "is on CTC at load 1.6, paper overhead");
    assert!(obs.sim.preemptions > 0, "no job was suspended");
}

/// The registry's lines, without its wall-clock series (decide latency).
fn registry_without_wall_clock(tel: &Telemetry) -> Vec<String> {
    tel.render_prom()
        .lines()
        .filter(|l| !l.contains("sps_decide_latency_ns"))
        .map(str::to_string)
        .collect()
}

/// Attaching a trace sink changes nothing telemetry sees: SS/TSS take the
/// same no-op certification, and so the same victim scans, either way.
/// Saturated TSS, whose tick scans write records, computes the same
/// horizons and certificates traced or not.
#[test]
fn a_trace_sink_leaves_telemetry_unchanged() {
    for (system, spec, load) in [
        (SDSC, "ss:2", 1.0),
        (SDSC, "tss:2", 1.4),
        (SDSC, "is", 1.0),
        (CTC, "tss:2", 2.0),
    ] {
        let cfg = ExperimentConfig::new(system, spec.parse().expect("spec parses"))
            .with_jobs(600)
            .with_seed(31)
            .with_load_factor(load);
        let mut plain = Telemetry::new();
        cfg.runner().telemetry(&mut plain).build().run();
        let mut sink = JsonlSink::new(Vec::new());
        let mut traced = Telemetry::new();
        cfg.runner()
            .trace_sink(&mut sink)
            .telemetry(&mut traced)
            .build()
            .run();
        let (with, without) = (
            registry_without_wall_clock(&traced),
            registry_without_wall_clock(&plain),
        );
        if let Some((a, b)) = with.iter().zip(&without).find(|(a, b)| a != b) {
            panic!(
                "{spec} on {} at load {load}: {a:?} with a trace sink, {b:?} without",
                system.name
            );
        }
        assert_eq!(with.len(), without.len(), "{spec} at load {load}");
    }
}

/// A closed run with a warmup window. Its window used to end at the
/// every-tick schedule's trailing tick when the run was observed, and at
/// the last completion when it was not; now both end at the last
/// completion.
#[test]
fn a_warmup_window_ends_at_the_last_executed_instant() {
    let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
        .with_jobs(300)
        .with_seed(700)
        .with_load_factor(0.6)
        .with_warmup(3_600);
    let (obs, _) = check(&cfg, "ss:2 with a 1 h warmup");
    let window = obs.sim.windowed.expect("a warmup makes a window");
    assert_eq!(window.end, SimTime::new(881_867));
    assert!(
        (window.utilization - 0.261_447_0).abs() < 5e-8,
        "{}",
        window.utilization
    );
}

/// Fault injection and admission control run the one elided schedule
/// too: each recovery policy, checkpointing and migration (all with job
/// crashes), and `load:1h` admission with and without the paper's
/// overhead. On this SDSC trace full-width jobs queue while processors
/// are down, so conservative and flex backfilling meet jobs they cannot
/// reserve. Gang certifies no quiescent no-op and is the control: it
/// executes every tick either way.
#[test]
fn fault_and_admission_runs_elide_and_keep_the_every_tick_trace() {
    let admission: AdmissionModel = "load:1h".parse().expect("admission spec parses");
    for spec in ["ss:2", "tss:2", "is", "ns", "cons", "flex:3", "gang"] {
        let base = ExperimentConfig::new(SDSC, spec.parse().expect("spec parses"))
            .with_jobs(150)
            .with_seed(5)
            .with_load_factor(1.6);
        let mut cases = common::fault_variants(&base);
        let admitted = base.clone().with_admission(admission);
        cases.push(("load:1h admission".into(), admitted.clone()));
        let paper = admitted.with_overhead(OverheadModel::paper());
        cases.push(("load:1h admission, paper overhead".into(), paper));

        let policy = base.scheduler.build();
        for (variant, cfg) in cases {
            let label = format!("{spec} on SDSC, {variant}");
            let (obs, every_tick) = check(&cfg, &label);
            let (o, e) = (&obs.sim, &every_tick.sim);
            assert_eq!(o.faults, e.faults, "{label}: fault ledger");
            assert_eq!(o.rejections, e.rejections, "{label}: rejection ledger");
            if cfg.faults.enabled() {
                assert!(o.faults.proc_failures > 0, "{label}: no failure");
            } else {
                assert!(o.rejections.rejected > 0, "{label}: no rejection");
            }
            let executed = |s: &SimResult| (s.kernel.events, s.kernel.decide_calls);
            if !policy.quiescent_noop() {
                assert_eq!(executed(o), executed(e), "{label}: executed work");
                continue;
            }
            assert!(
                o.kernel.decide_calls < e.kernel.decide_calls,
                "{label}: the run skipped no decide"
            );
            if policy.needs_tick() {
                assert!(
                    o.kernel.events < e.kernel.events,
                    "{label}: the run elided no tick"
                );
            }
        }
    }
}
