//! Implementations of every table/figure reproduction.
//!
//! Each public function renders one paper artifact as plain text. All of
//! them draw simulation results through a process-wide cache keyed by the
//! full experiment configuration, so `all` does not repeat work shared
//! between figures (e.g. Figs. 7 and 8 are the slowdown and turnaround
//! views of the same five runs).

use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

use sps_core::experiment::{ExperimentConfig, RunResult, SchedulerKind};
use sps_core::overhead::OverheadModel;
use sps_core::runner::BatchRunner;
use sps_core::theory;
use sps_metrics::aggregate::CategoryReport;
use sps_metrics::table::{render_comparison, render_grid, render_series};
use sps_workload::traces::{CTC, SDSC};
use sps_workload::{synthetic, CoarseCategory, EstimateModel, SystemPreset};

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

fn cache() -> &'static Mutex<HashMap<String, RunResult>> {
    static CACHE: OnceLock<Mutex<HashMap<String, RunResult>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cache key: the configuration's JSON encoding, which names every
/// setting that changes a run's result.
fn key_of(cfg: &ExperimentConfig) -> String {
    cfg.to_json().render()
}

/// Run a batch of configurations through the cache; missing entries are
/// simulated in parallel.
fn run_cached(configs: Vec<ExperimentConfig>) -> Vec<RunResult> {
    let keys: Vec<String> = configs.iter().map(key_of).collect();
    let missing: Vec<ExperimentConfig> = {
        let guard = cache().lock().expect("cache lock");
        configs
            .iter()
            .zip(&keys)
            .filter(|(_, k)| !guard.contains_key(*k))
            .map(|(c, _)| c.clone())
            .collect()
    };
    if !missing.is_empty() {
        let fresh = BatchRunner::new(missing).run();
        let mut guard = cache().lock().expect("cache lock");
        for r in fresh {
            guard.insert(key_of(&r.config), r);
        }
    }
    let guard = cache().lock().expect("cache lock");
    keys.iter().map(|k| guard[k].clone()).collect()
}

// ---------------------------------------------------------------------
// Shared scheme line-ups
// ---------------------------------------------------------------------

/// Section IV line-up (accurate estimates): SS at three factors vs NS vs IS.
fn ss_lineup() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Ss { sf: 1.5 },
        SchedulerKind::Ss { sf: 2.0 },
        SchedulerKind::Ss { sf: 5.0 },
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
    ]
}

/// Section V line-up (inaccurate estimates): the tuned scheme at three
/// factors vs NS vs IS ("the TSS scheme is used for all the subsequent
/// experiments").
fn tss_lineup() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Tss { sf: 1.5 },
        SchedulerKind::Tss { sf: 2.0 },
        SchedulerKind::Tss { sf: 5.0 },
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
    ]
}

fn base_configs(system: SystemPreset, schemes: &[SchedulerKind]) -> Vec<ExperimentConfig> {
    schemes
        .iter()
        .map(|&s| ExperimentConfig::new(system, s))
        .collect()
}

fn inaccurate(cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.with_estimates(EstimateModel::paper_mixture())
}

/// Which per-category grid of a report to show.
#[derive(Clone, Copy)]
enum Metric {
    MeanSlowdown,
    WorstSlowdown,
    MeanTurnaround,
    WorstTurnaround,
}

impl Metric {
    fn grid(self, report: &CategoryReport) -> [f64; 16] {
        match self {
            Metric::MeanSlowdown => report.mean_slowdown_grid(),
            Metric::WorstSlowdown => report.worst_slowdown_grid(),
            Metric::MeanTurnaround => report.mean_turnaround_grid(),
            Metric::WorstTurnaround => report.worst_turnaround_grid(),
        }
    }
}

/// Which estimate-quality slice of the run to aggregate.
#[derive(Clone, Copy)]
enum Slice {
    All,
    Well,
    Badly,
}

impl Slice {
    fn report(self, run: &RunResult) -> &CategoryReport {
        match self {
            Slice::All => &run.report,
            Slice::Well => &run.report_well,
            Slice::Badly => &run.report_badly,
        }
    }
}

fn comparison_figure(
    title: &str,
    system: SystemPreset,
    schemes: Vec<SchedulerKind>,
    metric: Metric,
    slice: Slice,
    map: impl Fn(ExperimentConfig) -> ExperimentConfig,
) -> String {
    let configs: Vec<ExperimentConfig> = base_configs(system, &schemes)
        .into_iter()
        .map(&map)
        .collect();
    let results = run_cached(configs);
    let labels: Vec<String> = results.iter().map(|r| r.config.scheduler.label()).collect();
    let schemes_data: Vec<(&str, [f64; 16])> = results
        .iter()
        .zip(&labels)
        .map(|(r, l)| (l.as_str(), metric.grid(slice.report(r))))
        .collect();
    let mut out = render_comparison(title, &schemes_data);
    out.push('\n');
    for r in &results {
        let rep = slice.report(r);
        out.push_str(&format!(
            "{:<14} overall: mean slowdown {:.2}, mean turnaround {:.0} s, worst slowdown {:.1}, utilization {:.1}%, {} preemptions\n",
            r.config.scheduler.label(),
            rep.overall.mean_slowdown,
            rep.overall.mean_turnaround,
            rep.overall.worst_slowdown,
            r.utilization_pct(),
            r.sim.preemptions,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table I: the 16-category criteria.
pub fn table1() -> String {
    let mut out = String::from("Table I: job categorization criteria\n");
    out.push_str(&format!(
        "{:<14}{:>12}{:>12}{:>12}{:>12}\n",
        "", "1 Proc", "2-8 Procs", "9-32 Procs", "> 32 Procs"
    ));
    for (row, cells) in [
        ("0 - 10 min", ["VS Seq", "VS N", "VS W", "VS VW"]),
        ("10 min - 1 hr", ["S Seq", "S N", "S W", "S VW"]),
        ("1 hr - 8 hr", ["L Seq", "L N", "L W", "L VW"]),
        ("> 8 hr", ["VL Seq", "VL N", "VL W", "VL VW"]),
    ] {
        out.push_str(&format!(
            "{:<14}{:>12}{:>12}{:>12}{:>12}\n",
            row, cells[0], cells[1], cells[2], cells[3]
        ));
    }
    out
}

fn mix_table(system: SystemPreset, label: &str) -> String {
    let jobs = ExperimentConfig::new(system, SchedulerKind::Easy).trace();
    let mix = synthetic::empirical_mix(&jobs);
    let mut out = render_grid(
        &format!(
            "{label}: job distribution by category, % of jobs ({} synthetic trace, {} jobs)",
            system.name,
            jobs.len()
        ),
        &mix,
    );
    out.push_str(&render_grid(
        &format!("{label} (calibration target from the paper):"),
        &system.mix,
    ));
    out
}

/// Table II: CTC job mix.
pub fn table2() -> String {
    mix_table(CTC, "Table II")
}

/// Table III: SDSC job mix.
pub fn table3() -> String {
    mix_table(SDSC, "Table III")
}

fn ns_slowdown_table(system: SystemPreset, label: &str, paper: [f64; 16]) -> String {
    let results = run_cached(vec![ExperimentConfig::new(system, SchedulerKind::Easy)]);
    let r = &results[0];
    let mut out = render_grid(
        &format!(
            "{label}: average slowdown per category, nonpreemptive (NS) scheduling, {} trace",
            system.name
        ),
        &r.report.mean_slowdown_grid(),
    );
    out.push_str(&render_grid(&format!("{label} (paper's values):"), &paper));
    out.push_str(&format!(
        "\noverall slowdown: measured {:.2} (paper: {})\n",
        r.report.overall.mean_slowdown,
        if system.name == "CTC" {
            "3.58"
        } else {
            "14.13"
        }
    ));
    out
}

/// Table IV: NS average slowdowns per category, CTC.
pub fn table4() -> String {
    #[rustfmt::skip]
    let paper = [
        2.6, 4.76, 13.01, 34.07,
        1.26, 1.76, 3.04, 7.14,
        1.13, 1.43, 1.88, 1.63,
        1.03, 1.05, 1.09, 1.15,
    ];
    ns_slowdown_table(CTC, "Table IV", paper)
}

/// Table V: NS average slowdowns per category, SDSC.
pub fn table5() -> String {
    #[rustfmt::skip]
    let paper = [
        2.53, 14.41, 37.78, 113.31,
        1.15, 2.43, 4.83, 15.56,
        1.19, 1.24, 1.96, 2.79,
        1.03, 1.09, 1.18, 1.43,
    ];
    ns_slowdown_table(SDSC, "Table V", paper)
}

/// Table VI: the 4-category criteria for the load-variation study.
pub fn table6() -> String {
    let mut out = String::from("Table VI: categorization for load variation studies\n");
    out.push_str(&format!(
        "{:<14}{:>14}{:>14}\n",
        "", "<= 8 procs", "> 8 procs"
    ));
    out.push_str(&format!("{:<14}{:>14}{:>14}\n", "<= 1 hr", "SN", "SW"));
    out.push_str(&format!("{:<14}{:>14}{:>14}\n", "> 1 hr", "LN", "LW"));
    out
}

fn coarse_mix_table(system: SystemPreset, label: &str, paper: [f64; 4]) -> String {
    let jobs = ExperimentConfig::new(system, SchedulerKind::Easy).trace();
    let mix = synthetic::empirical_coarse_mix(&jobs);
    let mut out = format!(
        "{label}: 4-way job distribution, {} synthetic trace\n",
        system.name
    );
    out.push_str(&format!(
        "{:<14}{:>12}{:>12}\n",
        "", "measured %", "paper %"
    ));
    for (i, cat) in CoarseCategory::ALL.into_iter().enumerate() {
        out.push_str(&format!(
            "{:<14}{:>12.1}{:>12.1}\n",
            cat.label(),
            mix[i],
            paper[i]
        ));
    }
    out
}

/// Table VII: coarse mix, CTC.
pub fn table7() -> String {
    coarse_mix_table(CTC, "Table VII", [44.0, 30.0, 13.0, 13.0])
}

/// Table VIII: coarse mix, SDSC.
pub fn table8() -> String {
    coarse_mix_table(SDSC, "Table VIII", [47.0, 21.0, 22.0, 10.0])
}

// ---------------------------------------------------------------------
// Figs. 4-6: two-task alternation
// ---------------------------------------------------------------------

/// Figures 4-6: execution patterns of two equal simultaneous tasks under
/// various suspension factors.
pub fn fig4_6() -> String {
    let length = 3_600;
    let mut out = String::from(
        "Figs. 4-6: two equal full-machine tasks, execution alternation vs suspension factor\n\n",
    );
    for (name, sf) in [
        ("Fig. 4  (SF = 1)", 1.0),
        ("Fig. 5  (1 < SF < sqrt(2), SF = 1.2)", 1.2),
        ("boundary (SF = sqrt(2))", 2f64.sqrt()),
        ("Fig. 6  (SF = 2)", 2.0),
    ] {
        let trace = theory::two_task_alternation(length, sf, 60);
        out.push_str(&format!(
            "{name}: {} suspensions, first completion at {:.0} s, makespan {:.0} s\n",
            trace.suspensions, trace.first_completion, trace.last_completion
        ));
        // ASCII bar: 80 columns spanning the makespan.
        let cols = 80.0;
        let scale = cols / trace.last_completion;
        let mut bar = String::new();
        for seg in trace.segments.iter() {
            let w = (((seg.end - seg.start) * scale).round() as usize).max(1);
            let c = if seg.task == theory::Task::T1 {
                '1'
            } else {
                '2'
            };
            bar.extend(std::iter::repeat_n(c, w));
        }
        out.push_str(&format!("  |{bar}|\n"));
    }
    out.push_str(&format!(
        "\nminimum SF for at most n suspensions (= 2^(1/(n+1))): n=0: {:.3}, n=1: {:.3}, n=2: {:.3}, n=3: {:.3}\n",
        theory::min_sf_for_at_most(0),
        theory::min_sf_for_at_most(1),
        theory::min_sf_for_at_most(2),
        theory::min_sf_for_at_most(3),
    ));
    out
}

// ---------------------------------------------------------------------
// Figs. 7-10: SS average slowdown / turnaround (accurate estimates)
// ---------------------------------------------------------------------

/// Fig. 7: average slowdown, SS scheme, CTC.
pub fn fig7() -> String {
    comparison_figure(
        "Fig. 7: average slowdown, SS vs NS vs IS, CTC trace (accurate estimates)",
        CTC,
        ss_lineup(),
        Metric::MeanSlowdown,
        Slice::All,
        |c| c,
    )
}

/// Fig. 8: average turnaround time, SS scheme, CTC.
pub fn fig8() -> String {
    comparison_figure(
        "Fig. 8: average turnaround time (s), SS vs NS vs IS, CTC trace (accurate estimates)",
        CTC,
        ss_lineup(),
        Metric::MeanTurnaround,
        Slice::All,
        |c| c,
    )
}

/// Fig. 9: average slowdown, SS scheme, SDSC.
pub fn fig9() -> String {
    comparison_figure(
        "Fig. 9: average slowdown, SS vs NS vs IS, SDSC trace (accurate estimates)",
        SDSC,
        ss_lineup(),
        Metric::MeanSlowdown,
        Slice::All,
        |c| c,
    )
}

/// Fig. 10: average turnaround time, SS scheme, SDSC.
pub fn fig10() -> String {
    comparison_figure(
        "Fig. 10: average turnaround time (s), SS vs NS vs IS, SDSC trace (accurate estimates)",
        SDSC,
        ss_lineup(),
        Metric::MeanTurnaround,
        Slice::All,
        |c| c,
    )
}

// ---------------------------------------------------------------------
// Figs. 11-18: worst case & the TSS tuning
// ---------------------------------------------------------------------

fn worst_lineup() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Ss { sf: 2.0 },
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
    ]
}

fn tuned_worst_lineup() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Ss { sf: 2.0 },
        SchedulerKind::Tss { sf: 2.0 },
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
    ]
}

/// Fig. 11: worst-case slowdown, SS, CTC.
pub fn fig11() -> String {
    comparison_figure(
        "Fig. 11: worst-case slowdown, SS(SF=2) vs NS vs IS, CTC trace",
        CTC,
        worst_lineup(),
        Metric::WorstSlowdown,
        Slice::All,
        |c| c,
    )
}

/// Fig. 12: worst-case turnaround, SS, CTC.
pub fn fig12() -> String {
    comparison_figure(
        "Fig. 12: worst-case turnaround time (s), SS(SF=2) vs NS vs IS, CTC trace",
        CTC,
        worst_lineup(),
        Metric::WorstTurnaround,
        Slice::All,
        |c| c,
    )
}

/// Fig. 13: worst-case slowdown with TSS, CTC.
pub fn fig13() -> String {
    comparison_figure(
        "Fig. 13: worst-case slowdown, TSS tuning, CTC trace",
        CTC,
        tuned_worst_lineup(),
        Metric::WorstSlowdown,
        Slice::All,
        |c| c,
    )
}

/// Fig. 14: worst-case turnaround with TSS, CTC.
pub fn fig14() -> String {
    comparison_figure(
        "Fig. 14: worst-case turnaround time (s), TSS tuning, CTC trace",
        CTC,
        tuned_worst_lineup(),
        Metric::WorstTurnaround,
        Slice::All,
        |c| c,
    )
}

/// Fig. 15: worst-case slowdown, SS, SDSC.
pub fn fig15() -> String {
    comparison_figure(
        "Fig. 15: worst-case slowdown, SS(SF=2) vs NS vs IS, SDSC trace",
        SDSC,
        worst_lineup(),
        Metric::WorstSlowdown,
        Slice::All,
        |c| c,
    )
}

/// Fig. 16: worst-case turnaround, SS, SDSC.
pub fn fig16() -> String {
    comparison_figure(
        "Fig. 16: worst-case turnaround time (s), SS(SF=2) vs NS vs IS, SDSC trace",
        SDSC,
        worst_lineup(),
        Metric::WorstTurnaround,
        Slice::All,
        |c| c,
    )
}

/// Fig. 17: worst-case slowdown with TSS, SDSC.
pub fn fig17() -> String {
    comparison_figure(
        "Fig. 17: worst-case slowdown, TSS tuning, SDSC trace",
        SDSC,
        tuned_worst_lineup(),
        Metric::WorstSlowdown,
        Slice::All,
        |c| c,
    )
}

/// Fig. 18: worst-case turnaround with TSS, SDSC.
pub fn fig18() -> String {
    comparison_figure(
        "Fig. 18: worst-case turnaround time (s), TSS tuning, SDSC trace",
        SDSC,
        tuned_worst_lineup(),
        Metric::WorstTurnaround,
        Slice::All,
        |c| c,
    )
}

// ---------------------------------------------------------------------
// Figs. 19-30: inaccurate user estimates
// ---------------------------------------------------------------------

macro_rules! estimate_fig {
    ($name:ident, $title:expr, $sys:expr, $metric:expr, $slice:expr) => {
        #[doc = $title]
        pub fn $name() -> String {
            comparison_figure($title, $sys, tss_lineup(), $metric, $slice, inaccurate)
        }
    };
}

estimate_fig!(
    fig19,
    "Fig. 19: average slowdown, inaccurate estimates, CTC trace",
    CTC,
    Metric::MeanSlowdown,
    Slice::All
);
estimate_fig!(
    fig20,
    "Fig. 20: average slowdown of well estimated jobs, CTC trace",
    CTC,
    Metric::MeanSlowdown,
    Slice::Well
);
estimate_fig!(
    fig21,
    "Fig. 21: average slowdown of badly estimated jobs, CTC trace",
    CTC,
    Metric::MeanSlowdown,
    Slice::Badly
);
estimate_fig!(
    fig22,
    "Fig. 22: average turnaround time (s), inaccurate estimates, CTC trace",
    CTC,
    Metric::MeanTurnaround,
    Slice::All
);
estimate_fig!(
    fig23,
    "Fig. 23: average turnaround time (s) of well estimated jobs, CTC trace",
    CTC,
    Metric::MeanTurnaround,
    Slice::Well
);
estimate_fig!(
    fig24,
    "Fig. 24: average turnaround time (s) of badly estimated jobs, CTC trace",
    CTC,
    Metric::MeanTurnaround,
    Slice::Badly
);
estimate_fig!(
    fig25,
    "Fig. 25: average slowdown, inaccurate estimates, SDSC trace",
    SDSC,
    Metric::MeanSlowdown,
    Slice::All
);
estimate_fig!(
    fig26,
    "Fig. 26: average slowdown of well estimated jobs, SDSC trace",
    SDSC,
    Metric::MeanSlowdown,
    Slice::Well
);
estimate_fig!(
    fig27,
    "Fig. 27: average slowdown of badly estimated jobs, SDSC trace",
    SDSC,
    Metric::MeanSlowdown,
    Slice::Badly
);
estimate_fig!(
    fig28,
    "Fig. 28: average turnaround time (s), inaccurate estimates, SDSC trace",
    SDSC,
    Metric::MeanTurnaround,
    Slice::All
);
estimate_fig!(
    fig29,
    "Fig. 29: average turnaround time (s) of well estimated jobs, SDSC trace",
    SDSC,
    Metric::MeanTurnaround,
    Slice::Well
);
estimate_fig!(
    fig30,
    "Fig. 30: average turnaround time (s) of badly estimated jobs, SDSC trace",
    SDSC,
    Metric::MeanTurnaround,
    Slice::Badly
);

// ---------------------------------------------------------------------
// Figs. 31-34: suspension overhead
// ---------------------------------------------------------------------

fn overhead_figure(title: &str, system: SystemPreset, metric: Metric) -> String {
    let mut configs = vec![
        inaccurate(ExperimentConfig::new(
            system,
            SchedulerKind::Tss { sf: 2.0 },
        )),
        inaccurate(ExperimentConfig::new(
            system,
            SchedulerKind::Tss { sf: 2.0 },
        ))
        .with_overhead(OverheadModel::paper()),
        inaccurate(ExperimentConfig::new(system, SchedulerKind::Easy)),
        inaccurate(ExperimentConfig::new(
            system,
            SchedulerKind::ImmediateService,
        )),
    ];
    // IS pays overhead too when it is modelled; the paper's "SF = 2 OH"
    // bar isolates the effect on the proposed scheme.
    let results = run_cached(std::mem::take(&mut configs));
    let labels = ["SF=2 Tuned", "SF=2 Tuned OH", "NS", "IS"];
    let schemes: Vec<(&str, [f64; 16])> = results
        .iter()
        .zip(labels)
        .map(|(r, l)| (l, metric.grid(&r.report)))
        .collect();
    let mut out = render_comparison(title, &schemes);
    out.push('\n');
    for (r, l) in results.iter().zip(labels) {
        out.push_str(&format!(
            "{:<14} overall: mean slowdown {:.2}, mean turnaround {:.0} s, utilization {:.1}%, {} preemptions\n",
            l,
            r.report.overall.mean_slowdown,
            r.report.overall.mean_turnaround,
            r.utilization_pct(),
            r.sim.preemptions
        ));
    }
    out
}

/// Fig. 31: slowdown with suspension overhead, CTC.
pub fn fig31() -> String {
    overhead_figure(
        "Fig. 31: average slowdown with suspension/restart overhead (2 MB/s per proc), CTC trace",
        CTC,
        Metric::MeanSlowdown,
    )
}

/// Fig. 32: turnaround with suspension overhead, CTC.
pub fn fig32() -> String {
    overhead_figure(
        "Fig. 32: average turnaround time (s) with suspension/restart overhead, CTC trace",
        CTC,
        Metric::MeanTurnaround,
    )
}

/// Fig. 33: slowdown with suspension overhead, SDSC.
pub fn fig33() -> String {
    overhead_figure(
        "Fig. 33: average slowdown with suspension/restart overhead (2 MB/s per proc), SDSC trace",
        SDSC,
        Metric::MeanSlowdown,
    )
}

/// Fig. 34: turnaround with suspension overhead, SDSC.
pub fn fig34() -> String {
    overhead_figure(
        "Fig. 34: average turnaround time (s) with suspension/restart overhead, SDSC trace",
        SDSC,
        Metric::MeanTurnaround,
    )
}

// ---------------------------------------------------------------------
// Figs. 35-44: load variation
// ---------------------------------------------------------------------

fn load_factors(system: SystemPreset) -> Vec<f64> {
    if system.name == "CTC" {
        vec![1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    } else {
        // The paper sweeps SDSC over 1.0-1.5; our synthetic SDSC baseline
        // sits at a lower absolute load, so the sweep extends to 2.0 to
        // reach the saturation plateau.
        vec![1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    }
}

fn sweep_lineup() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Tss { sf: 2.0 },
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
    ]
}

/// All (scheme × load) runs for one system's sweep, cached.
fn sweep(system: SystemPreset) -> Vec<Vec<RunResult>> {
    // Outer: scheme; inner: load factor.
    let schemes = sweep_lineup();
    let loads = load_factors(system);
    let mut configs = Vec::new();
    for &s in &schemes {
        for &lf in &loads {
            configs.push(ExperimentConfig::new(system, s).with_load_factor(lf));
        }
    }
    let flat = run_cached(configs);
    flat.chunks(loads.len()).map(|c| c.to_vec()).collect()
}

fn utilization_figure(title: &str, system: SystemPreset) -> String {
    let runs = sweep(system);
    let loads = load_factors(system);
    let series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .map(|per_scheme| {
            (
                per_scheme[0].config.scheduler.label(),
                per_scheme.iter().map(RunResult::utilization_pct).collect(),
            )
        })
        .collect();
    let named: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    render_series(title, "load factor", &loads, &named)
}

/// Fig. 35: utilization vs load, CTC.
pub fn fig35() -> String {
    utilization_figure(
        "Fig. 35: overall system utilization (%) under different loads, CTC trace",
        CTC,
    )
}

/// Fig. 38: utilization vs load, SDSC.
pub fn fig38() -> String {
    utilization_figure(
        "Fig. 38: overall system utilization (%) under different loads, SDSC trace",
        SDSC,
    )
}

fn coarse_metric(r: &RunResult, cat: CoarseCategory, slowdown: bool) -> f64 {
    let s = &r.report.per_coarse[cat.index()];
    if slowdown {
        s.mean_slowdown
    } else {
        s.mean_turnaround
    }
}

fn load_sweep_figure(title: &str, system: SystemPreset, slowdown: bool) -> String {
    let runs = sweep(system);
    let loads = load_factors(system);
    let mut out = format!("{title}\n");
    for cat in CoarseCategory::ALL {
        let series: Vec<(String, Vec<f64>)> = runs
            .iter()
            .map(|per_scheme| {
                (
                    per_scheme[0].config.scheduler.label(),
                    per_scheme
                        .iter()
                        .map(|r| coarse_metric(r, cat, slowdown))
                        .collect(),
                )
            })
            .collect();
        let named: Vec<(&str, Vec<f64>)> = series
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        out.push('\n');
        out.push_str(&render_series(cat.label(), "load factor", &loads, &named));
    }
    out
}

/// Fig. 36: slowdown vs load per coarse category, CTC.
pub fn fig36() -> String {
    load_sweep_figure("Fig. 36: average slowdown vs load, CTC trace", CTC, true)
}

/// Fig. 37: turnaround vs load per coarse category, CTC.
pub fn fig37() -> String {
    load_sweep_figure(
        "Fig. 37: average turnaround time (s) vs load, CTC trace",
        CTC,
        false,
    )
}

/// Fig. 39: slowdown vs load per coarse category, SDSC.
pub fn fig39() -> String {
    load_sweep_figure("Fig. 39: average slowdown vs load, SDSC trace", SDSC, true)
}

/// Fig. 40: turnaround vs load per coarse category, SDSC.
pub fn fig40() -> String {
    load_sweep_figure(
        "Fig. 40: average turnaround time (s) vs load, SDSC trace",
        SDSC,
        false,
    )
}

fn util_scatter_figure(title: &str, system: SystemPreset, slowdown: bool) -> String {
    let runs = sweep(system);
    let mut out = format!("{title}\n(each row is one load factor; x = achieved utilization %)\n");
    for cat in CoarseCategory::ALL {
        out.push_str(&format!("\n{}\n", cat.label()));
        out.push_str(&format!("{:<12}", "load"));
        for per_scheme in &runs {
            let name = per_scheme[0].config.scheduler.label();
            out.push_str(&format!("{:>11}-util{:>11}-val", name, name));
        }
        out.push('\n');
        let loads = load_factors(system);
        for (i, lf) in loads.iter().enumerate() {
            out.push_str(&format!("{lf:<12.2}"));
            for per_scheme in &runs {
                let r = &per_scheme[i];
                out.push_str(&format!(
                    "{:>16.1}{:>15.1}",
                    r.utilization_pct(),
                    coarse_metric(r, cat, slowdown)
                ));
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 41: slowdown vs utilization, CTC.
pub fn fig41() -> String {
    util_scatter_figure(
        "Fig. 41: average slowdown vs system utilization, CTC trace",
        CTC,
        true,
    )
}

/// Fig. 42: turnaround vs utilization, CTC.
pub fn fig42() -> String {
    util_scatter_figure(
        "Fig. 42: average turnaround time vs system utilization, CTC trace",
        CTC,
        false,
    )
}

/// Fig. 43: slowdown vs utilization, SDSC.
pub fn fig43() -> String {
    util_scatter_figure(
        "Fig. 43: average slowdown vs system utilization, SDSC trace",
        SDSC,
        true,
    )
}

/// Fig. 44: turnaround vs utilization, SDSC.
pub fn fig44() -> String {
    util_scatter_figure(
        "Fig. 44: average turnaround time vs system utilization, SDSC trace",
        SDSC,
        false,
    )
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Fine sweep of the suspension factor (extends Figs. 7-10).
pub fn ablation_sf_sweep() -> String {
    let sfs = [1.1, 1.25, 1.5, 2.0, 3.0, 5.0];
    let mut out =
        String::from("Ablation: suspension-factor sweep, SS on CTC (accurate estimates)\n");
    out.push_str(&format!(
        "{:<8}{:>14}{:>14}{:>14}{:>14}{:>14}\n",
        "SF", "overall sd", "VS mean sd", "VL mean sd", "preemptions", "util %"
    ));
    let configs: Vec<ExperimentConfig> = sfs
        .iter()
        .map(|&sf| ExperimentConfig::new(CTC, SchedulerKind::Ss { sf }))
        .collect();
    let results = run_cached(configs);
    for (sf, r) in sfs.iter().zip(&results) {
        // Aggregate the four VS and four VL cells, weighted by count.
        let vs = aggregate_row(&r.report, 0);
        let vl = aggregate_row(&r.report, 3);
        out.push_str(&format!(
            "{:<8}{:>14.2}{:>14.2}{:>14.2}{:>14}{:>14.1}\n",
            sf,
            r.report.overall.mean_slowdown,
            vs,
            vl,
            r.sim.preemptions,
            r.utilization_pct()
        ));
    }
    out.push_str("\nLower SF helps short jobs (more eager preemption) and hurts very long\njobs; preemption count falls as SF grows.\n");
    out
}

/// Count-weighted mean slowdown of one run-time row (0 = VS … 3 = VL).
fn aggregate_row(report: &CategoryReport, row: usize) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for col in 0..4 {
        let s = &report.per_category[row * 4 + col];
        sum += s.mean_slowdown * s.count as f64;
        n += s.count;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// SS with and without the ½-width suspend rule.
pub fn ablation_width_restriction() -> String {
    use sps_core::sched::ss::{SelectiveSuspension, SsConfig};
    use sps_core::sim::Simulator;
    let mut out =
        String::from("Ablation: the width restriction (suspender >= half the victim's width)\n");
    for system in [CTC, SDSC] {
        let jobs = ExperimentConfig::new(system, SchedulerKind::Easy).trace();
        let with = Simulator::new(
            jobs.clone(),
            system.procs,
            Box::new(SelectiveSuspension::new(SsConfig::ss(2.0))),
        )
        .run();
        let mut cfg = SsConfig::ss(2.0);
        cfg.width_restriction = false;
        let without =
            Simulator::new(jobs, system.procs, Box::new(SelectiveSuspension::new(cfg))).run();
        let rep_with = CategoryReport::from_outcomes(&with.outcomes);
        let rep_without = CategoryReport::from_outcomes(&without.outcomes);
        out.push_str(&format!(
            "\n{} trace: mean slowdown per width class\n",
            system.name
        ));
        out.push_str(&format!(
            "{:<16}{:>12}{:>12}{:>14}\n",
            "width class", "with rule", "without", "paper keeps?"
        ));
        for (w, label) in ["Seq", "Narrow", "Wide", "Very Wide"].iter().enumerate() {
            // Count-weighted mean across run-time rows for this width col.
            let col = |rep: &CategoryReport| {
                let mut sum = 0.0;
                let mut n = 0usize;
                for row in 0..4 {
                    let s = &rep.per_category[row * 4 + w];
                    sum += s.mean_slowdown * s.count as f64;
                    n += s.count;
                }
                sum / n.max(1) as f64
            };
            out.push_str(&format!(
                "{:<16}{:>12.2}{:>12.2}{:>14}\n",
                label,
                col(&rep_with),
                col(&rep_without),
                if w >= 2 { "protects wide" } else { "" }
            ));
        }
        out.push_str(&format!(
            "preemptions: with rule {}, without {}\n",
            with.preemptions, without.preemptions
        ));
    }
    out
}

/// TSS limit sources: none (SS), running averages, NS-derived static.
pub fn ablation_tss_limit_source() -> String {
    use sps_core::sched::ss::{SelectiveSuspension, SsConfig};
    use sps_core::sched::tss::TssLimits;
    use sps_core::sim::Simulator;
    let system = CTC;
    let jobs = ExperimentConfig::new(system, SchedulerKind::Easy).trace();
    // NS averages for the static variant.
    let ns = run_cached(vec![ExperimentConfig::new(system, SchedulerKind::Easy)]).remove(0);
    let ns_avgs = ns.report.mean_slowdown_grid();

    let variants: Vec<(&str, SsConfig)> = vec![
        ("SS (no limit)", SsConfig::ss(2.0)),
        ("TSS running avg", SsConfig::tss(2.0)),
        (
            "TSS static (NS)",
            SsConfig {
                sf: 2.0,
                width_restriction: true,
                migration: false,
                limits: Some(TssLimits::with_static_averages(ns_avgs, 1.5)),
            },
        ),
    ];
    let mut out =
        String::from("Ablation: where TSS's per-category average slowdown comes from (CTC)\n");
    out.push_str(&format!(
        "{:<18}{:>12}{:>14}{:>14}{:>14}{:>16}\n",
        "variant", "overall sd", "worst sd", "VL worst sd", "preemptions", "cells +/-"
    ));
    let mut baseline: Option<[f64; 16]> = None;
    for (name, cfg) in variants {
        let res = Simulator::new(
            jobs.clone(),
            system.procs,
            Box::new(SelectiveSuspension::new(cfg)),
        )
        .run();
        let rep = CategoryReport::from_outcomes(&res.outcomes);
        let vl_worst = (12..16)
            .map(|i| rep.per_category[i].worst_slowdown)
            .fold(0.0, f64::max);
        let grid = rep.worst_slowdown_grid();
        let cells = match &baseline {
            None => {
                baseline = Some(grid);
                "(baseline)".to_string()
            }
            Some(base) => {
                let better = grid
                    .iter()
                    .zip(base)
                    .filter(|(b, a)| **b < **a * 0.95)
                    .count();
                let worse = grid
                    .iter()
                    .zip(base)
                    .filter(|(b, a)| **b > **a * 1.05)
                    .count();
                format!("{better}+/{worse}-")
            }
        };
        out.push_str(&format!(
            "{:<18}{:>12.2}{:>14.1}{:>14.2}{:>14}{:>16}\n",
            name,
            rep.overall.mean_slowdown,
            rep.overall.worst_slowdown,
            vl_worst,
            res.preemptions,
            cells
        ));
    }
    out.push_str(concat!(
        "\n'cells +/-' counts categories whose *worst-case* slowdown the limit\n",
        "improves/worsens by >5% relative to plain SS. Both limit sources\n",
        "improve most categories' worst cases at a small cost in average\n",
        "slowdown; an occasional very-short very-wide straggler (a single\n",
        "job blocked by freshly protected runners) carries the global max.\n",
    ));
    out
}

/// Reservation depth: how much of NS's short-job pain is a reservation-
/// policy artifact versus something only preemption fixes.
pub fn ablation_reservation_depth() -> String {
    let mut out = String::from(
        "Ablation: backfilling reservation depth (EASY=1 ... conservative=all) vs TSS\n",
    );
    for system in [CTC, SDSC] {
        out.push_str(&format!(
            "\n{} trace\n{:<16}{:>12}{:>14}{:>14}{:>10}\n",
            system.name, "scheme", "overall sd", "VS mean sd", "VW mean sd", "util %"
        ));
        let mut configs: Vec<ExperimentConfig> = [1usize, 2, 4, 16]
            .iter()
            .map(|&d| ExperimentConfig::new(system, SchedulerKind::Flex { depth: d }))
            .collect();
        configs.push(ExperimentConfig::new(system, SchedulerKind::Conservative));
        configs.push(ExperimentConfig::new(
            system,
            SchedulerKind::Tss { sf: 2.0 },
        ));
        for r in run_cached(configs) {
            // Count-weighted very-wide column mean.
            let mut vw_sum = 0.0;
            let mut vw_n = 0usize;
            for row in 0..4 {
                let s = &r.report.per_category[row * 4 + 3];
                vw_sum += s.mean_slowdown * s.count as f64;
                vw_n += s.count;
            }
            out.push_str(&format!(
                "{:<16}{:>12.2}{:>14.2}{:>14.2}{:>10.1}\n",
                r.config.scheduler.label(),
                r.report.overall.mean_slowdown,
                aggregate_row(&r.report, 0),
                vw_sum / vw_n.max(1) as f64,
                r.utilization_pct()
            ));
        }
    }
    out.push_str(concat!(
        "\nNo reservation depth comes close to preemption for the very-short\n",
        "categories: the pain is inherent to run-to-completion scheduling,\n",
        "which is the paper's core argument.\n",
    ));
    out
}

/// Slowdown tail percentiles — finer-grained than the paper's mean/worst
/// pair, same story: preemption compresses the tail.
pub fn percentiles() -> String {
    use sps_metrics::aggregate::{percentile, slowdown_distribution};
    let mut out = String::from("Bounded-slowdown percentiles per scheme\n");
    for system in [CTC, SDSC] {
        out.push_str(&format!(
            "\n{} trace\n{:<14}{:>10}{:>10}{:>10}{:>10}{:>12}\n",
            system.name, "scheme", "p50", "p90", "p99", "p99.9", "max"
        ));
        let configs = vec![
            ExperimentConfig::new(system, SchedulerKind::Easy),
            ExperimentConfig::new(system, SchedulerKind::Tss { sf: 2.0 }),
            ExperimentConfig::new(system, SchedulerKind::ImmediateService),
        ];
        for r in run_cached(configs) {
            let d = slowdown_distribution(&r.sim.outcomes);
            out.push_str(&format!(
                "{:<14}{:>10.2}{:>10.2}{:>10.1}{:>10.1}{:>12.1}\n",
                r.config.scheduler.label(),
                percentile(&d, 50.0),
                percentile(&d, 90.0),
                percentile(&d, 99.0),
                percentile(&d, 99.9),
                percentile(&d, 100.0),
            ));
        }
    }
    out
}

/// Machine occupancy over time: utilization sparklines per scheme, from
/// the simulator's per-dispatch segment record. Shows *where* NS's high
/// packing and IS's ragged profile come from.
pub fn timeline() -> String {
    use sps_core::sim::Simulator;
    use sps_metrics::timeline::{busy_timeline, render_sparkline};
    let mut out =
        String::from("Machine occupancy over time (CTC trace, load factor 1.4, 120 buckets)\n\n");
    let jobs = ExperimentConfig::new(CTC, SchedulerKind::Easy)
        .with_load_factor(1.4)
        .trace();
    let kinds = [
        SchedulerKind::Easy,
        SchedulerKind::Tss { sf: 2.0 },
        SchedulerKind::ImmediateService,
        SchedulerKind::Gang,
    ];
    // Common horizon: the slowest scheme's makespan.
    let mut runs = Vec::new();
    let mut horizon = 0i64;
    for kind in kinds {
        let res = Simulator::new(jobs.clone(), CTC.procs, kind.build()).run();
        horizon = horizon.max(
            res.outcomes
                .iter()
                .map(|o| o.completion.secs())
                .max()
                .unwrap_or(0),
        );
        runs.push((kind.label(), res));
    }
    for (label, res) in &runs {
        let intervals: Vec<(i64, i64, u32)> = res
            .segments
            .iter()
            .map(|s| (s.start.secs(), s.end.secs(), s.procs.count()))
            .collect();
        let series = busy_timeline(&intervals, CTC.procs, 0, horizon, 120);
        out.push_str(&format!(
            "{:<14} util {:>5.1}%\n|{}|\n\n",
            label,
            res.utilization * 100.0,
            render_sparkline(&series)
        ));
    }
    out.push_str("Each row spans the same wall-clock horizon; taller is busier.\n");
    out
}

/// Gang scheduling vs the paper's schemes (Section II cites gang
/// scheduling as the classical preemptive alternative; this quantifies
/// why the paper pursued selective suspension instead).
pub fn ablation_gang() -> String {
    let mut out =
        String::from("Ablation: time-sliced gang scheduling (10-min quantum) vs NS / TSS (CTC)\n");
    let configs = vec![
        ExperimentConfig::new(CTC, SchedulerKind::Easy),
        ExperimentConfig::new(CTC, SchedulerKind::Tss { sf: 2.0 }),
        ExperimentConfig::new(CTC, SchedulerKind::Gang),
        ExperimentConfig::new(CTC, SchedulerKind::ImmediateService),
    ];
    let results = run_cached(configs);
    out.push_str(&format!(
        "{:<14}{:>12}{:>14}{:>12}{:>14}{:>14}\n",
        "scheme", "overall sd", "mean TAT (s)", "util %", "VS mean sd", "preemptions"
    ));
    for r in &results {
        out.push_str(&format!(
            "{:<14}{:>12.2}{:>14.0}{:>12.1}{:>14.2}{:>14}\n",
            r.config.scheduler.label(),
            r.report.overall.mean_slowdown,
            r.report.overall.mean_turnaround,
            r.utilization_pct(),
            aggregate_row(&r.report, 0),
            r.sim.preemptions
        ));
    }
    out.push_str(concat!(
        "\nGang scheduling serves short jobs within a quantum like IS, but pays\n",
        "in utilization (unevenly filled slots idle capacity) and in context-\n",
        "switch volume; TSS reaches similar short-job service at a fraction of\n",
        "the preemptions and without the utilization loss.\n",
    ));
    out
}

/// Price of the local-restart constraint: SS with and without process
/// migration (suspended jobs restarting on any free processors).
pub fn ablation_migration() -> String {
    use sps_core::sched::ss::{SelectiveSuspension, SsConfig};
    use sps_core::sim::Simulator;
    let mut out =
        String::from("Ablation: local preemption (paper's model) vs free migration, SS SF=2\n");
    out.push_str(&format!(
        "{:<10}{:<12}{:>12}{:>12}{:>14}{:>14}\n",
        "system", "restart", "overall sd", "util %", "worst sd", "preemptions"
    ));
    for system in [CTC, SDSC] {
        for load in [1.0, 1.6] {
            let jobs = ExperimentConfig::new(system, SchedulerKind::Easy)
                .with_load_factor(load)
                .trace();
            for migration in [false, true] {
                let mut cfg = SsConfig::ss(2.0);
                cfg.migration = migration;
                let res = Simulator::new(
                    jobs.clone(),
                    system.procs,
                    Box::new(SelectiveSuspension::new(cfg)),
                )
                .run();
                let rep = CategoryReport::from_outcomes(&res.outcomes);
                let util = sps_metrics::utilization(&res.outcomes, system.procs);
                out.push_str(&format!(
                    "{:<10}{:<12}{:>12.2}{:>12.1}{:>14.1}{:>14}\n",
                    format!("{} x{load}", system.name),
                    if migration { "anywhere" } else { "same procs" },
                    rep.overall.mean_slowdown,
                    util * 100.0,
                    rep.overall.worst_slowdown,
                    res.preemptions
                ));
            }
        }
    }
    out.push_str(concat!(
        "\nMigration removes the exact-processor re-entry constraint; the gap\n",
        "between the rows is the price the distributed-memory model pays for\n",
        "suspend/restart without process migration.\n",
    ));
    out
}

/// Diurnal arrival burstiness: the biggest workload-realism residual
/// (EXPERIMENTS.md) quantified.
pub fn ablation_diurnal() -> String {
    use sps_core::sim::Simulator;
    use sps_workload::SyntheticConfig;
    let mut out = String::from(
        "Ablation: diurnal arrival modulation (intensity 1 + a*sin, noon peak), CTC\n",
    );
    out.push_str(&format!(
        "{:<12}{:<10}{:>12}{:>14}{:>12}\n",
        "amplitude", "scheme", "overall sd", "VS mean sd", "util %"
    ));
    for amplitude in [0.0, 0.4, 0.8] {
        let jobs = SyntheticConfig::new(CTC, 42)
            .with_diurnal(amplitude)
            .generate();
        for kind in [SchedulerKind::Easy, SchedulerKind::Tss { sf: 2.0 }] {
            let res = Simulator::new(jobs.clone(), CTC.procs, kind.build()).run();
            let rep = CategoryReport::from_outcomes(&res.outcomes);
            let util = sps_metrics::utilization(&res.outcomes, CTC.procs);
            out.push_str(&format!(
                "{:<12}{:<10}{:>12.2}{:>14.2}{:>12.1}\n",
                amplitude,
                kind.label(),
                rep.overall.mean_slowdown,
                aggregate_row(&rep, 0),
                util * 100.0
            ));
        }
    }
    out.push_str(concat!(
        "\nDaytime bursts raise queueing at the same offered load (the real logs'\n",
        "regime); preemption's advantage persists and grows with burstiness.\n",
    ));
    out
}

/// KTH: the paper's third trace, reported only as \"similar performance
/// trends\". Verify the headline orderings hold on the 100-processor
/// machine too.
pub fn kth_trends() -> String {
    use sps_workload::traces::KTH;
    let mut out = String::from("KTH (100 procs): the paper's third trace — trend check\n");
    let configs = vec![
        ExperimentConfig::new(KTH, SchedulerKind::Easy),
        ExperimentConfig::new(KTH, SchedulerKind::Ss { sf: 2.0 }),
        ExperimentConfig::new(KTH, SchedulerKind::Tss { sf: 2.0 }),
        ExperimentConfig::new(KTH, SchedulerKind::ImmediateService),
    ];
    let results = run_cached(configs);
    let grids: Vec<(String, [f64; 16])> = results
        .iter()
        .map(|r| (r.config.scheduler.label(), r.report.mean_slowdown_grid()))
        .collect();
    let named: Vec<(&str, [f64; 16])> = grids.iter().map(|(n, g)| (n.as_str(), *g)).collect();
    out.push_str(&render_comparison("average slowdown per category", &named));
    out.push('\n');
    for r in &results {
        out.push_str(&format!(
            "{:<14} overall sd {:>6.2}, util {:>5.1}%, preemptions {}\n",
            r.config.scheduler.label(),
            r.report.overall.mean_slowdown,
            r.utilization_pct(),
            r.sim.preemptions
        ));
    }
    out.push_str("\nSame orderings as CTC/SDSC: SS/TSS crush the short categories, IS\nwins only very-short, NS queues the short-wide jobs hardest.\n");
    out
}

/// Preemption-routine period sensitivity.
pub fn ablation_preemption_period() -> String {
    let cfg = ExperimentConfig::new(CTC, SchedulerKind::Ss { sf: 2.0 });
    let mut out =
        String::from("Ablation: preemption-routine period (paper: 60 s), SS SF=2 on CTC\n");
    out.push_str(&format!(
        "{:<12}{:>14}{:>14}{:>14}\n",
        "period (s)", "overall sd", "VS mean sd", "preemptions"
    ));
    for period in [10, 60, 300, 1_800] {
        let r = cfg.clone().with_tick_period(period).run();
        out.push_str(&format!(
            "{:<12}{:>14.2}{:>14.2}{:>14}\n",
            period,
            r.report.overall.mean_slowdown,
            aggregate_row(&r.report, 0),
            r.sim.preemptions
        ));
    }
    out.push_str("\nCoarser periods delay preemptions, raising short-job slowdowns.\n");
    out
}

/// Robustness: an MTBF sweep over the recovery policies. Not a paper
/// artifact — the paper assumes reliable hardware — but the fault model
/// stresses exactly the mechanism the paper proposes: suspended jobs are
/// pinned to their processors, so a processor death turns a cheap
/// suspension into lost work or a stranded wait.
pub fn ablation_faults() -> String {
    use sps_core::faults::{FaultModel, RecoveryPolicy};
    use sps_metrics::goodput;
    let mut out = String::from(
        "Ablation: processor failures (exponential per-proc MTBF, MTTR 3600 s), SDSC x1.2\n",
    );
    out.push_str(&format!(
        "{:<12}{:<10}{:<10}{:>10}{:>8}{:>14}{:>10}{:>12}{:>11}\n",
        "mtbf (s)",
        "scheme",
        "recovery",
        "failures",
        "kills",
        "lost proc-s",
        "stranded",
        "goodput %",
        "overall sd"
    ));
    for mtbf in [20_000_000, 5_000_000, 2_000_000] {
        for kind in [SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }] {
            for recovery in [RecoveryPolicy::WaitForRepair, RecoveryPolicy::Remap] {
                if kind == SchedulerKind::Easy && recovery != RecoveryPolicy::WaitForRepair {
                    continue; // NS never suspends, so recovery is moot
                }
                let cfg = ExperimentConfig::new(SDSC, kind)
                    .with_jobs(400)
                    .with_seed(7)
                    .with_load_factor(1.2)
                    .with_faults(FaultModel::proc_faults(mtbf, 3_600, 13).with_recovery(recovery));
                let r = &run_cached(vec![cfg])[0];
                let f = r.sim.faults;
                out.push_str(&format!(
                    "{:<12}{:<10}{:<10}{:>10}{:>8}{:>14}{:>10}{:>12.1}{:>11.2}\n",
                    mtbf,
                    r.config.scheduler.to_string(),
                    recovery.name(),
                    f.proc_failures,
                    f.jobs_killed + f.job_crashes,
                    f.lost_work,
                    f.stranded_secs,
                    goodput(&r.sim.outcomes, SDSC.procs, f.downtime) * 100.0,
                    r.report.overall.mean_slowdown,
                ));
            }
        }
    }
    out.push_str(concat!(
        "\nKills restart jobs from scratch, so lost work grows as MTBF shrinks.\n",
        "Only WaitForRepair accumulates stranded time: a suspended job whose\n",
        "reserved processor died sits out the whole repair, while Remap\n",
        "restarts it elsewhere at the cost of counting as a migration.\n",
    ));
    out
}

/// The preemption continuum under failures: in-place suspension (the
/// paper's model) vs checkpoint-restart vs migration on the same failure
/// schedule, for the preemptive schedulers and the IS baseline whose
/// constant preemption multiplies the kill penalty.
pub fn ablation_checkpoint() -> String {
    use sps_core::checkpoint::{CheckpointModel, PreemptionMode};
    use sps_core::faults::{FaultModel, RecoveryPolicy};
    use sps_metrics::goodput;
    let mut out = String::from(
        "Ablation: preemption continuum under failures (MTBF 1M s, MTTR 3600 s, \
         resubmit), SDSC x1.2, 30-min checkpoints\n",
    );
    out.push_str(&format!(
        "{:<12}{:<10}{:>8}{:>14}{:>13}{:>12}{:>12}{:>11}\n",
        "mode",
        "scheme",
        "kills",
        "lost proc-s",
        "ckpt proc-s",
        "migrations",
        "goodput %",
        "overall sd"
    ));
    for mode in PreemptionMode::ALL {
        for kind in [
            SchedulerKind::Ss { sf: 2.0 },
            SchedulerKind::Tss { sf: 2.0 },
            SchedulerKind::ImmediateService,
        ] {
            let cfg = ExperimentConfig::new(SDSC, kind)
                .with_jobs(400)
                .with_seed(7)
                .with_load_factor(1.2)
                .with_faults(
                    FaultModel::proc_faults(1_000_000, 3_600, 13)
                        .with_recovery(RecoveryPolicy::Resubmit),
                )
                .with_preemption(mode)
                .with_checkpoint(CheckpointModel::paper().with_interval(1_800));
            let r = &run_cached(vec![cfg])[0];
            let f = r.sim.faults;
            out.push_str(&format!(
                "{:<12}{:<10}{:>8}{:>14}{:>13}{:>12}{:>12.1}{:>11.2}\n",
                mode.name(),
                r.config.scheduler.to_string(),
                f.jobs_killed + f.job_crashes,
                f.lost_work,
                f.ckpt_overhead,
                f.migrations,
                goodput(&r.sim.outcomes, SDSC.procs, f.downtime) * 100.0,
                r.report.overall.mean_slowdown,
            ));
        }
    }
    out.push_str(concat!(
        "\nCheckpoints bound each kill's loss to under one interval, so lost\n",
        "work collapses and goodput recovers — most dramatically for IS, whose\n",
        "constant preemption under in-place restart multiplies redone work.\n",
        "Migration additionally unpins suspended claims (restart on any free\n",
        "set), trading a restore stall for never waiting on a dead processor.\n",
    ));
    out
}

/// Kernel decide-throughput summary: events/sec and decide counts per
/// scheme on a high-load SDSC trace, from the per-run
/// [`sps_core::sim::KernelStats`]. The full before/after microbench (with
/// decide-latency percentiles) is `cargo bench --bench decide_throughput`;
/// this registry entry gives a quick single-run view.
pub fn kernel_throughput() -> String {
    use sps_core::sim::Simulator;
    let mut out =
        String::from("Kernel throughput (SDSC trace, 1200 jobs, load factor 1.4, single run)\n\n");
    out.push_str(&format!(
        "{:<14}{:>10}{:>10}{:>12}{:>14}\n",
        "scheme", "events", "decides", "wall ms", "events/s"
    ));
    let jobs = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
        .with_jobs(1_200)
        .with_load_factor(1.4)
        .trace();
    for kind in [
        SchedulerKind::Easy,
        SchedulerKind::Conservative,
        SchedulerKind::Ss { sf: 2.0 },
        SchedulerKind::Tss { sf: 2.0 },
        SchedulerKind::ImmediateService,
    ] {
        let res = Simulator::new(jobs.clone(), SDSC.procs, kind.build()).run();
        let k = res.kernel;
        out.push_str(&format!(
            "{:<14}{:>10}{:>10}{:>12.1}{:>14.0}\n",
            kind.label(),
            k.events,
            k.decide_calls,
            k.wall_micros as f64 / 1e3,
            k.events_per_sec().unwrap_or(0.0),
        ));
    }
    out.push_str("\nWall time is per-process and machine-dependent; event and decide\ncounts are deterministic.\n");
    out
}
