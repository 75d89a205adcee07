//! Dated performance history for the `BENCH_*.json` report files.
//!
//! The repo-root bench reports (`BENCH_kernel.json`, `BENCH_sweep.json`)
//! used to be overwritten wholesale on every full bench run, which meant
//! the perf trajectory across PRs lived only in git archaeology. This
//! module gives each case a `history` array of dated entries that is
//! *appended to*, never rewritten: a `--guard` run measures, appends
//! `{date, ...metrics}` to the case it measured, and diffs the fresh
//! number against the **best** prior entry (the max over the recorded
//! `after` block and every history entry) rather than just the last one,
//! so two consecutive regressions cannot ratchet the baseline down.
//!
//! Files are read and written with the hand-rolled [`sps_trace::Json`]
//! codec — no external serialization crates — and rendered with a small
//! pretty-printer so the reports stay reviewable in diffs.

use std::fmt::Write as _;
use std::path::Path;

use sps_trace::Json;

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock.
///
/// Uses Howard Hinnant's `civil_from_days` algorithm so the bench
/// binaries need no calendar dependency.
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Load and parse a bench report; `None` if the file is missing or does
/// not parse (the caller decides whether that is fatal).
pub fn load(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    match Json::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("warning: {path} does not parse ({e}); ignoring it");
            None
        }
    }
}

/// Write a report back, pretty-printed, with a trailing newline.
pub fn store(path: &str, doc: &Json) -> std::io::Result<()> {
    std::fs::write(Path::new(path), render_pretty(doc) + "\n")
}

/// The named case object inside `doc.cases`, if present.
pub fn find_case<'a>(doc: &'a Json, case: &str) -> Option<&'a Json> {
    doc.get("cases")?
        .as_arr()?
        .iter()
        .find(|c| c.get("case").and_then(Json::as_str) == Some(case))
}

/// Best recorded value of `metric` for `case`: the max over the case's
/// top-level `<metric>` (where `sweep_throughput` writes its speedup),
/// `after.<metric>` and every `history[].<metric>`. `None` when the case
/// is absent or records the metric nowhere.
pub fn best_metric(doc: &Json, case: &str, metric: &str) -> Option<f64> {
    let case = find_case(doc, case)?;
    let mut best: Option<f64> = None;
    let mut consider = |v: Option<f64>| {
        if let Some(v) = v {
            best = Some(best.map_or(v, |b| b.max(v)));
        }
    };
    consider(case.get(metric).and_then(Json::as_f64));
    consider(
        case.get("after")
            .and_then(|a| a.get(metric))
            .and_then(Json::as_f64),
    );
    if let Some(entries) = case.get("history").and_then(Json::as_arr) {
        for e in entries {
            consider(e.get(metric).and_then(Json::as_f64));
        }
    }
    best
}

/// Append `entry` to the named case's `history` array, creating the
/// array if the case has none yet. Returns `false` if the case itself is
/// missing (nothing is modified).
pub fn append_entry(doc: &mut Json, case: &str, entry: Json) -> bool {
    let Json::Obj(pairs) = doc else { return false };
    let Some(cases) = pairs.iter_mut().find(|(k, _)| k == "cases").map(|(_, v)| v) else {
        return false;
    };
    let Json::Arr(cases) = cases else {
        return false;
    };
    let Some(case) = cases
        .iter_mut()
        .find(|c| c.get("case").and_then(Json::as_str) == Some(case))
    else {
        return false;
    };
    let Json::Obj(fields) = case else {
        return false;
    };
    if !fields.iter().any(|(k, _)| k == "history") {
        fields.push(("history".to_string(), Json::Arr(Vec::new())));
    }
    let Some(Json::Arr(history)) = fields
        .iter_mut()
        .find(|(k, _)| k == "history")
        .map(|(_, v)| v)
    else {
        return false;
    };
    history.push(entry);
    true
}

/// Replace (or insert) the named case wholesale, preserving every other
/// case in the report — including cases written by other benches — and
/// carrying the old case's `history` array over onto the replacement if
/// the replacement does not bring its own.
pub fn upsert_case(doc: &mut Json, case_name: &str, mut case: Json) {
    let Json::Obj(pairs) = doc else { return };
    if !pairs.iter().any(|(k, _)| k == "cases") {
        pairs.push(("cases".to_string(), Json::Arr(Vec::new())));
    }
    let Some(Json::Arr(cases)) = pairs.iter_mut().find(|(k, _)| k == "cases").map(|(_, v)| v)
    else {
        return;
    };
    let slot = cases
        .iter_mut()
        .find(|c| c.get("case").and_then(Json::as_str) == Some(case_name));
    match slot {
        Some(old) => {
            if case.get("history").is_none() {
                if let Some(h) = old.get("history") {
                    if let Json::Obj(fields) = &mut case {
                        fields.push(("history".to_string(), h.clone()));
                    }
                }
            }
            *old = case;
        }
        None => cases.push(case),
    }
}

/// Shorthand for building a `Json::Obj` from literal pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Render with two-space indentation: scalars inline, non-empty objects
/// and arrays one element per line, matching the hand-written style the
/// reports started with so diffs stay line-oriented.
pub fn render_pretty(json: &Json) -> String {
    let mut out = String::new();
    write_pretty(json, 0, &mut out);
    out
}

fn write_pretty(json: &Json, depth: usize, out: &mut String) {
    match json {
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                indent(depth + 1, out);
                let _ = write!(out, "{}: ", Json::Str(k.clone()).render());
                write_pretty(v, depth + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(depth, out);
            out.push('}');
        }
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(depth, out);
            out.push(']');
        }
        other => out.push_str(&other.render()),
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Json {
        Json::parse(
            r#"{
              "benchmark": "x",
              "cases": [
                {"case": "a", "after": {"events_per_sec": 100.0},
                 "history": [{"date": "2026-08-01", "events_per_sec": 140.0},
                             {"date": "2026-08-05", "events_per_sec": 120.0}]},
                {"case": "b", "after": {"events_per_sec": 50.0}}
              ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn best_metric_takes_the_max_over_after_and_history() {
        let doc = report();
        // "a" peaked at 140 in history; the guard must diff against that,
        // not the last entry (120) or the after block (100).
        assert_eq!(best_metric(&doc, "a", "events_per_sec"), Some(140.0));
        assert_eq!(best_metric(&doc, "b", "events_per_sec"), Some(50.0));
        assert_eq!(best_metric(&doc, "c", "events_per_sec"), None);
        assert_eq!(best_metric(&doc, "a", "nope"), None);
    }

    #[test]
    fn best_metric_reads_a_top_level_metric() {
        // The shape of BENCH_sweep.json's `sdsc_paper_grid`: the speedup
        // sits beside `before`/`after`, and there is no history yet.
        let doc = Json::parse(
            r#"{"cases": [
              {"case": "sdsc_paper_grid",
               "before": {"wall_ms": 900.0}, "after": {"wall_ms": 276.0},
               "speedup": 3.26, "identical_cells": true}
            ]}"#,
        )
        .unwrap();
        assert_eq!(best_metric(&doc, "sdsc_paper_grid", "speedup"), Some(3.26));
        let mut doc = doc;
        append_entry(
            &mut doc,
            "sdsc_paper_grid",
            obj(vec![("speedup", Json::Num(2.16))]),
        );
        assert_eq!(best_metric(&doc, "sdsc_paper_grid", "speedup"), Some(3.26));
    }

    #[test]
    fn append_entry_extends_and_creates_history() {
        let mut doc = report();
        let e = obj(vec![
            ("date", Json::Str("2026-08-08".into())),
            ("events_per_sec", Json::Num(130.0)),
        ]);
        assert!(append_entry(&mut doc, "a", e.clone()));
        assert!(append_entry(&mut doc, "b", e.clone()));
        assert!(!append_entry(&mut doc, "missing", e));
        let a = find_case(&doc, "a").unwrap();
        assert_eq!(a.get("history").unwrap().as_arr().unwrap().len(), 3);
        let b = find_case(&doc, "b").unwrap();
        assert_eq!(b.get("history").unwrap().as_arr().unwrap().len(), 1);
        // Appending a slower entry never lowers the guard baseline.
        assert_eq!(best_metric(&doc, "a", "events_per_sec"), Some(140.0));
    }

    #[test]
    fn upsert_preserves_other_cases_and_carries_history() {
        let mut doc = report();
        let fresh = obj(vec![
            ("case", Json::Str("a".into())),
            ("after", obj(vec![("events_per_sec", Json::Num(150.0))])),
        ]);
        upsert_case(&mut doc, "a", fresh);
        let a = find_case(&doc, "a").unwrap();
        assert_eq!(
            a.get("after").unwrap().get("events_per_sec"),
            Some(&Json::Num(150.0))
        );
        // The old history rode along onto the replacement.
        assert_eq!(a.get("history").unwrap().as_arr().unwrap().len(), 2);
        assert!(find_case(&doc, "b").is_some(), "other cases survive");

        let new_case = obj(vec![("case", Json::Str("c".into()))]);
        upsert_case(&mut doc, "c", new_case);
        assert!(find_case(&doc, "c").is_some(), "unknown cases are appended");
    }

    #[test]
    fn pretty_rendering_reparses_identically() {
        let mut doc = report();
        append_entry(&mut doc, "a", obj(vec![("date", Json::Str(today()))]));
        let text = render_pretty(&doc);
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Line-oriented: every case object opens on its own line.
        assert!(text.lines().count() > 10, "pretty output is multi-line");
    }

    #[test]
    fn today_is_a_plausible_iso_date() {
        let d = today();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        let year: i32 = d[..4].parse().unwrap();
        assert!((2024..2100).contains(&year), "year {year} in sane range");
    }
}
