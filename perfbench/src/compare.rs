//! Compare mode: two result files side by side.
//!
//! A result file holds one JSON record per line, as `--out FILE` appends
//! them. For each workload, every metric's median and quartiles over the
//! file's runs are printed for both files — with the spread, the distance
//! between the quartiles as a share of the median — and the change of the
//! median; then each input's per-layer self-times (medians over traced runs) with
//! their deltas, so a change can show where its saving sits. Count digests
//! are checked too: runs of one workload and seed must agree exactly.

use std::collections::BTreeMap;

use polyinv_api::Json;

use crate::stats::{median, quartiles};

/// Runs of one file, grouped by workload.
type Grouped = BTreeMap<String, Vec<Json>>;

/// Reads a result file.
///
/// # Errors
///
/// Unreadable files and lines that are not JSON records.
pub fn load(path: &str) -> Result<Grouped, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut grouped = Grouped::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", number + 1))?
            .to_string();
        grouped.entry(workload).or_default().push(record);
    }
    Ok(grouped)
}

/// Prints the comparison of `base` (A) and `change` (B).
pub fn compare(base: &Grouped, change: &Grouped) -> Vec<String> {
    let mut out = Vec::new();
    let workloads: Vec<&String> = {
        let mut names: Vec<&String> = base.keys().chain(change.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    for workload in workloads {
        let a = base.get(workload).map(Vec::as_slice).unwrap_or_default();
        let b = change.get(workload).map(Vec::as_slice).unwrap_or_default();
        out.push(format!(
            "## {workload}: A {} runs, B {} runs",
            a.len(),
            b.len()
        ));
        out.push(format!(
            "{:<36} {:>34} {:>34} {:>9}",
            "metric", "A q1/median/q3 ±spread", "B q1/median/q3 ±spread", "change"
        ));
        // End-to-end metrics come from untraced runs, layers from traced ones.
        for (section, traced) in [("metrics", false), ("layers", true)] {
            let a: Vec<Json> = runs(a, traced);
            let b: Vec<Json> = runs(b, traced);
            for name in metric_names(&a, &b, section) {
                let va = values(&a, section, &name);
                let vb = values(&b, section, &name);
                let cell = |v: &[f64]| {
                    if v.is_empty() {
                        "-".to_string()
                    } else {
                        let q = quartiles(v);
                        let m = median(v);
                        let spread = if m == 0.0 { 0.0 } else { (q[2] - q[0]) / m };
                        format!("{:.4}/{:.4}/{:.4} ±{:.1}%", q[0], m, q[2], spread * 100.0)
                    }
                };
                let change = if va.is_empty() || vb.is_empty() || median(&va) == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:+.1}%", (median(&vb) / median(&va) - 1.0) * 100.0)
                };
                out.push(format!(
                    "{:<36} {:>34} {:>34} {:>9}",
                    name,
                    cell(&va),
                    cell(&vb),
                    change
                ));
            }
        }
        out.extend(digest_check(a, b));
        out.extend(layer_deltas(a, b));
    }
    out
}

fn runs(records: &[Json], traced: bool) -> Vec<Json> {
    records
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(traced))
        .cloned()
        .collect()
}

fn metric_names(a: &[Json], b: &[Json], section: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for record in a.iter().chain(b) {
        for (name, _) in record
            .get(section)
            .and_then(Json::as_object)
            .unwrap_or_default()
        {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

fn values(records: &[Json], section: &str, name: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get(section)?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Runs of one workload and seed must report the same count digest, in
/// either file.
fn digest_check(a: &[Json], b: &[Json]) -> Vec<String> {
    let mut by_seed: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for record in a.iter().chain(b) {
        let seed = record
            .get("seed")
            .map(ToString::to_string)
            .unwrap_or_default();
        let digest = record
            .get("counts_digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        by_seed.entry(seed).or_default().push(digest);
    }
    let differing: Vec<&String> = by_seed
        .iter()
        .filter(|(_, digests)| digests.iter().any(|d| d != &digests[0]))
        .map(|(seed, _)| seed)
        .collect();
    if differing.is_empty() {
        vec![format!(
            "counts identical across runs of each seed ({} seeds)",
            by_seed.len()
        )]
    } else {
        vec![format!(
            "COUNTS DIFFER between runs of seed(s) {}",
            differing
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )]
    }
}

/// Per-input, per-layer medians over traced runs, and their deltas.
fn layer_deltas(a: &[Json], b: &[Json]) -> Vec<String> {
    let collect = |records: &[Json]| {
        let mut table: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for input in records
            .iter()
            .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(true))
            .flat_map(|r| {
                r.get("per_input")
                    .and_then(Json::as_array)
                    .unwrap_or_default()
            })
        {
            let name = input.get("name").and_then(Json::as_str).unwrap_or_default();
            for (layer, value) in input
                .get("layers")
                .and_then(Json::as_object)
                .unwrap_or_default()
            {
                if let Some(seconds) = value.as_f64() {
                    table
                        .entry((name.to_string(), layer.clone()))
                        .or_default()
                        .push(seconds);
                }
            }
        }
        table
    };
    let (ta, tb) = (collect(a), collect(b));
    if ta.is_empty() && tb.is_empty() {
        return Vec::new();
    }
    let mut out = vec![format!(
        "{:<26} {:<28} {:>12} {:>12} {:>12}",
        "input", "layer (self s)", "A median", "B median", "B - A"
    )];
    let mut keys: Vec<&(String, String)> = ta.keys().chain(tb.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let ma = ta.get(key).map(|v| median(v));
        let mb = tb.get(key).map(|v| median(v));
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        let delta = match (ma, mb) {
            (Some(x), Some(y)) => format!("{:+.4}", y - x),
            _ => "-".to_string(),
        };
        out.push(format!(
            "{:<26} {:<28} {:>12} {:>12} {:>12}",
            key.0,
            key.1,
            show(ma),
            show(mb),
            delta
        ));
    }
    out
}
