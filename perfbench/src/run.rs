//! One benchmark run: set-up, closed-loop passes, oracle, metrics.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

use polyinv_api::Json;

use crate::oracle::Oracle;
use crate::stats::{self, median, percentile};
use crate::workload::{self, check_claim, Prepared, Raw, Served, Verdict};

/// Valid traces the oracle requests (`validation_for_tables()` and the
/// fuzz loop's default both ask for 1000).
const ORACLE_RUNS: usize = 1000;

/// The settings of one run.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One input, one pass.
    pub smoke: bool,
}

/// One served request as recorded.
struct Record {
    input: usize,
    wall: f64,
    served: Served,
}

/// One pass over every input.
struct Pass {
    traced: bool,
    /// The first pass: checked, not measured.
    warmup: bool,
    /// Request walls summed (the deferred table oracle is not timed).
    wall: f64,
    cpu: f64,
    records: Vec<Record>,
}

/// A metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Metrics as the `{"name": {"value": v, "unit": u}, ...}` object of the
/// result line and the record.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::object(vec![
                        ("value", Json::Number(m.value)),
                        ("unit", Json::string(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Everything one run produced.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The metrics the last line carries (end-to-end untraced, per-layer
    /// traced).
    pub metrics: Vec<Metric>,
    /// Full record for `--out` and compare mode.
    pub detail: Json,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Runs one workload for `config.seconds`.
///
/// # Errors
///
/// Unknown workloads and inputs that fail to set up.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    // A fresh set-up before the warm-up pass and before every measured
    // pass: the samples spread over the whole run, so `setup_s` (their
    // median) does not hang on the machine's speed at one instant.
    let mut setup_times = Vec::new();
    let mut set_up = || -> Result<Prepared, String> {
        let start = Instant::now();
        let mut inputs = workload::inputs(&config.workload)?;
        if config.smoke {
            inputs.truncate(1);
        }
        let prepared = workload::prepare(inputs, config.seed)?;
        setup_times.push(start.elapsed().as_secs_f64());
        Ok(prepared)
    };

    // The closed loop: one request at a time, the next after the verdict.
    // The first pass warms the heap and runs the oracle; it is checked but
    // not measured (a smoke run has only this pass). A traced run then
    // alternates untraced and traced passes so the tracing overhead is
    // measured under the same conditions.
    let started = Instant::now();
    let mut oracles: BTreeMap<usize, Oracle> = BTreeMap::new();
    let mut prepared = set_up()?;
    let mut passes = vec![run_pass(&prepared, false, true, &mut oracles)];
    let mut more = !config.smoke;
    while more {
        prepared = set_up()?;
        let traced = config.trace && passes.len() % 2 == 0;
        passes.push(run_pass(&prepared, traced, false, &mut oracles));
        let walls: Vec<f64> = passes[1..].iter().map(|p| p.wall).collect();
        let kinds_done = !config.trace || walls.len() >= 2;
        more = !kinds_done || started.elapsed().as_secs_f64() + median(&walls) <= config.seconds;
    }

    // Arith's symbolic analysis happens inside the LM lane with no timing
    // returned; the traced run measures it apart, once per input.
    let mut symbolic: BTreeMap<usize, f64> = BTreeMap::new();
    if config.trace {
        for pass in passes.iter().filter(|p| p.traced) {
            for record in &pass.records {
                if let Some(raw) = record.served.raw.as_ref().filter(|r| r.lm_reported) {
                    if let Entry::Vacant(slot) = symbolic.entry(record.input) {
                        slot.insert(prepared.symbolic_probe(record.input, raw.rung)?);
                    }
                }
            }
        }
    }

    Ok(summarize(
        config,
        &prepared,
        &setup_times,
        &passes,
        &oracles,
        &symbolic,
    ))
}

fn run_pass(
    prepared: &Prepared,
    traced: bool,
    warmup: bool,
    oracles: &mut BTreeMap<usize, Oracle>,
) -> Pass {
    let mut pass = Pass {
        traced,
        warmup,
        wall: 0.0,
        cpu: 0.0,
        records: Vec::new(),
    };
    for input in 0..prepared.inputs.len() {
        let first = !oracles.contains_key(&input);
        let cpu_start = stats::process_cpu_seconds();
        let start = Instant::now();
        let mut served = prepared.serve(input, traced, first);
        let wall = start.elapsed().as_secs_f64();
        pass.cpu += stats::process_cpu_seconds() - cpu_start;
        pass.wall += wall;
        // Outside the timed region: the oracle checks a table input's
        // synthesized invariant the first time it is served. Later passes
        // must reproduce the same fingerprint, so the same finding holds.
        if let Some(claim) = served.claim.take() {
            served.oracle = Some(check_claim(&claim));
        }
        if first {
            oracles.insert(input, served.oracle.clone().unwrap_or_default());
        }
        pass.records.push(Record {
            input,
            wall,
            served,
        });
    }
    pass
}

/// Self-times of one traced request, by layer. Their sum plus the
/// request's unattributed rest equals its wall-clock.
fn layer_times(record: &Record, symbolic_s: f64) -> Vec<(&'static str, f64)> {
    let Some(raw) = &record.served.raw else {
        return Vec::new();
    };
    let Raw {
        via_engine,
        parse_miss_s,
        lang_s,
        fuzz_generate_s,
        trace_s,
        orchestrate_s,
        generate_s,
        presolve_s,
        lm_s,
        penalty_wait_s,
        polish_s,
        certificate_s,
        factor_s,
        trisolve_s,
        eval_s,
        lm_reported,
        ..
    } = raw.clone();
    // `SolverStats` seconds add up over restarts, which may run on parallel
    // threads, and the symbolic probe times a separate build: when together
    // they exceed the LM lane's wall-clock, they share it in proportion.
    let (symbolic_s, factor_s, trisolve_s, eval_s) = if lm_reported {
        let busy = symbolic_s + factor_s + trisolve_s + eval_s;
        let scale = if busy > lm_s && busy > 0.0 {
            lm_s / busy
        } else {
            1.0
        };
        (
            symbolic_s * scale,
            factor_s * scale,
            trisolve_s * scale,
            eval_s * scale,
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    let engine_s = if via_engine {
        record.wall - orchestrate_s - parse_miss_s
    } else {
        0.0
    };
    vec![
        ("api.engine_s", engine_s),
        ("lang.parse_s", parse_miss_s + lang_s),
        ("validate.generate_s", fuzz_generate_s),
        ("constraints.generate_s", generate_s),
        ("constraints.presolve_s", presolve_s),
        ("constraints.certificate_s", certificate_s),
        ("arith.symbolic_s", symbolic_s),
        ("arith.factor_s", factor_s),
        ("arith.trisolve_s", trisolve_s),
        ("qcqp.eval_s", eval_s),
        (
            "qcqp.lm_s",
            lm_s - symbolic_s - factor_s - trisolve_s - eval_s,
        ),
        ("qcqp.penalty_wait_s", penalty_wait_s),
        ("core.polish_s", polish_s),
        (
            "core.orchestrate_s",
            orchestrate_s
                - generate_s
                - presolve_s
                - certificate_s
                - lm_s
                - penalty_wait_s
                - polish_s,
        ),
        ("validate.trace_s", trace_s),
    ]
}

/// Per-layer metrics of one traced pass: self-times, the unattributed
/// rest, and the counts.
fn pass_layers(pass: &Pass, symbolic: &BTreeMap<usize, f64>) -> Vec<Metric> {
    let mut times: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut penalty_busy = 0.0;
    for record in &pass.records {
        let probe = symbolic.get(&record.input).copied().unwrap_or(0.0);
        for (name, seconds) in layer_times(record, probe) {
            *times.entry(name).or_default() += seconds;
        }
        penalty_busy += record.served.raw.as_ref().map_or(0.0, |r| r.penalty_s);
    }
    let attributed: f64 = times.values().sum();
    let sum = |field: fn(&workload::Counts) -> usize| -> f64 {
        pass.records
            .iter()
            .map(|r| field(&r.served.counts))
            .sum::<usize>() as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let gains: Vec<f64> = pass
        .records
        .iter()
        .flat_map(|r| r.served.counts.polish_gains.iter().copied())
        .collect();
    let time = |name: &'static str| times.get(name).copied().unwrap_or(0.0);
    vec![
        metric("api.engine_s", time("api.engine_s"), "s"),
        metric("api.parse_cache_hits", sum(|c| c.cache_hits), "count"),
        metric("lang.parse_s", time("lang.parse_s"), "s"),
        metric(
            "constraints.generate_s",
            time("constraints.generate_s"),
            "s",
        ),
        metric("constraints.rows", sum(|c| c.rows), "count"),
        metric("constraints.unknowns", sum(|c| c.unknowns), "count"),
        metric(
            "constraints.presolve_s",
            time("constraints.presolve_s"),
            "s",
        ),
        metric(
            "constraints.presolve_keep_ratio",
            ratio(sum(|c| c.presolve_after), sum(|c| c.presolve_before)),
            "ratio",
        ),
        metric(
            "constraints.certificate_s",
            time("constraints.certificate_s"),
            "s",
        ),
        metric(
            "constraints.certificate_pass_ratio",
            ratio(
                sum(|c| c.certificate_passes),
                sum(|c| c.certificate_attempts),
            ),
            "ratio",
        ),
        metric("arith.symbolic_s", time("arith.symbolic_s"), "s"),
        metric("arith.factor_s", time("arith.factor_s"), "s"),
        metric("arith.trisolve_s", time("arith.trisolve_s"), "s"),
        metric("arith.nnz_factor", sum(|c| c.nnz_factor), "count"),
        metric("qcqp.lm_s", time("qcqp.lm_s"), "s"),
        metric("qcqp.lm_iterations", sum(|c| c.lm_iterations), "count"),
        metric("qcqp.eval_s", time("qcqp.eval_s"), "s"),
        metric(
            "qcqp.factorizations_per_iteration",
            ratio(sum(|c| c.factorizations), sum(|c| c.lm_iterations)),
            "ratio",
        ),
        metric("qcqp.penalty_s", penalty_busy, "s"),
        metric("qcqp.penalty_wait_s", time("qcqp.penalty_wait_s"), "s"),
        metric("qcqp.penalty_wins", sum(|c| c.penalty_wins), "count"),
        metric("core.orchestrate_s", time("core.orchestrate_s"), "s"),
        metric("core.polish_s", time("core.polish_s"), "s"),
        metric(
            "core.polish_gain",
            if gains.is_empty() {
                0.0
            } else {
                median(&gains)
            },
            "ratio",
        ),
        metric("core.rungs_tried", sum(|c| c.rungs_tried), "count"),
        metric("validate.trace_s", time("validate.trace_s"), "s"),
        metric("validate.trace_states", sum(|c| c.trace_states), "count"),
        metric("validate.generate_s", time("validate.generate_s"), "s"),
        metric("unattributed_s", pass.wall - attributed, "s"),
    ]
}

fn summarize(
    config: &RunConfig,
    prepared: &Prepared,
    setup_times: &[f64],
    passes: &[Pass],
    oracles: &BTreeMap<usize, Oracle>,
    symbolic: &BTreeMap<usize, f64>,
) -> RunResult {
    let measured: Vec<&Pass> = match passes.iter().filter(|p| !p.warmup).collect::<Vec<_>>() {
        none if none.is_empty() => passes.iter().collect(),
        measured => measured,
    };
    let untraced: Vec<&Pass> = measured.iter().copied().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = measured.iter().copied().filter(|p| p.traced).collect();
    let walls: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.records.iter().map(|r| r.wall))
        .collect();
    let suite: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    let cpu: Vec<f64> = untraced.iter().map(|p| p.cpu).collect();
    let suite_s = median(&suite);

    // Verdicts and the oracle. A synthesized verdict the oracle refutes is
    // a failed operation, like an error or a panic.
    let mut attempted = 0;
    let mut failed = 0;
    let mut drift = Vec::new();
    let mut first_fingerprint: BTreeMap<usize, u64> = BTreeMap::new();
    for record in passes.iter().flat_map(|p| &p.records) {
        attempted += 1;
        let refuted = oracles[&record.input].refuted();
        let verdict = record.served.verdict;
        if verdict == Verdict::Error || (verdict == Verdict::Synthesized && refuted) {
            failed += 1;
        }
        let expected = first_fingerprint
            .entry(record.input)
            .or_insert(record.served.fingerprint);
        if *expected != record.served.fingerprint {
            drift.push(prepared.inputs[record.input].name.clone());
        }
    }
    drift.sort();
    drift.dedup();

    let first_pass = &passes[0];
    let mut per_input = Vec::new();
    let mut proved = 0;
    let mut refuted_names = Vec::new();
    let mut digest_lines = Vec::new();
    let mut input_verdict_s = Vec::new();
    for record in &first_pass.records {
        let name = &prepared.inputs[record.input].name;
        let oracle = &oracles[&record.input];
        let verdict = record.served.verdict;
        let survived = verdict == Verdict::Synthesized && oracle.survived(ORACLE_RUNS);
        proved += usize::from(survived);
        if verdict == Verdict::Synthesized && oracle.refuted() {
            refuted_names.push(name.clone());
        }
        let walls: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.records.iter().filter(|r| r.input == record.input))
            .map(|r| r.wall)
            .collect();
        input_verdict_s.push(median(&walls));
        let layers = traced_layers_for(&traced, record.input, symbolic);
        let counts = &record.served.counts;
        digest_lines.push(format!("{name}:{:x};", record.served.fingerprint));
        per_input.push(Json::object(vec![
            ("name", Json::string(name.clone())),
            ("verdict", Json::string(verdict.label())),
            (
                "oracle",
                Json::string(if verdict == Verdict::Synthesized {
                    oracle.label(ORACLE_RUNS)
                } else {
                    "not-claimed"
                }),
            ),
            (
                "first_violation",
                oracle
                    .first_violation
                    .clone()
                    .map_or(Json::Null, Json::string),
            ),
            ("trace_runs", Json::Number(oracle.trace_runs as f64)),
            ("rows", Json::Number(counts.rows as f64)),
            ("unknowns", Json::Number(counts.unknowns as f64)),
            ("attempts", Json::Number(counts.attempts as f64)),
            ("lm_iterations", Json::Number(counts.lm_iterations as f64)),
            ("factorizations", Json::Number(counts.factorizations as f64)),
            ("nnz_factor", Json::Number(counts.nnz_factor as f64)),
            ("rungs_tried", Json::Number(counts.rungs_tried as f64)),
            (
                "fingerprint",
                Json::string(format!("{:016x}", record.served.fingerprint)),
            ),
            ("verdict_s", Json::Number(median(&walls))),
            (
                "error",
                record.served.error.clone().map_or(Json::Null, Json::string),
            ),
            (
                "layers",
                Json::Object(
                    layers
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Number(v)))
                        .collect(),
                ),
            ),
        ]));
    }
    let inputs = first_pass.records.len();
    // Sorted by input name, so the digest does not depend on serving order.
    digest_lines.sort();
    let counts_digest = format!("{:016x}", stats::fnv1a(&digest_lines.concat()));

    let end_to_end = vec![
        metric("setup_s", median(setup_times), "s"),
        metric("suite_s", suite_s, "s"),
        // The median over inputs of each input's median time. Pooling the
        // samples instead puts the median in the gap between two inputs'
        // times whenever the input count is even, where noise moves it.
        metric("verdict_s.p50", median(&input_verdict_s), "s"),
        metric("cpu_s", median(&cpu), "s"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];

    // The highest percentile with at least ten samples beyond it.
    let p90 = (walls.len() >= 100).then(|| percentile(&walls, 0.9));
    let failed_share = failed as f64 / attempted.max(1) as f64;

    let mut layer_metrics = Vec::new();
    if !traced.is_empty() {
        // The traced pass with the median wall-clock: its layer self-times
        // and unattributed rest add up to its suite time exactly.
        let mut order: Vec<&&Pass> = traced.iter().collect();
        order.sort_by(|a, b| a.wall.total_cmp(&b.wall));
        let pass = order[(order.len() - 1) / 2];
        layer_metrics = pass_layers(pass, symbolic);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
        layer_metrics.push(metric("trace.suite_s", pass.wall, "s"));
        layer_metrics.push(metric(
            "trace.overhead_s",
            median(&traced_walls) - suite_s,
            "s",
        ));
    }

    let correct = failed == 0 && drift.is_empty();

    let mut lines = vec![format!(
        "workload {} seed {} trace {}: {} inputs, {} passes measured ({} untraced, {} traced) after a warm-up pass, {} requests",
        config.workload,
        config.seed,
        u8::from(config.trace),
        inputs,
        measured.len(),
        untraced.len(),
        traced.len(),
        attempted
    )];
    for metric in end_to_end.iter().chain(&layer_metrics) {
        lines.push(format!(
            "  {:<36} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    lines.push(format!("  {:<36} {:>16} count", "proved", proved));
    lines.push(format!(
        "  {:<36} {:>16.6} ratio ({failed} of {attempted})",
        "failed_share", failed_share
    ));
    match p90 {
        Some(p90) => lines.push(format!(
            "  {:<36} {:>16.6} s ({} samples)",
            "verdict_s.p90",
            p90,
            walls.len()
        )),
        None => lines.push(format!(
            "  verdict_s.p90 not reported: {} samples, fewer than 100",
            walls.len()
        )),
    }
    lines.push(format!("  counts digest {counts_digest}"));
    if !refuted_names.is_empty() {
        lines.push(format!("  oracle refuted: {}", refuted_names.join(", ")));
    }
    if !drift.is_empty() {
        lines.push(format!(
            "  INVALID: counts drifted across passes on {} (a wall-clock cap fired)",
            drift.join(", ")
        ));
    }

    let detail = Json::object(vec![
        ("schema", Json::string("polyinv-perfbench/v1")),
        ("workload", Json::string(config.workload.clone())),
        ("seed", Json::Number(config.seed as f64)),
        ("seconds", Json::Number(config.seconds)),
        ("trace", Json::Bool(config.trace)),
        ("environment", stats::environment()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(attempted as f64)),
        ("failed", Json::Number(failed as f64)),
        ("failed_share", Json::Number(failed_share)),
        ("proved", Json::Number(proved as f64)),
        ("inputs", Json::Number(inputs as f64)),
        (
            "setup_runs",
            Json::Array(setup_times.iter().map(|&s| Json::Number(s)).collect()),
        ),
        ("passes", Json::Number(passes.len() as f64)),
        (
            "pass_walls",
            Json::Array(
                passes
                    .iter()
                    .map(|p| {
                        Json::object(vec![
                            ("warmup", Json::Bool(p.warmup)),
                            ("traced", Json::Bool(p.traced)),
                            ("wall", Json::Number(p.wall)),
                            ("cpu", Json::Number(p.cpu)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("verdict_samples", Json::Number(walls.len() as f64)),
        ("verdict_s.p90", p90.map_or(Json::Null, Json::Number)),
        ("counts_digest", Json::string(counts_digest)),
        (
            "refuted",
            Json::Array(refuted_names.into_iter().map(Json::string).collect()),
        ),
        (
            "drift",
            Json::Array(drift.into_iter().map(Json::string).collect()),
        ),
        ("metrics", metrics_json(&end_to_end)),
        ("layers", metrics_json(&layer_metrics)),
        ("per_input", Json::Array(per_input)),
    ]);

    RunResult {
        correct,
        attempted,
        failed,
        metrics: if config.trace {
            layer_metrics
        } else {
            end_to_end
        },
        detail,
        lines,
    }
}

/// Median per-layer self-times of one input over the traced passes.
fn traced_layers_for(
    traced: &[&Pass],
    input: usize,
    symbolic: &BTreeMap<usize, f64>,
) -> Vec<(&'static str, f64)> {
    let probe = symbolic.get(&input).copied().unwrap_or(0.0);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for record in traced
        .iter()
        .flat_map(|p| p.records.iter().filter(|r| r.input == input))
    {
        for (name, seconds) in layer_times(record, probe) {
            samples.entry(name).or_default().push(seconds);
        }
    }
    samples
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}
