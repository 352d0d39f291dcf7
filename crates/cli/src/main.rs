//! `polyinv` — the command-line front end over the Engine API.
//!
//! ```text
//! polyinv parse <file> [--json]
//! polyinv synth <file> [assertion options] [reduction options] [--json]
//! polyinv check <file> --invariant <text> ... [--upsilon N] [--json]
//! polyinv validate <file> [assertion options] [--trace-runs N] [--json]
//! polyinv fuzz [--seed N] [--count N] [--artifacts DIR] [--json]
//! polyinv batch <requests.json> [--json]
//! polyinv serve [--addr HOST:PORT] [--workers N] [--queue-depth N] ...
//! ```
//!
//! Every subcommand supports `--json` (machine-readable reports on stdout)
//! and exits with a meaningful code:
//!
//! * `0` — success (parsed / synthesized / certified / all batch items ok);
//! * `1` — the operation ran but the outcome is negative (solver did not
//!   converge, a pair was not certified, a batch item failed);
//! * `2` — usage error (unknown subcommand or flag, missing argument);
//! * `3` — invalid input (unparseable program or assertion, unknown
//!   back-end or label, bad batch file).

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use polyinv_api::{
    ApiError, AssertionSpec, Engine, Json, Mode, ReportStatus, SynthesisReport, SynthesisRequest,
};

const USAGE: &str = "\
polyinv — polynomial invariant generation for non-deterministic recursive programs

USAGE:
    polyinv <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    parse <file>              Parse and resolve a program, print its shape
    synth <file>              Synthesize an inductive invariant (weak mode)
    check <file>              Certify a given candidate invariant
    validate <file>           Weak synthesis + trace falsification + exact re-check
    fuzz                      Generate seeded programs and attack the soundness claim
    batch <requests.json>     Run a JSON array of requests in parallel
    serve                     Serve the Engine over HTTP (see SERVE OPTIONS)

ASSERTION OPTIONS (synth: targets; check: candidate conjuncts):
    --target <text>           Assertion at the exit label (synonym: --invariant)
    --target-at <idx> <text>  Assertion at label index <idx> of the main function
    --post <func> <text>      Post-condition conjunct for <func> (check, recursive)

REDUCTION OPTIONS (check reads only --upsilon):
    --degree <n>              Template degree d          (default 2)
    --size <n>                Conjuncts per label n      (default 1)
    --upsilon <n>             Multiplier degree bound ϒ  (default 2)
    --backend <name>          lm | penalty | alm         (default: lm and penalty race)
    --no-presolve             Skip the affine presolve pass before Step 4
    --strong                  Enumerate a representative set instead (synth)
    --attempts <n>            Multi-start attempts for --strong
    --generate-only           Steps 1-3 only: report |S|, unknowns, timings
    --solve-budget <secs>     Wall-clock budget for the whole solve (0 = none)

SERVE OPTIONS:
    --addr <host:port>        Bind address                     (default 127.0.0.1:8924)
    --workers <n>             Worker threads, 0 = per core     (default 0)
    --queue-depth <n>         Pending-request cap before 429   (default 64)
    --cache-capacity <n>      Result-cache entries             (default 256)
    --max-body-bytes <n>      Request body cap                 (default 1048576)
    --read-timeout-secs <n>   Socket read timeout              (default 10)
    --write-timeout-secs <n>  Socket write timeout             (default 10)

VALIDATION OPTIONS (validate, fuzz):
    --seed <n>                Base seed (fuzz: programs; both: traces)  (default 0)
    --count <n>               Fuzzed program count (fuzz)               (default 100)
    --trace-runs <n>          Valid traces per invariant                (default 1000)
    --artifacts <dir>         Write failing fuzz cases as JSON into <dir>

OUTPUT:
    --json                    Machine-readable JSON on stdout
    --canonical               JSON with timings/thread counts normalized out —
                              byte-identical across machines and POLYINV_THREADS

EXIT CODES:
    0 success · 1 negative outcome · 2 usage error · 3 invalid input
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Api(error)) => {
            eprintln!("error: {error}");
            ExitCode::from(3)
        }
    }
}

enum CliError {
    Usage(String),
    Api(ApiError),
}

impl From<ApiError> for CliError {
    fn from(error: ApiError) -> Self {
        CliError::Api(error)
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(subcommand) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    match subcommand.as_str() {
        "parse" => cmd_parse(&args[1..]),
        "synth" => cmd_synth(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "--help" | "-h" | "help" => {
            print_stdout(USAGE.trim_end())?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage(format!("unknown subcommand `{other}`"))),
    }
}

/// The flags shared by `synth` and `check`.
struct CommonArgs {
    file: Option<String>,
    json: bool,
    canonical: bool,
    solve_budget: Option<f64>,
    assertions: Vec<AssertionSpec>,
    degree: Option<u32>,
    size: Option<usize>,
    upsilon: Option<u32>,
    backend: Option<String>,
    strong: bool,
    attempts: Option<usize>,
    generate_only: bool,
    no_presolve: bool,
    seed: Option<u64>,
    count: Option<usize>,
    trace_runs: Option<usize>,
    artifacts: Option<String>,
}

fn parse_common(args: &[String]) -> Result<CommonArgs, CliError> {
    let mut parsed = CommonArgs {
        file: None,
        json: false,
        canonical: false,
        solve_budget: None,
        assertions: Vec::new(),
        degree: None,
        size: None,
        upsilon: None,
        backend: None,
        strong: false,
        attempts: None,
        generate_only: false,
        no_presolve: false,
        seed: None,
        count: None,
        trace_runs: None,
        artifacts: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, CliError> {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--canonical" => parsed.canonical = true,
            "--solve-budget" => parsed.solve_budget = Some(parse_number(arg, &value(arg)?)?),
            "--strong" => parsed.strong = true,
            "--generate-only" => parsed.generate_only = true,
            "--no-presolve" => parsed.no_presolve = true,
            "--target" | "--invariant" => {
                let text = value(arg)?;
                parsed.assertions.push(AssertionSpec::at_exit(text));
            }
            "--target-at" | "--invariant-at" => {
                let index = parse_number::<usize>(arg, &value(arg)?)?;
                let text = value(arg)?;
                parsed.assertions.push(AssertionSpec::at(index, text));
            }
            "--post" => {
                let function = value(arg)?;
                let text = value(arg)?;
                parsed
                    .assertions
                    .push(AssertionSpec::postcondition(function, text));
            }
            "--degree" => parsed.degree = Some(parse_number(arg, &value(arg)?)?),
            "--size" => parsed.size = Some(parse_number(arg, &value(arg)?)?),
            "--upsilon" => parsed.upsilon = Some(parse_number(arg, &value(arg)?)?),
            "--backend" => parsed.backend = Some(value(arg)?),
            "--attempts" => parsed.attempts = Some(parse_number(arg, &value(arg)?)?),
            "--seed" => parsed.seed = Some(parse_number(arg, &value(arg)?)?),
            "--count" => parsed.count = Some(parse_number(arg, &value(arg)?)?),
            "--trace-runs" => parsed.trace_runs = Some(parse_number(arg, &value(arg)?)?),
            "--artifacts" => parsed.artifacts = Some(value(arg)?),
            other if other.starts_with("--") => {
                return Err(usage(format!("unknown flag `{other}`")));
            }
            _ => {
                if parsed.file.replace(arg.clone()).is_some() {
                    return Err(usage("more than one input file"));
                }
            }
        }
    }
    Ok(parsed)
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| usage(format!("{flag}: `{text}` is not a valid number")))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|error| {
        CliError::Api(ApiError::Io {
            path: path.to_string(),
            message: error.to_string(),
        })
    })
}

fn build_request(parsed: &CommonArgs, mode: Mode, source: String) -> SynthesisRequest {
    let mut request = SynthesisRequest::new(mode, source);
    request.assertions = parsed.assertions.clone();
    request.backend = parsed.backend.clone();
    request.attempts = parsed.attempts;
    if let Some(budget) = parsed.solve_budget {
        request = request.with_solve_budget(budget);
    }
    if let Some(degree) = parsed.degree {
        request.options.degree = degree;
    }
    if let Some(size) = parsed.size {
        request.options.size = size;
    }
    if let Some(upsilon) = parsed.upsilon {
        request.options.upsilon = upsilon;
    }
    if parsed.no_presolve {
        request.options.presolve = false;
    }
    request
}

fn cmd_parse(args: &[String]) -> Result<ExitCode, CliError> {
    let parsed = parse_common(args)?;
    let path = parsed.file.ok_or_else(|| usage("parse needs a file"))?;
    let source = read_file(&path)?;
    let engine = Engine::new();
    let program = engine.parse_program(&source)?;
    if parsed.json {
        let functions: Vec<Json> = program
            .functions()
            .iter()
            .map(|function| {
                Json::object(vec![
                    ("name", Json::string(function.name())),
                    ("labels", Json::Number(function.labels().len() as f64)),
                    ("vars", Json::Number(function.vars().len() as f64)),
                ])
            })
            .collect();
        let doc = Json::object(vec![
            ("file", Json::string(path)),
            ("functions", Json::Array(functions)),
            ("recursive", Json::Bool(!program.is_simple())),
        ]);
        print_stdout(&doc.pretty())?;
    } else {
        let mut out = vec![format!(
            "parsed `{path}`: {} function(s), {}",
            program.functions().len(),
            if program.is_simple() {
                "non-recursive"
            } else {
                "recursive"
            }
        )];
        for function in program.functions() {
            out.push(format!(
                "  {}: {} labels, |V| = {}",
                function.name(),
                function.labels().len(),
                function.vars().len()
            ));
        }
        print_stdout(&out.join("\n"))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_synth(args: &[String]) -> Result<ExitCode, CliError> {
    let parsed = parse_common(args)?;
    let path = parsed
        .file
        .clone()
        .ok_or_else(|| usage("synth needs a file"))?;
    let source = read_file(&path)?;
    let mode = if parsed.generate_only {
        Mode::GenerateOnly
    } else if parsed.strong {
        Mode::Strong
    } else {
        Mode::Weak
    };
    let request = build_request(&parsed, mode, source).with_id(path);
    let engine = Engine::new();
    let report = engine.run(&request)?;
    emit_report(&report, parsed.json, parsed.canonical)?;
    Ok(exit_for(&report))
}

fn cmd_check(args: &[String]) -> Result<ExitCode, CliError> {
    let parsed = parse_common(args)?;
    let path = parsed
        .file
        .clone()
        .ok_or_else(|| usage("check needs a file"))?;
    let source = read_file(&path)?;
    let request = build_request(&parsed, Mode::Check, source).with_id(path);
    let engine = Engine::new();
    let report = engine.run(&request)?;
    emit_report(&report, parsed.json, parsed.canonical)?;
    Ok(exit_for(&report))
}

/// The validation settings shared by `validate` and `fuzz`.
fn validation_config(parsed: &CommonArgs) -> polyinv_validate::ValidationConfig {
    let mut config = polyinv_validate::ValidationConfig::default();
    if let Some(runs) = parsed.trace_runs {
        config.trace.runs = runs;
    }
    if let Some(seed) = parsed.seed {
        config.trace.seed = seed;
    }
    config
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, CliError> {
    let parsed = parse_common(args)?;
    let path = parsed
        .file
        .clone()
        .ok_or_else(|| usage("validate needs a file"))?;
    let source = read_file(&path)?;
    let request = build_request(&parsed, Mode::Weak, source).with_id(path);
    let config = validation_config(&parsed);
    let report = polyinv_validate::run_validated(&Engine::new(), &request, &config)?;
    emit_report(&report, parsed.json, parsed.canonical)?;
    let validated = report
        .validate
        .as_ref()
        .map(|record| record.passed)
        .unwrap_or(false);
    Ok(if report.status.is_success() && validated {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, CliError> {
    let parsed = parse_common(args)?;
    if parsed.file.is_some() {
        return Err(usage("fuzz takes no input file (programs are generated)"));
    }
    let mut config = polyinv_validate::FuzzConfig {
        validation: validation_config(&parsed),
        ..polyinv_validate::FuzzConfig::default()
    };
    if let Some(seed) = parsed.seed {
        config.seed = seed;
    }
    if let Some(count) = parsed.count {
        config.count = count;
    }
    if let Some(degree) = parsed.degree {
        config.options.degree = degree;
    }
    if let Some(size) = parsed.size {
        config.options.size = size;
    }
    if let Some(upsilon) = parsed.upsilon {
        config.options.upsilon = upsilon;
    }
    let summary = polyinv_validate::run_fuzz(&config);

    if let Some(dir) = &parsed.artifacts {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|error| {
            CliError::Api(ApiError::Io {
                path: dir.display().to_string(),
                message: error.to_string(),
            })
        })?;
        for case in summary.failures() {
            let path = dir.join(format!("fuzz-case-{}.json", case.index));
            let mut text = case.to_json().pretty();
            text.push('\n');
            std::fs::write(&path, text).map_err(|error| {
                CliError::Api(ApiError::Io {
                    path: path.display().to_string(),
                    message: error.to_string(),
                })
            })?;
        }
    }

    if parsed.json {
        print_stdout(&summary.to_json().pretty())?;
    } else {
        let mut out = vec![format!(
            "fuzz: {} case(s) from seed {} — {} sound, {} unsolved, {} violation(s), {} round-trip, {} generation",
            summary.cases.len(),
            config.seed,
            summary.count("sound"),
            summary.count("unsolved"),
            summary.count("violation"),
            summary.count("round-trip-mismatch"),
            summary.count("generation-error"),
        )];
        for case in summary.failures() {
            out.push(format!(
                "FAILURE case {} (seed {}): {}",
                case.index,
                case.seed,
                case.status.label()
            ));
            out.push(case.source.clone());
        }
        print_stdout(&out.join("\n"))?;
    }
    Ok(if summary.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, CliError> {
    let parsed = parse_common(args)?;
    let path = parsed.file.ok_or_else(|| usage("batch needs a file"))?;
    let text = read_file(&path)?;
    let doc = Json::parse(&text).map_err(ApiError::from)?;
    let items = doc
        .as_array()
        .or_else(|| doc.get("requests").and_then(Json::as_array))
        .ok_or_else(|| {
            CliError::Api(ApiError::InvalidRequest {
                message: "batch file must be a JSON array of requests (or {\"requests\": [...]})"
                    .to_string(),
            })
        })?;
    let requests: Vec<SynthesisRequest> = items
        .iter()
        .map(SynthesisRequest::from_json)
        .collect::<Result<_, _>>()?;
    let engine = Engine::new();
    let outcomes = engine.run_batch(&requests);

    let mut all_ok = true;
    if parsed.json {
        let entries: Vec<Json> = outcomes
            .iter()
            .map(|outcome| match outcome {
                Ok(report) => {
                    all_ok &= report.status.is_success();
                    Json::object(vec![("ok", report.to_json())])
                }
                Err(error) => {
                    all_ok = false;
                    Json::object(vec![("err", error.to_json())])
                }
            })
            .collect();
        print_stdout(&Json::Array(entries).pretty())?;
    } else {
        let mut out = Vec::new();
        let (mut presolved, mut rows_before, mut rows_after) = (0usize, 0usize, 0usize);
        for (request, outcome) in requests.iter().zip(&outcomes) {
            match outcome {
                Ok(report) => {
                    all_ok &= report.status.is_success();
                    if let Some(record) = &report.presolve {
                        presolved += 1;
                        rows_before += record.size_before;
                        rows_after += record.size_after;
                    }
                    out.push(format!(
                        "{:<20} {:<13} {}",
                        display_id(&request.id),
                        report.status,
                        summary_line(report)
                    ));
                }
                Err(error) => {
                    all_ok = false;
                    out.push(format!(
                        "{:<20} error         {error}",
                        display_id(&request.id)
                    ));
                }
            }
        }
        if presolved > 0 && rows_before > 0 {
            out.push(format!(
                "presolve: {presolved} request(s), |S| {rows_before} -> {rows_after} ({:.1}% dropped)",
                100.0 * (rows_before - rows_after) as f64 / rows_before as f64
            ));
        }
        if !out.is_empty() {
            print_stdout(&out.join("\n"))?;
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `polyinv serve`: run the HTTP service until `POST /shutdown`.
fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let mut config = polyinv_server::ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, CliError> {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value(arg)?,
            "--workers" => config.workers = parse_number(arg, &value(arg)?)?,
            "--queue-depth" => config.queue_depth = parse_number(arg, &value(arg)?)?,
            "--cache-capacity" => config.cache_capacity = parse_number(arg, &value(arg)?)?,
            "--max-body-bytes" => config.max_body_bytes = parse_number(arg, &value(arg)?)?,
            "--read-timeout-secs" => {
                config.read_timeout =
                    std::time::Duration::from_secs(parse_number(arg, &value(arg)?)?);
            }
            "--write-timeout-secs" => {
                config.write_timeout =
                    std::time::Duration::from_secs(parse_number(arg, &value(arg)?)?);
            }
            other => return Err(usage(format!("unknown serve flag `{other}`"))),
        }
    }
    if config.queue_depth == 0 {
        return Err(usage("--queue-depth must be positive"));
    }
    let server = polyinv_server::Server::bind(config.clone()).map_err(|error| {
        CliError::Api(ApiError::Io {
            path: config.addr.clone(),
            message: error.to_string(),
        })
    })?;
    eprintln!(
        "polyinv serve: listening on http://{} (POST /v1/synth · /v1/check · /v1/batch, \
         GET /healthz · /metrics, POST /shutdown to drain)",
        server.local_addr()
    );
    let summary = server.run();
    eprintln!("polyinv serve: {}", summary.summary_line());
    Ok(ExitCode::SUCCESS)
}

fn display_id(id: &str) -> &str {
    if id.is_empty() {
        "(unnamed)"
    } else {
        id
    }
}

fn summary_line(report: &SynthesisReport) -> String {
    match report.mode {
        Mode::Check => format!(
            "{}/{} pairs certified in {:.2}s",
            report.pairs_certified,
            report.pairs_total,
            report.total_seconds()
        ),
        _ => {
            let presolve = match &report.presolve {
                Some(record) => format!(
                    ", presolve |S| {} -> {}",
                    record.size_before, record.size_after
                ),
                None => String::new(),
            };
            format!(
                "|S| = {}, unknowns = {}{presolve}, {:.2}s",
                report.system_size,
                report.num_unknowns,
                report.total_seconds()
            )
        }
    }
}

fn exit_for(report: &SynthesisReport) -> ExitCode {
    if report.status.is_success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes `text` and a newline to stdout. A reader that has gone away
/// (`polyinv … | head`) is not an error: the output is dropped and the
/// command exits with its own code. Any other write error surfaces.
fn print_stdout(text: &str) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        Err(error) if error.kind() != ErrorKind::BrokenPipe => Err(CliError::Api(ApiError::Io {
            path: "<stdout>".to_string(),
            message: error.to_string(),
        })),
        _ => Ok(()),
    }
}

fn emit_report(report: &SynthesisReport, json: bool, canonical: bool) -> Result<(), CliError> {
    if canonical {
        // The canonical form zeroes every timing and normalizes the worker
        // count, so two runs of the same request print byte-identical JSON
        // regardless of machine speed or POLYINV_THREADS.
        return print_stdout(&report.clone().canonical().to_json().pretty());
    }
    if json {
        return print_stdout(&report.to_json().pretty());
    }
    let mut out = vec![format!("status: {}", report.status)];
    if !report.backend.is_empty() {
        out.push(format!("backend: {}", report.backend));
    }
    out.push(format!(
        "system: |S| = {}, unknowns = {}",
        report.system_size, report.num_unknowns
    ));
    if let Some(presolve) = &report.presolve {
        out.push(format!(
            "presolve: |S| {} -> {}, unknowns {} -> {}, {} round(s)",
            presolve.size_before,
            presolve.size_after,
            presolve.unknowns_before,
            presolve.unknowns_after,
            presolve.rounds
        ));
    }
    if report.mode == Mode::Check {
        out.push(format!(
            "certified: {}/{} constraint pairs",
            report.pairs_certified, report.pairs_total
        ));
    }
    if report.status == ReportStatus::Failed {
        out.push(format!("violation: {:.3e}", report.violation));
    }
    if !report.timings.is_empty() {
        let rendered: Vec<String> = report
            .timings
            .iter()
            .map(|(stage, secs)| format!("{stage} {secs:.3}s"))
            .collect();
        out.push(format!("timings: {}", rendered.join(", ")));
    }
    if let Some(solver) = &report.solver {
        out.push(format!(
            "solver: {} iteration(s) over {} restart(s), nnz(J) = {}, nnz(L) = {}, \
             factor {:.3}s, solve {:.3}s",
            solver.iterations,
            solver.restarts,
            solver.nnz_jacobian,
            solver.nnz_factor,
            solver.factor_seconds,
            solver.solve_seconds,
        ));
    }
    if let Some(orchestrator) = &report.orchestrator {
        out.push(format!(
            "orchestrator: {} attempt(s) over {} rung(s), reached ϒ = {}, won by `{}`, \
             certificate {} ({:.3e})",
            orchestrator.attempts,
            orchestrator.rungs_tried,
            orchestrator.rung_reached,
            orchestrator.winning_backend,
            if orchestrator.certified {
                "passed"
            } else {
                "failed"
            },
            orchestrator.certificate_violation,
        ));
    }
    if let Some(record) = &report.validate {
        out.push(format!(
            "validation: {} — {} trace(s), {} state(s), {} violation(s){}",
            if record.passed { "passed" } else { "FAILED" },
            record.trace_runs,
            record.trace_states,
            record.trace_violations,
            match &record.exact {
                Some(exact) => format!(
                    ", exact worst {} ({})",
                    exact.worst_violation,
                    if exact.passed { "ok" } else { "over tolerance" }
                ),
                None => String::new(),
            }
        ));
    }
    if !report.invariants.is_empty() {
        out.push("invariants:".to_string());
        for line in &report.invariants {
            out.push(format!("  {line}"));
        }
    }
    if !report.postconditions.is_empty() {
        out.push("postconditions:".to_string());
        for line in &report.postconditions {
            out.push(format!("  {line}"));
        }
    }
    for line in &report.diagnostics {
        out.push(format!("note: {line}"));
    }
    print_stdout(&out.join("\n"))
}
