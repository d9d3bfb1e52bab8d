//! The repo benchmark: six replicated-run workloads, host and simulated
//! end-to-end metrics, per-layer attribution from outside the crates.
//! See `README.md` beside this file.
//!
//! ```text
//! cargo run --release -p hvft-bench --bin benchmark -- \
//!     [--workload <name>]… [--seed <n>] [--seconds <n>] [--trace [0|1]] \
//!     [--smoke] [--repeat-check] [--json <path>]
//! ```

mod json;
mod layers;
mod names;
mod stats;
mod trace;
mod workloads;

use json::Json;
use layers::Attribution;
use names::{END_TO_END, PER_LAYER};
use stats::{median, rel_diff, summarize, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{
    check_pass, check_sequential, prepare, run_pass, run_pass_observed, threads, Checks, Kind,
    Pass, Sizes,
};

const DEFAULT_SEED: u64 = 1995;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes under a `--seconds` budget.
const MIN_PASSES: usize = 3;
/// Fewest and most untraced/traced pass pairs of a traced-only run.
const TRACE_PAIRS: (usize, usize) = (2, 5);

const USAGE: &str = "usage: benchmark [--workload <name>]… [--seed <n>] [--seconds <n>] \
[--trace [0|1]] [--smoke] [--repeat-check] [--json <path>]
workloads: bare-cpu repl-cpu repl-mem paper-el1k fault-lossy cluster-lan
  --seconds <n>   run timed passes for n seconds (at least 3) instead of 5 passes
  --trace 0       timed passes only: the end-to-end metrics
  --trace 1       traced and attribution passes only: the per-layer metrics
  --trace, or neither: both, the attribution after the timed passes
  --smoke         tiny sizes, 2 passes (CI and the unit tests)
  --repeat-check  run the set twice and compare every end-to-end metric
  --json <path>   also write the results as JSON";

/// Which halves of a workload run are wanted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    EndToEnd,
    Layers,
    Both,
}

#[derive(Clone, Debug)]
struct Options {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: Option<f64>,
    mode: Mode,
    smoke: bool,
    repeat_check: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        mode: Mode::Both,
        smoke: false,
        repeat_check: false,
        json: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                let kind =
                    Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                if !o.workloads.contains(&kind) {
                    o.workloads.push(kind);
                }
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v} is out of range"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                // The driver's `--trace <0|1>` selects one half. The issue's
                // bare `--trace` adds the traced pass, which a run with
                // neither flag makes anyway.
                o.mode = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        Mode::EndToEnd
                    }
                    Some("1") => {
                        i += 1;
                        Mode::Layers
                    }
                    _ => Mode::Both,
                };
            }
            "--smoke" => o.smoke = true,
            "--repeat-check" => o.repeat_check = true,
            "--json" => o.json = Some(PathBuf::from(value(&mut i, "--json")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(o)
}

/// Where traces and per-workload results go: under the cargo target
/// directory, which is inside the checkout and git-ignored.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("benchmark")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported value; timings carry their sample summary.
#[derive(Clone, Debug)]
struct Value {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Option<Summary>,
    /// For the reader of the table: the regression bound of an
    /// end-to-end metric; the layer and target of a per-layer one.
    note: String,
}

/// Everything one workload run produced.
struct WorkloadResult {
    kind: Kind,
    seed: u64,
    passes: usize,
    checks: Checks,
    end_to_end: Vec<Value>,
    per_layer: Vec<Value>,
    tracer: Option<Tracer>,
    trace_path: Option<PathBuf>,
}

fn run_timed_passes(prepared: &workloads::Prepared, o: &Options, sizes: &Sizes) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        let done = match o.seconds {
            Some(s) => passes.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() >= s,
            None => passes.len() >= sizes.passes,
        };
        if done {
            return passes;
        }
        passes.push(run_pass(&prepared.runnable));
    }
}

/// The passes of a traced-only run: untraced and traced alternate, so
/// that drift in the machine's speed hits both alike, and fill half the
/// `--seconds` budget (the attribution variants take the rest).
fn run_trace_pairs(
    prepared: &workloads::Prepared,
    o: &Options,
    tracer: &Tracer,
) -> (Vec<Pass>, Vec<Pass>) {
    let budget = o.seconds.unwrap_or(0.0) / 2.0;
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < TRACE_PAIRS.0
        || (untraced.len() < TRACE_PAIRS.1 && t0.elapsed().as_secs_f64() < budget)
    {
        untraced.push(run_pass(&prepared.runnable));
        traced.push(run_pass_observed(&prepared.runnable, Some(tracer)));
    }
    (untraced, traced)
}

fn check_passes(prepared: &workloads::Prepared, passes: &[Pass], checks: &mut Checks) {
    for (i, pass) in passes.iter().enumerate() {
        checks.add(check_pass(prepared, pass, (i > 0).then(|| &passes[0])));
    }
}

fn run_workload(kind: Kind, o: &Options) -> WorkloadResult {
    let sizes = if o.smoke { Sizes::SMOKE } else { Sizes::FULL };
    let want_e2e = o.mode != Mode::Layers;
    let want_layers = o.mode != Mode::EndToEnd;
    let tracer = want_layers.then(Tracer::new);
    let mut checks = Checks::default();

    // Set-up. The timed set-ups run untraced; a traced run sets up once
    // more under spans.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    if want_e2e {
        for _ in 0..SETUPS {
            drop(prepared.take());
            let t0 = Instant::now();
            prepared = Some(prepare(kind, &sizes, o.seed, None));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    if let Some(t) = &tracer {
        drop(prepared.take());
        prepared = Some(t.span("setup", "bench", || prepare(kind, &sizes, o.seed, Some(t))));
    }
    let prepared = prepared.expect("one of the two halves is wanted");
    checks.add(prepared.setup_checks);

    // `rss` is the high-water mark of the untraced work: the hook
    // timestamps of a traced pass would dominate it.
    let (timed, rss, traced) = match &tracer {
        Some(t) if !want_e2e => {
            let (untraced, traced) = run_trace_pairs(&prepared, o, t);
            (untraced, peak_rss_mb(), traced)
        }
        _ => {
            let timed = run_timed_passes(&prepared, o, &sizes);
            let rss = peak_rss_mb();
            let traced = tracer.iter().flat_map(|t| {
                (0..TRACE_PAIRS.0).map(|_| run_pass_observed(&prepared.runnable, Some(t)))
            });
            (timed, rss, traced.collect())
        }
    };
    check_passes(&prepared, &timed, &mut checks);
    let sequential = (kind == Kind::ClusterLan).then(|| {
        let (pass, c) = check_sequential(&prepared, &timed[0], tracer.as_ref());
        checks.add(c);
        pass
    });

    let mut per_layer = Vec::new();
    if let Some(t) = &tracer {
        check_passes(&prepared, &traced, &mut checks);
        checks.check(traced[0].fingerprint == timed[0].fingerprint, || {
            format!("{}: observers changed the simulated results", kind.name())
        });
        let mut a = layers::attribute(&prepared, &sizes, t, &timed, &traced, sequential.as_ref());
        a.set("fail_ratio", checks.fail_ratio());
        per_layer = PER_LAYER
            .iter()
            .map(|m| Value {
                name: m.name,
                unit: m.unit,
                value: a.get(m.name),
                samples: None,
                note: format!(
                    "{} better; {} -> {} @ {}",
                    m.better.as_str(),
                    m.layer,
                    m.target.0,
                    m.target.1
                ),
            })
            .chain(END_TO_END.iter().filter(|m| !m.gated()).map(|m| Value {
                name: m.name,
                unit: m.unit,
                value: a.get(m.name),
                samples: None,
                note: e2e_note(m),
            }))
            .collect();
    }

    let mut end_to_end = Vec::new();
    if want_e2e {
        let mut simulated = Attribution::default();
        layers::simulated_results(&prepared, &timed[0], &mut simulated);
        let insns = timed[0].insns as f64;
        let ns_per_insn: Vec<f64> = timed.iter().map(|p| p.wall_ns as f64 / insns).collect();
        for m in END_TO_END.iter().filter(|m| m.defined_on(kind.name())) {
            let (value, samples) = match m.name {
                "host_ns_per_insn" => (median(&ns_per_insn), Some(summarize(&ns_per_insn))),
                "sim_completion_ms" => (timed[0].sim.as_millis_f64(), None),
                "setup_s" => (median(&setup_s), Some(summarize(&setup_s))),
                "peak_rss_mb" => (rss, None),
                "fail_ratio" => (checks.fail_ratio(), None),
                other => (simulated.get(other), None),
            };
            end_to_end.push(Value {
                name: m.name,
                unit: m.unit,
                value,
                samples,
                note: e2e_note(m),
            });
        }
    }

    WorkloadResult {
        kind,
        seed: o.seed,
        passes: timed.len(),
        checks,
        end_to_end,
        per_layer,
        tracer,
        trace_path: None,
    }
}

/// Writes the workload's in-memory trace, if it recorded one.
fn write_trace(r: &mut WorkloadResult) {
    let Some(t) = &r.tracer else { return };
    let path = out_dir().join(format!("trace-{}.json", r.kind.name()));
    match write_json(&path, &t.to_chrome_json(r.kind.name())) {
        Ok(()) => r.trace_path = Some(path),
        Err(e) => eprintln!("cannot write {e}"),
    }
}

fn e2e_note(m: &names::EndToEnd) -> String {
    if m.gated() {
        format!(
            "{} better; bound +{:.0}%",
            m.better.as_str(),
            m.bound * 100.0
        )
    } else {
        format!("{} better; exact at a fixed seed", m.better.as_str())
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

fn print_table(r: &WorkloadResult) {
    println!(
        "\n== {} (seed {}, {} passes, {} thread(s)) ==",
        r.kind.name(),
        r.seed,
        r.passes,
        threads()
    );
    if let Some(w) = names::WORKLOADS.iter().find(|w| w.name == r.kind.name()) {
        println!("{}", w.why);
    }
    println!(
        "{:<44} {:>6} {:>16}   {:<34} note",
        "metric", "unit", "value", "median / min / max (n)"
    );
    // A per-layer metric reads 0 where the workload bypasses the layer;
    // those rows are counted, not listed. The end-to-end metrics the
    // traced result line repeats are listed once.
    let listed = |v: &&Value| v.value != 0.0 && !r.end_to_end.iter().any(|e| e.name == v.name);
    for v in r.end_to_end.iter().chain(r.per_layer.iter().filter(listed)) {
        let samples = v.samples.map_or(String::new(), |s| {
            format!(
                "{} / {} / {} ({})",
                fmt_value(s.median),
                fmt_value(s.min),
                fmt_value(s.max),
                s.n
            )
        });
        println!(
            "{:<44} {:>6} {:>16}   {samples:<34} {}",
            v.name,
            v.unit,
            fmt_value(v.value),
            v.note
        );
    }
    let bypassed = r.per_layer.iter().filter(|v| v.value == 0.0).count();
    if bypassed > 0 {
        println!("({bypassed} per-layer metrics read 0: this workload bypasses those layers)");
    }
    if let Some(p) = &r.trace_path {
        println!("trace: {}", p.display());
    }
    println!(
        "checks: {} attempted, {} failed",
        r.checks.attempted, r.checks.failed
    );
}

fn values_json(values: &[Value], with_samples: bool) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("value".to_owned(), Json::Num(v.value)),
                    ("unit".to_owned(), Json::str(v.unit)),
                ];
                if let (true, Some(s)) = (with_samples, v.samples) {
                    fields.push(("median".into(), Json::Num(s.median)));
                    fields.push(("min".into(), Json::Num(s.min)));
                    fields.push(("max".into(), Json::Num(s.max)));
                    fields.push(("n".into(), Json::Num(s.n as f64)));
                }
                (v.name.to_owned(), Json::Obj(fields))
            })
            .collect(),
    )
}

fn result_json(r: &WorkloadResult) -> Json {
    Json::obj([
        ("workload", Json::str(r.kind.name())),
        ("seed", Json::Num(r.seed as f64)),
        ("passes", Json::Num(r.passes as f64)),
        ("threads", Json::Num(threads() as f64)),
        ("attempted", Json::Num(r.checks.attempted as f64)),
        ("failed", Json::Num(r.checks.failed as f64)),
        ("end_to_end", values_json(&r.end_to_end, true)),
        ("per_layer", values_json(&r.per_layer, true)),
        (
            "trace",
            r.trace_path
                .as_ref()
                .map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
    ])
}

/// The driver's result line: `--trace 0` carries the end-to-end metrics
/// `BENCHMARK.json` gates, `--trace 1` every per-layer metric, neither
/// flag both.
fn contract_line(r: &WorkloadResult) -> Json {
    let gated: Vec<Value> = r
        .end_to_end
        .iter()
        .filter(|v| names::end_to_end(v.name).is_some_and(|m| m.gated()))
        .cloned()
        .collect();
    let metrics: Vec<Value> = gated
        .into_iter()
        .chain(r.per_layer.iter().cloned())
        .collect();
    Json::obj([
        ("correct", Json::Bool(r.checks.failed == 0)),
        ("attempted", Json::Num(r.checks.attempted as f64)),
        ("failed", Json::Num(r.checks.failed as f64)),
        ("metrics", values_json(&metrics, false)),
    ])
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process.
fn run_single(kind: Kind, o: &Options) -> Result<bool, String> {
    let mut r = run_workload(kind, o);
    write_trace(&mut r);
    print_table(&r);
    if let Some(path) = &o.json {
        write_json(path, &result_json(&r))?;
    }
    println!("{}", contract_line(&r).render());
    Ok(r.checks.failed == 0)
}

fn command_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts(o: &Options) -> Json {
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("threads", Json::Num(threads() as f64)),
        ("rustc", Json::str(command_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(o.seed as f64)),
        ("profile", Json::str(if o.smoke { "smoke" } else { "full" })),
    ])
}

/// Runs each workload in a child process of its own, one after another,
/// so that `peak_rss_mb` is a per-workload high-water mark. Returns the
/// children's result objects.
fn run_set(kinds: &[Kind], o: &Options, round: &str) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    let mut results = Vec::new();
    for kind in kinds {
        let path = dir.join(format!("result-{}{round}.json", kind.name()));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", kind.name(), "--seed", &o.seed.to_string()]);
        cmd.arg("--json").arg(&path);
        if let Some(s) = o.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        match o.mode {
            Mode::EndToEnd => drop(cmd.args(["--trace", "0"])),
            Mode::Layers => drop(cmd.args(["--trace", "1"])),
            Mode::Both => {}
        }
        if o.smoke {
            cmd.arg("--smoke");
        }
        results.push(run_child(&mut cmd, &path)?);
    }
    Ok(results)
}

/// Runs one workload's child process and reads the result it wrote to
/// `path`. A result left there by an earlier invocation is removed first,
/// and a child that ended badly without reporting a failed check (a
/// panic, a signal) is an error, not a result.
fn run_child(cmd: &mut std::process::Command, path: &Path) -> Result<Json, String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", path.display()));
        }
        _ => {}
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {:?}: {e}", cmd.get_program()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{:?} ({status}) left no result: {e}", cmd.get_program()))?;
    let result = Json::parse(&text)?;
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    if !status.success() && failed == 0.0 {
        return Err(format!(
            "{:?} ended with {status} but reports no failed check",
            cmd.get_program()
        ));
    }
    Ok(result)
}

fn failed_checks(results: &[Json]) -> f64 {
    results
        .iter()
        .filter_map(|r| r.get("failed").and_then(Json::as_f64))
        .sum()
}

/// Compares two result sets metric by metric; returns the number of
/// disagreements.
fn repeat_check(a: &[Json], b: &[Json]) -> usize {
    println!("\n== repeat check: two runs of the same code at the same seed ==");
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel diff", "bound"
    );
    let mut disagreements = 0;
    for (ra, rb) in a.iter().zip(b) {
        let workload = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let e2e = |r: &Json, name: &str| {
            r.get("end_to_end")
                .and_then(|e| e.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        for m in END_TO_END.iter().filter(|m| m.defined_on(workload)) {
            let (Some(x), Some(y)) = (e2e(ra, m.name), e2e(rb, m.name)) else {
                println!("{workload:<14} {:<24} missing — DISAGREE", m.name);
                disagreements += 1;
                continue;
            };
            let d = rel_diff(x, y);
            let agree = d <= m.repeat_bound;
            disagreements += usize::from(!agree);
            println!(
                "{workload:<14} {:<24} {:>16} {:>16} {:>8.2}% {:>6.0}%  {}",
                m.name,
                fmt_value(x),
                fmt_value(y),
                d * 100.0,
                m.repeat_bound * 100.0,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    disagreements
}

fn run_many(kinds: &[Kind], o: &Options) -> Result<bool, String> {
    let first = run_set(kinds, o, "")?;
    let mut ok = failed_checks(&first) == 0.0;
    let mut sets = vec![Json::Arr(first.clone())];
    if o.repeat_check {
        let second = run_set(kinds, o, "-repeat")?;
        ok &= failed_checks(&second) == 0.0;
        ok &= repeat_check(&first, &second) == 0;
        sets.push(Json::Arr(second));
    }
    if let Some(path) = &o.json {
        let doc = Json::obj([("host", host_facts(o)), ("runs", Json::Arr(sets))]);
        write_json(path, &doc)?;
    }
    println!(
        "\n{} workload(s): {}",
        kinds.len(),
        if ok {
            "every check passed"
        } else {
            "FAILED (a correctness check, or the repeat check)"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match o.workloads.as_slice() {
        [one] if !o.repeat_check => run_single(*one, &o),
        [] => {
            let all: Vec<Kind> = names::ALL
                .iter()
                .filter_map(|n| Kind::from_name(n))
                .collect();
            run_many(&all, &o)
        }
        some => run_many(some, &o),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &names::WORKLOADS {
            assert!(legal_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names::ALL.contains(&w.name));
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(legal_name(name), "{name}");
            assert!(legal_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
    }

    #[test]
    fn every_per_layer_metric_targets_an_end_to_end_metric_and_workload() {
        for m in &PER_LAYER {
            let (metric, workload) = m.target;
            let target = names::end_to_end(metric)
                .unwrap_or_else(|| panic!("{}: unknown target metric {metric}", m.name));
            assert!(
                target.defined_on(workload),
                "{}: {metric} is not defined on {workload}",
                m.name
            );
            assert!(!m.layer.is_empty());
        }
    }

    /// `BENCHMARK.json` must list exactly what the binary prints.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_names() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let names_of = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let workloads: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, names::ALL);

        let gated: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.gated())
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(names_of("end_to_end"), gated);
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(bound, names::end_to_end(name).unwrap().bound, "{name}");
            assert!(bound <= 0.25);
        }
        let traced: Vec<_> = names::traced_names()
            .into_iter()
            .map(|(n, u, b)| (n.to_owned(), u.to_owned(), b.as_str().to_owned()))
            .collect();
        assert_eq!(names_of("per_layer"), traced);
        assert!(traced.len() <= 128);
    }

    fn smoke(kind: Kind, mode: Mode) -> WorkloadResult {
        let o = Options {
            workloads: vec![kind],
            seed: 7,
            seconds: None,
            mode,
            smoke: true,
            repeat_check: false,
            json: None,
        };
        run_workload(kind, &o)
    }

    #[test]
    fn all_six_smoke_workloads_finish_with_no_failed_check() {
        for name in names::ALL {
            let kind = Kind::from_name(name).expect("declared workload");
            let r = smoke(kind, Mode::EndToEnd);
            assert!(r.checks.attempted > 0, "{name}");
            assert_eq!(r.checks.failed, 0, "{name}");
            let printed: Vec<&str> = r.end_to_end.iter().map(|v| v.name).collect();
            let expected: Vec<&str> = END_TO_END
                .iter()
                .filter(|m| m.defined_on(name))
                .map(|m| m.name)
                .collect();
            assert_eq!(printed, expected, "{name}");
            for v in &r.end_to_end {
                let gated = names::end_to_end(v.name).unwrap().gated();
                assert!(
                    v.value.is_finite() && (!gated || v.value > 0.0),
                    "{name}: {} = {}",
                    v.name,
                    v.value
                );
            }
        }
    }

    #[test]
    fn a_traced_smoke_run_reports_every_per_layer_metric() {
        let r = smoke(Kind::FaultLossy, Mode::Layers);
        assert_eq!(r.checks.failed, 0);
        let printed: Vec<&str> = r.per_layer.iter().map(|v| v.name).collect();
        let expected: Vec<&str> = names::traced_names().iter().map(|m| m.0).collect();
        assert_eq!(printed, expected);
        let get = |n: &str| r.per_layer.iter().find(|v| v.name == n).unwrap().value;
        assert!(get("net.reliable.retransmitted") > 0.0);
        assert_eq!(get("core.system.failovers"), 1.0);
        assert!(get("failover_outage_sim_ms") > 0.0);
        assert!(get("machine.statehash.us_per_call") > 0.0);
        let line = contract_line(&r);
        assert_eq!(line.as_obj().len(), 4);
        assert_eq!(
            line.get("metrics").unwrap().as_obj().len(),
            names::traced_names().len()
        );
    }

    /// A child that dies before writing its result must not be read as
    /// the result an earlier invocation left at the same path.
    #[test]
    fn a_dead_child_is_an_error_not_a_stale_result() {
        use std::process::Command;
        let dir = std::env::temp_dir().join(format!("hvft-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("result-stale.json");
        let write = |failed: u32| {
            let text = format!("{{\"workload\": \"repl-cpu\", \"failed\": {failed}}}");
            std::fs::write(&path, text).unwrap();
        };
        let sh = |script: String| {
            let mut cmd = Command::new("sh");
            cmd.arg("-c").arg(script);
            cmd
        };
        let rewrite = |failed: u32, code: u32| {
            sh(format!(
                "echo '{{\"failed\": {failed}}}' > {}; exit {code}",
                path.display()
            ))
        };

        write(0);
        assert!(run_child(&mut sh("exit 101".into()), &path).is_err());
        assert!(
            !path.exists(),
            "the stale result is removed before the child runs"
        );
        assert!(run_child(&mut rewrite(0, 1), &path).is_err());
        assert!(run_child(&mut rewrite(2, 1), &path).is_ok());
        assert!(run_child(&mut rewrite(0, 0), &path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arguments_parse_in_both_trace_spellings() {
        let parse = |s: &str| {
            parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
        };
        let o = parse("--workload repl-cpu --seed 3 --seconds 10 --trace 0");
        assert_eq!(
            (o.workloads.as_slice(), o.seed, o.seconds, o.mode),
            (&[Kind::ReplCpu][..], 3, Some(10.0), Mode::EndToEnd)
        );
        assert_eq!(parse("--trace 1").mode, Mode::Layers);
        assert_eq!(parse("--trace --smoke").mode, Mode::Both);
        assert_eq!(parse("").mode, Mode::Both);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
    }
}
