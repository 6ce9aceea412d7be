//! Reference-scale benchmark of the neurospatial engine.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Without `--workload` every workload runs, each
//! in a process of its own; `--repeat N` repeats over N seeds and prints
//! median, quartiles and spread per metric. See `README.md`.

mod gen;
mod io;
mod json;
mod oracle;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use workloads::{Ctx, Outcome};

/// Timed section of a smoke run and of the other workloads' probes in a
/// traced run.
const SMOKE_SECONDS: f64 = 0.4;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: None, traced: false, smoke: false, repeat: 1 };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value =
            || inline.clone().or_else(|| it.next().cloned()).ok_or(format!("{flag} needs a value"));
        match flag {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; known: {}", workloads::NAMES.join(", ")));
        }
    }
    Ok(args)
}

/// The benchmark's own directory: `benchmark/` of the checkout the command
/// is run from, else (unit tests, a run from elsewhere) where it was built.
fn home() -> &'static Path {
    if Path::new("BENCHMARK.json").is_file() && Path::new("benchmark/Cargo.toml").is_file() {
        Path::new("benchmark")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The declared metrics of one section of `BENCHMARK.json`, name → unit.
fn declared(manifest: &Json, section: &str) -> BTreeMap<String, String> {
    manifest
        .get(section)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((m.get("name")?.as_str()?.to_string(), m.get("unit")?.as_str()?.to_string()))
        })
        .collect()
}

fn load_manifest() -> Result<Json, String> {
    let path = home().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Pair every declared metric with its measured value. A name measured
/// but not declared, or declared but not measured, is an error: the
/// manifest and the program must not drift apart.
fn against_manifest(
    declared: &BTreeMap<String, String>,
    measured: &[(&str, f64)],
) -> Result<Vec<(String, f64, String)>, String> {
    let measured_names: BTreeMap<&str, f64> = measured.iter().copied().collect();
    if measured_names.len() != measured.len() {
        return Err("a metric was measured twice".to_string());
    }
    for name in measured_names.keys() {
        if !declared.contains_key(*name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    declared
        .iter()
        .map(|(name, unit)| {
            let value = *measured_names
                .get(name.as_str())
                .ok_or(format!("declared metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            Ok((name.clone(), value, unit.clone()))
        })
        .collect()
}

fn end_to_end(outcome: &mut Outcome) -> (Vec<(&'static str, f64)>, stats::Latency) {
    let latency = stats::latency(&mut outcome.pass.latencies_ns);
    let metrics = vec![
        ("setup_s", outcome.setup_s),
        ("ops_per_s", outcome.ops_per_s()),
        ("op_p50_us", latency.p50 / 1e3),
        ("peak_rss_mib", sys::peak_rss_mib()),
    ];
    (metrics, latency)
}

fn run_workload(name: &str, args: &Args, seconds: f64, smoke: bool) -> Outcome {
    let out_dir = home().join("out");
    std::fs::create_dir_all(&out_dir).expect("the benchmark can write inside its own directory");
    let tracer = args.traced.then(|| Arc::new(trace::Tracer::default()));
    let ctx = Ctx { seed: args.seed, seconds, smoke, tracer: tracer.clone(), out_dir };
    let outcome = workloads::run(name, &ctx).expect("workload names are validated at parse time");
    if let Some(tracer) = tracer {
        let path = ctx.out_dir.join(format!("trace-{name}.jsonl"));
        let spans = tracer.write_jsonl(&path).expect("the trace file is writable");
        eprintln!("trace: {spans} spans -> {}", path.display());
    }
    outcome
}

/// One workload in this process; prints the contract's result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let manifest = load_manifest()?;
    let run_seconds = manifest.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0);
    let seconds = match (args.smoke, args.seconds) {
        (true, _) => SMOKE_SECONDS,
        (false, s) => s.unwrap_or(run_seconds),
    };
    // A traced section runs a quarter as long: it is there for the spans,
    // and the end-to-end numbers never come from it.
    let section = if args.traced { seconds / 4.0 } else { seconds };
    let mut outcome = run_workload(name, args, section, args.smoke);
    let (mut attempted, mut failed) = (outcome.pass.attempted, outcome.pass.failed);

    let (measured, section_name, latency) = if args.traced {
        // Every per-layer metric has one owning workload. The others run
        // at smoke scale so that each declared name has a measured value;
        // such a value is comparable only with the same workload's runs.
        let mut layers = std::mem::take(&mut outcome.layers);
        // The tail is per-layer because it carries no bound: on this box
        // a p99 does not repeat within a quarter (NOISE.md).
        layers.push(("op_tail_us", stats::latency(&mut outcome.pass.latencies_ns).tail / 1e3));
        for other in workloads::NAMES.iter().filter(|w| **w != name) {
            let o = run_workload(other, args, SMOKE_SECONDS, true);
            attempted += o.pass.attempted;
            failed += o.pass.failed;
            // `bench.trace_overhead_share` is the named workload's alone.
            layers.extend(o.layers.into_iter().filter(|(n, _)| *n != "bench.trace_overhead_share"));
        }
        (layers, "per_layer", None)
    } else {
        let (metrics, latency) = end_to_end(&mut outcome);
        (metrics, "end_to_end", Some(latency))
    };
    let metrics = against_manifest(&declared(&manifest, section_name), &measured)?;

    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    let mut line = String::from("{");
    json::key(&mut line, "correct");
    line.push_str(if failed == 0 { "true" } else { "false" });
    json::key(&mut line, "attempted");
    line.push_str(&attempted.max(1).to_string());
    json::key(&mut line, "failed");
    line.push_str(&failed.to_string());
    if args.smoke {
        json::key(&mut line, "tier");
        line.push_str("\"smoke\"");
    }
    json::key(&mut line, "metrics");
    line.push_str(&json::metrics_object(&metrics));
    line.push('}');

    let mut record = line[..line.len() - 1].to_string();
    for (k, v) in [
        ("seed", args.seed as f64),
        ("section_seconds", section),
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    ]
    .into_iter()
    .chain(latency.iter().flat_map(|l| {
        [
            ("latency_samples", l.samples as f64),
            ("tail_percentile", l.tail_percentile),
            ("op_tail_us", l.tail / 1e3),
        ]
    }))
    .chain(outcome.facts.iter().copied())
    {
        json::key(&mut record, k);
        json::num(&mut record, v);
    }
    record.push_str("}\n");
    let kind = if args.traced { "traced" } else { "untraced" };
    let path = home().join("out").join(format!("result-{name}-{kind}.json"));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;

    println!("{line}");
    Ok(failed == 0)
}

/// Run `name` once per seed, each in a fresh process (so peak RSS and the
/// `obs` registry start clean), and return each run's metric values.
fn run_children(name: &str, args: &Args) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for seed in args.seed..args.seed + args.repeat as u64 {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()]);
        cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = Json::parse(last).map_err(|e| {
            format!("{name} seed {seed}: {e}\n{}", String::from_utf8_lossy(&out.stderr))
        })?;
        if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{name} seed {seed} failed: {last}"));
        }
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (metric, v) in metrics {
                let v = v.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
                values.entry(metric.clone()).or_default().push(v);
            }
        }
    }
    Ok(values)
}

/// Every requested workload over `--repeat` seeds, as a Markdown table.
fn study(args: &Args) -> Result<(), String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    println!("| workload | metric | runs | q1 | median | q3 | spread |");
    println!("|---|---|---|---|---|---|---|");
    for name in names {
        for (metric, v) in run_children(name, args)? {
            let median = stats::median(&v);
            if v.len() >= 2 {
                let (q1, q3) = stats::quartiles(&v);
                let spread = stats::relative_spread(&v) * 100.0;
                println!(
                    "| {name} | {metric} | {} | {q1:.4} | {median:.4} | {q3:.4} | {spread:.2} % |",
                    v.len()
                );
            } else {
                println!("| {name} | {metric} | 1 | | {median:.4} | | |");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
                 [--smoke] [--repeat N]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) if args.repeat == 1 => run_one(name, &args),
        _ => study(&args).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        load_manifest().expect("BENCHMARK.json sits beside the benchmark directory and parses")
    }

    #[test]
    fn arguments_in_both_spellings() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload serve_range --seed 7 --seconds 10 --trace 1")).unwrap();
        let b = parse_args(&argv("--workload=serve_range --seed=7 --seconds=10 --traced")).unwrap();
        assert_eq!(a, b);
        assert_eq!((a.seed, a.seconds, a.traced, a.smoke), (7, Some(10.0), true, false));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn manifest_names_are_well_formed_and_unique() {
        let m = manifest();
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut seen = std::collections::BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for entry in m.get(section).expect("section present").as_arr() {
                let name = entry.get("name").and_then(Json::as_str).expect("entry has a name");
                assert!(ok(name), "{name:?} must match [A-Za-z0-9][A-Za-z0-9_.-]*");
                assert!(seen.insert(name.to_string()), "{name} is declared twice");
            }
        }
        let declared_workloads: Vec<&str> = m
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(declared_workloads, workloads::NAMES);
        let e2e = declared(&m, "end_to_end");
        assert_eq!(e2e.get("setup_s").map(String::as_str), Some("s"));
        for entry in m.get("end_to_end").unwrap().as_arr() {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn result_line_holds_exactly_the_declared_end_to_end_names() {
        let m = manifest();
        let mut outcome = Outcome {
            setup_s: 1.5,
            pass: workloads::Pass {
                wall_s: 2.0,
                attempted: 4,
                failed: 0,
                latencies_ns: vec![4000, 1000, 3000, 2000],
            },
            ..Outcome::default()
        };
        let (measured, latency) = end_to_end(&mut outcome);
        assert_eq!((latency.samples, latency.p50), (4, 2000.0));
        let metrics = against_manifest(&declared(&m, "end_to_end"), &measured).unwrap();
        let parsed = Json::parse(&json::metrics_object(&metrics)).unwrap();
        let Json::Obj(obj) = parsed else { panic!("metrics are an object") };
        let names: Vec<&String> = obj.keys().collect();
        let wanted = declared(&m, "end_to_end");
        assert_eq!(names, wanted.keys().collect::<Vec<_>>());
        assert_eq!(obj["ops_per_s"].get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(obj["op_p50_us"].get("unit").unwrap().as_str(), Some("us"));
    }

    #[test]
    fn manifest_and_measurements_must_agree() {
        let d: BTreeMap<String, String> =
            [("a".to_string(), "s".to_string()), ("b".to_string(), "ns".to_string())].into();
        assert!(against_manifest(&d, &[("a", 1.0), ("b", 2.0)]).is_ok());
        assert!(against_manifest(&d, &[("a", 1.0)]).is_err());
        assert!(against_manifest(&d, &[("a", 1.0), ("b", 2.0), ("c", 3.0)]).is_err());
        assert!(against_manifest(&d, &[("a", 1.0), ("b", f64::NAN)]).is_err());
        assert!(against_manifest(&d, &[("a", 1.0), ("a", 2.0), ("b", 2.0)]).is_err());
    }
}
