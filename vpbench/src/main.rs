//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path vpbench/Cargo.toml -- \
//!     --workload <train-v32k|serve-v97|serve-v32k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` measures the per-layer metrics, the tracing overhead and two closure
//! checks. Every run checks the program's outputs against the
//! single-device references outside its timed window. The last line of
//! standard output is the result object; the line before it is a report
//! with provenance, sample counts and checks, also written with the
//! Chrome traces under `vpbench/out/`. See `vpbench/README.md`.

mod metrics;
mod probe;
mod serve;
mod stats;
mod train;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use vp_runtime::serve::ServeEngine;
use vp_runtime::TraceLog;
use vp_tensor::{alloc, pool};
use vp_trace::Tracer;

use metrics::{json_num, json_str, result_line, Metrics, Outcome, END_TO_END, PER_LAYER};
use stats::{median, Percentile};
use workload::{plan_steps, Kind, Workload};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: vpbench --workload <train-v32k|serve-v97|serve-v32k> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The report line: `"key": value` fragments of one JSON object.
#[derive(Default)]
struct Report(Vec<String>);

impl Report {
    fn raw(&mut self, key: &str, json: String) {
        self.0.push(format!("{}: {json}", json_str(key)));
    }

    fn percentile(&mut self, key: &str, p: Option<Percentile>) {
        let json = p.map_or("null".into(), |p| {
            format!(
                "{{\"value\": {}, \"samples\": {}, \"tail\": {}, \"tail_ok\": {}}}",
                json_num(p.value),
                p.samples,
                p.tail,
                p.tail_ok()
            )
        });
        self.raw(key, json);
    }

    fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` when the tree is a git
/// checkout.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// What the run ran on: cores, kernel threads, `VP_*` settings, commit.
fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("VP_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"assumed_cores\": {}, \"num_threads\": {}, \"effective_parallelism\": {}, \"env\": {{{}}}, \"git_commit\": {}}}",
        pool::assumed_cores(),
        pool::num_threads(),
        pool::effective_parallelism(),
        env.join(", "),
        json_str(&git_commit())
    )
}

/// Writes `contents` under `vpbench/out/`; a failure is reported, not
/// fatal.
fn write_out(name: &str, contents: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{name}");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("vpbench: could not write {path}: {e}");
    }
}

/// One measurement of a workload's own path: its end-to-end figures, the
/// outcome counts before the reference check, and the samples holding the
/// losses or tokens that check compares.
struct EndToEnd {
    metrics: Metrics,
    p90: Option<Percentile>,
    attempted: u64,
    failed: u64,
    /// Passes (serving) or calls (training) the figures are medians over.
    repeats: usize,
    train: Option<train::TrainSamples>,
    serve: Option<serve::ServeSamples>,
}

/// Measures `w`'s own path for `budget`, traced when `tracer` is given.
fn end_to_end(w: Workload, seed: u64, budget: Duration, tracer: Option<&Tracer>) -> EndToEnd {
    let model = w.model(seed);
    let mut metrics = Metrics::default();
    match w.kind() {
        Kind::Train => {
            let s = train::measure(&model, &w.schedule(&model), budget, tracer.is_some());
            let p90 = s.end_to_end(&model, &mut metrics);
            EndToEnd {
                metrics,
                p90,
                attempted: s.attempted,
                failed: s.failed,
                repeats: s.setup_s.len(),
                train: Some(s),
                serve: None,
            }
        }
        Kind::Serve => {
            let config = w.serve_config(&model);
            let stream = w.stream(&model, seed);
            let off = Tracer::off();
            let s = serve::measure(&config, &stream, budget, tracer.unwrap_or(&off));
            let p90 = s.end_to_end(&mut metrics);
            EndToEnd {
                metrics,
                p90,
                attempted: s.attempted,
                failed: s.failed,
                repeats: s.setup_s.len(),
                train: None,
                serve: Some(s),
            }
        }
    }
}

/// Failures the reference check finds in a measured run, counted once per
/// repeat that served them.
fn reference_failures(w: Workload, seed: u64, e: &EndToEnd) -> u64 {
    let model = w.model(seed);
    match (&e.train, &e.serve) {
        (Some(t), _) => train::reference_mismatches(&model, &t.losses),
        (_, Some(s)) => {
            let config = w.serve_config(&model);
            let stream = w.stream(&model, seed);
            serve::reference_mismatches(&config, &stream, &s.tokens, seed) * e.repeats as u64
        }
        _ => 0,
    }
}

fn untraced(args: &Args, report: &mut Report) -> (Outcome, Metrics) {
    let w = args.workload;
    let mut e = end_to_end(w, args.seed, Duration::from_secs(args.seconds), None);
    // Read before the reference check allocates its own model.
    e.metrics.set("peak_rss_mb", peak_rss_mb());
    let mismatches = reference_failures(w, args.seed, &e);
    report.raw("repeats", e.repeats.to_string());
    let per_repeat = match (&e.train, &e.serve) {
        (Some(t), _) => &t.tokens_per_s,
        (_, Some(s)) => &s.tokens_per_s,
        _ => &Vec::new(),
    };
    let per_repeat: Vec<String> = per_repeat.iter().map(|&v| json_num(v)).collect();
    report.raw(
        "tokens_per_s_by_repeat",
        format!("[{}]", per_repeat.join(", ")),
    );
    report.percentile("tpot_ms_p90", e.p90);
    report.raw("reference_mismatches", mismatches.to_string());
    let outcome = Outcome {
        attempted: e.attempted,
        failed: e.failed + mismatches,
        correct: mismatches == 0,
    };
    (outcome, e.metrics)
}

fn traced(args: &Args, report: &mut Report) -> (Outcome, Metrics) {
    let w = args.workload;
    let seed = args.seed;
    let model = w.model(seed);
    let schedule = w.schedule(&model);
    let config = w.serve_config(&model);
    let stream = w.stream(&model, seed);
    let bench_log = TraceLog::new(2);
    let tr = bench_log.tracer(0);
    let tag = format!("{}-seed{seed}", w.name());

    // Tracing overhead: the end-to-end path untraced, then traced, each
    // for a quarter of the run.
    let budget = Duration::from_secs(args.seconds.div_ceil(4));
    let mut plain = end_to_end(w, seed, budget, None);
    plain.metrics.set("peak_rss_mb", peak_rss_mb());
    let mut with = end_to_end(w, seed, budget, Some(&tr));
    with.metrics.set("peak_rss_mb", peak_rss_mb());
    let overhead: Vec<String> = END_TO_END
        .iter()
        .map(|(name, _)| {
            let d = with.metrics.get(name).unwrap_or(f64::NAN)
                - plain.metrics.get(name).unwrap_or(f64::NAN);
            format!("{}: {}", json_str(name), json_num(d))
        })
        .collect();
    report.raw("tracing_overhead", format!("{{{}}}", overhead.join(", ")));
    let mut attempted = plain.attempted + with.attempted;
    let mut failed = plain.failed + with.failed;
    if w.kind() == Kind::Train {
        failed += reference_failures(w, seed, &plain);
    }
    let failure = |attempted: u64, failed: u64| {
        let outcome = Outcome {
            attempted,
            failed,
            correct: false,
        };
        (outcome, Metrics::default())
    };

    let mut m = Metrics::default();
    // Training passes: the traced end-to-end calls on the training
    // workload, one traced call at this model's shape otherwise.
    let probe_call;
    let (train_report, train_log) = match with.train.as_ref().and_then(|t| t.traced.as_ref()) {
        Some((r, l)) => (r, l),
        None => {
            attempted += 2;
            let data = train::corpus(&model);
            probe_call = vp_runtime::train_schedule_traced(&model, &schedule, 2, &data);
            match &probe_call {
                Ok((r, l)) => (r, l),
                Err(_) => return failure(attempted, failed + 2),
            }
        }
    };
    let (closure, busy_ms) = train::pass_metrics(train_report, train_log, &mut m);
    report.raw(
        "closure_train",
        format!(
            "{{\"pass_sum_over_busy\": {}, \"busy_ms\": {}}}",
            json_num(closure),
            json_num(busy_ms)
        ),
    );
    write_out(
        &format!("{tag}.train.trace.json"),
        &train_log.chrome_trace(),
    );

    // Serving: one warm pass, then a measured pass with fresh arena
    // counters, checked against the reference and the end-to-end passes.
    attempted += stream.len() as u64;
    let Ok(mut engine) = ServeEngine::start(config.clone()) else {
        return failure(attempted, failed + stream.len() as u64);
    };
    engine.serve(&stream);
    alloc::reset_counters();
    let run = engine.serve(&stream);
    let arena = alloc::stats();
    engine.shutdown();
    let served = serve::tokens_by_id(&run, stream.len());
    failed += serve::reference_mismatches(&config, &stream, &served, seed);
    failed += serve::differing(&served, plain.serve.as_ref().map_or(&served, |s| &s.tokens));
    match w.kind() {
        Kind::Train => {
            if !train::arena_metrics(&model, &schedule, &mut m) {
                failed += 1;
            }
        }
        Kind::Serve => {
            m.set("tensor.arena_reuse_ratio", arena.reuse_ratio());
            m.set(
                "tensor.arena_fresh_per_iter",
                arena.fresh as f64 / run.steps.max(1) as f64,
            );
        }
    }
    m.set("runtime.steps", run.steps as f64);
    m.set("runtime.occupancy", run.occupancy());

    // Decode layers, replayed over the plan.
    let (full, build_ms) = probe::model_build(&model, &tr);
    m.set("runtime.model_build_ms", build_ms);
    m.set("schedule.validate_ms", probe::validate_ms(&schedule, &tr));
    m.set(
        "check.check_decode_ms",
        probe::check_decode_ms(&config, &tr),
    );
    let steps = plan_steps(&stream, config.max_batch, config.prefill_chunk);
    let costs = probe::decode_costs(&config, &full, &stream, &bench_log);
    let replayed = probe::decode_metrics(&config, &costs, &steps, &mut m);
    let per_device = config.model.layers / config.devices;
    let (s_share, block_share) = probe::replay_shares(&costs, &steps, per_device);
    let output_ms = m.get("core.S_ms").unwrap_or(f64::NAN) + m.get("core.T_ms").unwrap_or(f64::NAN);
    report.raw(
        "shares",
        format!(
            "{{\"train_output_st_of_passes\": {}, \"serve_s_pass_of_replayed_step\": {}, \"serve_blocks_of_replayed_step\": {}}}",
            json_num(output_ms / (closure * busy_ms)),
            json_num(s_share),
            json_num(block_share)
        ),
    );
    let measured_ms = median(&run.latency) * 1e3;
    let replayed_ms = median(&replayed) * 1e3;
    m.set("runtime.driver_ms_per_step", measured_ms - replayed_ms);
    m.set("replay.coverage", replayed_ms / measured_ms);
    report.raw(
        "closure_serve",
        format!(
            "{{\"replayed_step_ms_p50\": {}, \"measured_step_ms_p50\": {}, \"planned_steps\": {}, \"run_steps\": {}}}",
            json_num(replayed_ms),
            json_num(measured_ms),
            steps.len(),
            run.steps
        ),
    );
    let plan_holds = steps.len() == run.steps;
    write_out(
        &format!("{tag}.bench.trace.json"),
        &bench_log.chrome_trace(),
    );
    let outcome = Outcome {
        attempted,
        failed,
        correct: plan_holds,
    };
    (outcome, m)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.raw("workload", json_str(args.workload.name()));
    report.raw("seed", args.seed.to_string());
    report.raw("trace", args.trace.to_string());
    report.raw("provenance", provenance());
    let (outcome, metrics) = if args.trace {
        traced(&args, &mut report)
    } else {
        untraced(&args, &mut report)
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let report = format!("{{\"report\": {}}}", report.render());
    let result = result_line(&outcome, catalogue, &metrics);
    write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &format!("{report}\n{result}\n"),
    );
    println!("{report}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-v97 --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeV97);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-v97 --seed 1 --seconds 0 --trace 0",
            "--workload serve-v97 --seed 1 --seconds 1 --trace 2",
            "--workload serve-v97 --seed 1 --seconds 1",
            "--workload serve-v97 --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
