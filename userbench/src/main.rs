//! The sqp user-path benchmark.
//!
//! ```text
//! cargo run --release --manifest-path userbench/Cargo.toml -- \
//!     --workload suggest-stream --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `suggest-stream` (open-loop `TRACK_SUGGEST` over the wire, a
//! reference rate then a ramp), `batch-deep` (closed-loop 256-entry
//! `SUGGEST_BATCH` over deep contexts) and `refresh` (retrain, save and
//! rolling publish beside a suggest stream). Inputs come from
//! `sqp-logsim`'s default corpus at `--seed`. The last line of standard
//! output is the result: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics when `--trace 0` and the per-layer metrics
//! when `--trace 1`. The line before it is a report with every measured
//! number, the checks and the workload's input properties. The exit code
//! is non-zero when any check fails. See `userbench/METRICS.md`.

mod inputs;
mod json;
mod run;
mod stats;
mod tier;
mod trace;

use inputs::Scale;
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SuggestStream,
    BatchDeep,
    Refresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SuggestStream,
        Workload::BatchDeep,
        Workload::Refresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuggestStream => "suggest-stream",
            Workload::BatchDeep => "batch-deep",
            Workload::Refresh => "refresh",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut scale = Scale::Paper;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--scale" => {
                scale = match value()?.as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("unknown scale {v}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
        spans,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match argv.get(1).map(|p| tier::serve_child(Path::new(p))) {
            Some(Ok(())) => ExitCode::SUCCESS,
            other => {
                eprintln!("serve: {other:?}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("userbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()));
    let result = std::fs::create_dir_all(&work.0)
        .and_then(|()| work.0.canonicalize())
        .and_then(|dir| bench(&args, &dir));
    drop(work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("userbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run's scratch directory, removed when the run ends, a panic
/// included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Run one workload and print the report and result lines. Returns
/// whether every check passed.
fn bench(args: &Args, work: &Path) -> std::io::Result<bool> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let corpus = inputs::corpus(args.seed, args.scale);
    let inputs_s = t.elapsed().as_secs_f64();
    eprintln!(
        "inputs: {} train records, {} test records in {inputs_s:.2} s",
        corpus.train.len(),
        corpus.test.len()
    );

    let path = work.join("serving.sqps");
    let mut setup_split = tier::SetupSplit::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let tier = loop {
        let split = args.trace.then_some(&mut setup_split);
        let (tier, secs) = tier::setup(&corpus.train, &path, split)?;
        setup_secs.push(secs);
        if setup_secs.len() == setups {
            break tier;
        }
        tier.server.stop();
    };
    let setup_s = stats::median(&setup_secs);
    eprintln!("setup: {setup_secs:?} s");

    let seconds = args.seconds;
    let mut out = match args.workload {
        Workload::SuggestStream => run::suggest_stream(&tier, &corpus.test, seconds),
        Workload::BatchDeep => run::batch_deep(&tier, &corpus.test, seconds, args.seed),
        Workload::Refresh => run::refresh(
            &tier,
            &corpus.train,
            &corpus.test,
            seconds,
            work,
            args.trace,
        ),
    };
    let wire = tier.remote.remote_wire_stats();
    let layers = if args.trace {
        let layers = trace::layers(
            args.workload,
            &tier,
            &corpus,
            args.seed,
            work,
            &setup_split,
            &mut out,
        )?;
        if let Some(path) = &args.spans {
            layers.write_spans(path)?;
        }
        Some(layers)
    } else {
        None
    };
    drop(tier.remote);
    let server = tier.server.stop();
    let peak_rss_mb = server.peak_rss_kib as f64 / 1024.0;

    let answered_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let correct = out.problems.is_empty() && out.failed == 0;
    let mut named = vec![("setup_s", setup_s, "s")];
    named.extend(out.named.iter().copied());
    named.push(("peak_rss_mb", peak_rss_mb, "MiB"));
    named.push(("failed_share", 1.0 - answered_share, "ratio"));
    for (name, value, unit) in &named {
        eprintln!("{name}: {value} {unit}");
    }

    let end_to_end = Json::obj([
        ("setup_s", metric(setup_s, "s")),
        ("cpu_us_per_op", metric(out.cpu_us_per_op, "us")),
        ("peak_rss_mb", metric(peak_rss_mb, "MiB")),
        ("answered_share", metric(answered_share, "ratio")),
    ]);
    let mut report: Vec<(String, Json)> = vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Int(nproc as u64)),
        ("inputs_s".into(), Json::Num(inputs_s)),
        (
            "setup_runs_s".into(),
            Json::Arr(setup_secs.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "named".into(),
            Json::obj(named.iter().map(|&(n, v, u)| (n, metric(v, u)))),
        ),
        ("properties".into(), out.properties.to_json()),
        (
            "problems".into(),
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
    ];
    if let Some(w) = wire {
        report.push(("active_sessions".into(), Json::Int(w.active_sessions)));
    }
    report.append(&mut out.report);
    let metrics = match layers {
        Some(layers) => {
            report.push(("traced_end_to_end".into(), end_to_end));
            layers.to_json(wire, &server)
        }
        None => end_to_end,
    };
    println!("{}", Json::obj([("report", Json::Obj(report))]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(out.attempted)),
            ("failed", Json::Int(out.failed)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}
