//! Benchmark command. Runs one workload for a fixed time and prints its
//! metrics; the last line of stdout is the JSON result.
//!
//! ```text
//! perfbench --workload <foveated_gaze|served_stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` alternates untraced and traced blocks, reports the
//! per-layer metrics from the traced blocks and the tracing overhead, and
//! writes the spans as Chrome trace-event JSON to
//! `perfbench/out/trace-<workload>-seed<seed>.json`. The exit code is 0 only
//! when every frame matched its reference; 2 flags bad arguments or a
//! forbidden environment.

use perfbench::env::{check_env, json_str, peak_rss_mib, Provenance};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::stats::{median, percentile, samples_beyond};
use perfbench::{setup, trace, Config, Tally, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A traced run alternates this many untraced and traced blocks (half
/// each), but no block is shorter than [`MIN_TRACE_BLOCK`].
const TRACE_BLOCKS: u32 = 8;
const MIN_TRACE_BLOCK: Duration = Duration::from_millis(500);

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON number with all its digits (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(values: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let process_start = Instant::now();
    if let Err(e) = check_env() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = Config::standard();

    // Set-up, several times; each is timed from its start to the moment
    // the first timed frame could begin (the first from process start).
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm = Tally::default();
    let mut workload: Option<Box<dyn Workload>> = None;
    for r in 0..SETUPS {
        drop(workload.take());
        let start = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        let w = match setup(&args.workload, &cfg, args.seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        };
        setup_s.push(start.elapsed().as_secs_f64());
        warm.attempted += w.warmup().attempted;
        warm.failed += w.warmup().failed;
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up ran");
    let provenance = Provenance::collect(args.seed);

    let run_for = Duration::from_secs_f64(args.seconds);
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let run_start = Instant::now();
    if args.trace {
        // Alternate untraced and traced blocks so drift hits both alike.
        let block = (run_for / TRACE_BLOCKS).max(MIN_TRACE_BLOCK);
        let mut on = false;
        loop {
            let now = Instant::now();
            let end = run_start + run_for;
            if now >= end {
                break;
            }
            trace::set_enabled(on);
            let tally = if on { &mut traced } else { &mut untraced };
            let go_on = workload.run_until((now + block).min(end), tally);
            tally.wall += now.elapsed();
            if !go_on {
                break;
            }
            on = !on;
        }
        trace::set_enabled(false);
    } else {
        let go_on = workload.run_until(run_start + run_for, &mut untraced);
        untraced.wall = run_start.elapsed();
        if !go_on {
            eprintln!("perfbench: the workload stopped early after a panic");
        }
    }

    let attempted = warm.attempted + untraced.attempted + traced.attempted;
    let failed = warm.failed + untraced.failed + traced.failed;
    let correct = failed == 0 && untraced.completed() + traced.completed() > 0;
    let failed_ratio = failed as f64 / attempted.max(1) as f64;

    let mut latencies = untraced.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let frames = latencies.len();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans = trace::drain();
        let mut values: BTreeMap<&str, f64> = workload
            .layer_metrics(&traced, &spans)
            .into_iter()
            .collect();
        let traced_fps = traced.fps();
        values.insert(
            "trace.overhead_ratio",
            if traced_fps > 0.0 {
                untraced.fps() / traced_fps
            } else {
                0.0
            },
        );
        values.insert("trace.traced_frames", traced.completed() as f64);
        values.insert("trace.untraced_frames", untraced.completed() as f64);
        let dir = "perfbench/out";
        let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
        let label = format!("{} seed {}", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans, &label)));
        match written {
            Ok(()) => println!("# trace: {} spans written to {path}", spans.len()),
            Err(e) => eprintln!("perfbench: writing the trace to {path} failed: {e}"),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let value = |name: &str| match name {
            "fps" => untraced.fps(),
            "frame_ms_p50" => percentile(&latencies, 50.0).unwrap_or(0.0),
            "frame_ms_p90" => percentile(&latencies, 90.0).unwrap_or(0.0),
            "peak_rss_mb" => peak_rss_mib().unwrap_or(0.0),
            "setup_s" => median(&setup_s),
            _ => unreachable!("every end-to-end metric has a value"),
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, value(name), unit))
            .collect()
    };

    println!(
        "# perfbench {} seed {} for {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &metrics {
        println!("{name:<36} {:>14} {unit}", num(*value));
    }
    println!(
        "{:<36} {:>14} ratio ({failed} of {attempted} frames, warm-up included)",
        "failed_frame_ratio",
        num(failed_ratio)
    );
    if !args.trace {
        println!(
            "# latency samples {frames}; {} beyond p90{}",
            samples_beyond(frames, 90.0),
            if frames < 100 {
                " (fewer than 100 frames: p90 rests on under 10 samples)"
            } else {
                ""
            }
        );
    }
    let setup_list: Vec<String> = setup_s.iter().map(|s| num(*s)).collect();
    println!(
        "# record {{\"workload\": {}, \"trace\": {}, \"seconds\": {}, {}, \"setup_s_samples\": [{}], \"frames_timed\": {}, \"frames_traced\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"failed_frame_ratio\": {}, \"metrics\": {}}}",
        json_str(&args.workload),
        u8::from(args.trace),
        num(args.seconds),
        provenance.json_fields(),
        setup_list.join(", "),
        untraced.completed(),
        traced.completed(),
        num(failed_ratio),
        metrics_json(&metrics)
    );
    if !correct {
        eprintln!("perfbench: {failed} of {attempted} frames failed the reference check");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
