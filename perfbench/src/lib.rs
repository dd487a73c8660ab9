//! End-to-end and per-layer benchmark of two paths users hit: the
//! foveated renderer (`foveated_gaze`) and the frame server streaming a
//! chunked scene through the staged [`Renderer`](ms_render::Renderer)
//! (`served_stream`). See `README.md` next to this crate for the
//! workloads, the metrics and how to run them.
//!
//! Every workload is built from a seed: the seed drives the scene's
//! `SceneSpec::seed`, the trajectory phase and jitter and the gaze path.
//! Set-up renders a bit-exact reference image for every distinct pose
//! (and gaze) with the scalar kernel on one thread, and every timed frame
//! is compared to its reference bit for bit.

#![deny(missing_docs)]

pub mod env;
pub mod foveated;
pub mod metrics;
pub mod served;
pub mod stats;
pub mod trace;

use ms_math::Vec3;
use ms_render::{Image, RasterKernel, RenderOptions, Renderer};
use ms_scene::dataset::TraceId;
use ms_scene::synth::{self, Scene};
use ms_scene::trajectory::PoseKey;
use ms_scene::Camera;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sizes of the generated inputs. [`Config::standard`] is what the
/// benchmark command runs; tests use [`Config::small`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Render width in pixels.
    pub width: u32,
    /// Render height in pixels.
    pub height: u32,
    /// Vertical field of view in degrees.
    pub fovy_deg: f32,
    /// Splats in the dense `room` scene (`served_stream`).
    pub dense_points: usize,
    /// Mean log-scale of the dense scene's splats (small splats).
    pub dense_log_scale: f32,
    /// Point-budget scale of the foveated `room` scenes.
    pub fov_scale: f32,
    /// Foveated models, each from its own seeded scene; the frame loop
    /// cycles over them.
    pub fov_models: usize,
    /// Distinct (model, pose, gaze) frames of the `foveated_gaze` loop.
    pub fov_frames: usize,
    /// Frame-server sessions (logical clients).
    pub sessions: usize,
    /// Frames of one pass along a session's trajectory.
    pub session_poses: usize,
    /// Frames each session keeps in flight.
    pub in_flight: usize,
    /// Splats per chunk of the encoded scene.
    pub chunk_splats: usize,
    /// Shared chunk-cache budget in bytes.
    pub cache_budget: usize,
    /// Threads rendering references in set-up (each renders on one
    /// thread; they split the poses).
    pub reference_workers: usize,
}

impl Config {
    /// The benchmark's workloads.
    pub fn standard() -> Self {
        Self {
            width: 128,
            height: 96,
            fovy_deg: 74.0,
            dense_points: 100_000,
            dense_log_scale: -4.0,
            fov_scale: 0.008,
            fov_models: 4,
            fov_frames: 48,
            sessions: 4,
            session_poses: 8,
            in_flight: 2,
            chunk_splats: 4096,
            cache_budget: 12 << 20,
            reference_workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// A reduced configuration with the same structure, for tests.
    pub fn small() -> Self {
        Self {
            width: 64,
            height: 48,
            dense_points: 6_000,
            fov_scale: 0.002,
            fov_models: 2,
            fov_frames: 6,
            sessions: 3,
            session_poses: 4,
            chunk_splats: 1024,
            cache_budget: 512 << 10,
            reference_workers: 2,
            ..Self::standard()
        }
    }

    /// The camera every pose is derived from (intrinsics only matter).
    pub fn prototype(&self) -> Camera {
        Camera::look_at(
            self.width,
            self.height,
            self.fovy_deg,
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::zero(),
        )
    }
}

/// Deterministic generator for the benchmark's own choices (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(mix(seed, salt))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

/// Combine two seeds into one (splitmix64 finaliser over their mix).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut rng = Rng(a ^ b.rotate_left(32) ^ 0xD1B5_4A32_D192_ED03);
    rng.next_u64()
}

/// The `room` trace's layout at `points` splats of mean log-scale
/// `log_scale`, generated from `seed`.
pub fn room_scene(seed: u64, points: usize, log_scale: f32) -> Scene {
    let trace = TraceId::by_name("room").expect("room is a built-in trace");
    let mut spec = trace.spec_with_scale(1.0);
    spec.seed = mix(trace.seed(), seed);
    spec.total_points = points;
    spec.base_log_scale = log_scale;
    synth::generate(&spec).expect("the room spec is valid")
}

/// The dense scene of `served_stream`.
pub fn dense_scene(cfg: &Config, seed: u64) -> Scene {
    room_scene(seed, cfg.dense_points, cfg.dense_log_scale)
}

/// `n` orbit keys around the `room` content that alternate head-on poses
/// from the capture ring (0.9 × the scene radius) with pulled-back ones
/// (1.6 ×). The seed sets the phase and a small per-pose jitter, so every
/// seed sees the same mix of near and far views.
pub fn orbit_keys(rng: &mut Rng, n: usize) -> Vec<PoseKey> {
    let r = 7.0f32;
    let phase = rng.range(0.0, std::f32::consts::TAU);
    (0..n)
        .map(|i| {
            let theta = phase + i as f32 / n as f32 * std::f32::consts::TAU;
            let radius = if i % 2 == 0 { 0.9 * r } else { 1.6 * r } + rng.range(-0.3, 0.3);
            let height = 0.35 * r + rng.range(-0.4, 0.4);
            PoseKey {
                eye: Vec3::new(radius * theta.cos(), height, radius * theta.sin()),
                target: Vec3::new(rng.range(-0.3, 0.3), 0.35, rng.range(-0.3, 0.3)),
            }
        })
        .collect()
}

/// Cameras at `keys` with `cfg`'s intrinsics.
pub fn cameras_at(cfg: &Config, keys: &[PoseKey]) -> Vec<Camera> {
    let proto = cfg.prototype();
    keys.iter()
        .map(|k| Camera {
            eye: k.eye,
            target: k.target,
            ..proto
        })
        .collect()
}

/// Options of the reference renders: the scalar kernel on one thread.
pub fn reference_options() -> RenderOptions {
    RenderOptions {
        raster_kernel: RasterKernel::Scalar,
        threads: 1,
        ..RenderOptions::default()
    }
}

/// A reference renderer (scalar kernel, one thread).
pub fn reference_renderer() -> Renderer {
    Renderer::new(reference_options())
}

/// `f(item)` for every item, split over `workers` scoped threads, results
/// in item order. Set-up uses it for independent one-thread reference
/// renders and model builds, so spreading them over the cores only
/// shortens set-up.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let f = &f;
            handles.push(scope.spawn(move || {
                (w..items.len())
                    .step_by(workers)
                    .map(|i| (i, f(&items[i])))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, r) in handle.join().expect("a set-up worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item rendered"))
        .collect()
}

/// Whether two images are bit-for-bit identical.
pub fn same_image(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels().iter().zip(b.pixels()).all(|(p, q)| {
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.z.to_bits() == q.z.to_bits()
        })
}

/// Flip the lowest mantissa bit of one pixel — how the gate tests prove a
/// perturbed reference is caught.
pub fn perturb(image: &mut Image) {
    let p = &mut image.pixels_mut()[0];
    p.x = f32::from_bits(p.x.to_bits() ^ 1);
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall time spent in [`Workload::run_until`].
    pub wall: Duration,
    /// Frames attempted.
    pub attempted: u64,
    /// Frames that failed (error, dead session, panic or wrong image).
    pub failed: u64,
    /// Latency of every frame that completed correctly, ms.
    pub latencies_ms: Vec<f64>,
    /// Per-frame (or per-step) samples read from the program's outputs,
    /// by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Additive totals by name.
    pub sums: BTreeMap<String, f64>,
}

impl Tally {
    /// Record a frame: correct (with its latency) or failed.
    pub fn frame(&mut self, latency: Duration, correct: bool) {
        self.attempted += 1;
        if correct {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }

    /// Record `n` frames lost without output.
    pub fn lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Frames that completed correctly.
    pub fn completed(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Completed frames per second of wall time.
    pub fn fps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.completed() as f64 / self.wall.as_secs_f64()
        }
    }

    /// Append a sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of a sample series (0 when absent).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| stats::median(s))
    }

    /// Add to a total.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_default() += value;
    }

    /// A total (0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// A prepared workload: inputs generated, references rendered, caches
/// and buffers warm.
pub trait Workload {
    /// Render frames until `deadline` (a frame started before it is
    /// finished), recording into `tally`. Spans are recorded when
    /// [`trace::enabled`]. Returns `false` when the workload cannot go on
    /// (a panic tore down shared state).
    fn run_until(&mut self, deadline: Instant, tally: &mut Tally) -> bool;

    /// Per-layer metrics from the traced blocks' tally and spans, plus the
    /// deterministic counts measured in set-up.
    fn layer_metrics(&self, traced: &Tally, spans: &[trace::Span]) -> Vec<(&'static str, f64)>;

    /// The warm-up frames' check: set-up renders frames in the timed
    /// configuration and compares them to the references too.
    fn warmup(&self) -> &Tally;

    /// Corrupt one reference image (gate tests only).
    fn perturb_reference(&mut self);
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["foveated_gaze", "served_stream"];

/// Build workload `name` for `seed`.
pub fn setup(name: &str, cfg: &Config, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "foveated_gaze" => Box::new(foveated::FoveatedGaze::setup(cfg, seed)),
        "served_stream" => Box::new(served::ServedStream::setup(cfg, seed, None)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// Per-frame sums of the spans named `name`, over the frames that have
/// at least one.
pub fn per_frame_ms(spans: &[trace::Span], name: &str) -> Vec<f64> {
    let mut by_frame: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_frame.entry(s.frame).or_default() += s.dur_ns() as f64 / 1e6;
    }
    by_frame.into_values().collect()
}
