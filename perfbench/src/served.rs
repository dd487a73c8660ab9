//! `served_stream`: one `FrameServer` streaming the encoded dense scene to
//! closed-loop sessions through a shared chunk cache smaller than the
//! decoded scene.

use crate::trace::{self, Guard};
use crate::{orbit_keys, parallel_map, reference_renderer, same_image};
use crate::{Config, Rng, Tally, Workload};
use ms_render::{Image, RenderOptions, RenderOutput, StageKind};
use ms_scene::trajectory::Trajectory;
use ms_scene::{
    encode_model_chunked, CacheStats, ChunkCache, ChunkedFileSource, GaussianModel, SceneSource,
    SourceError,
};
use ms_serve::{FrameServer, SceneHandle, SessionConfig, SessionId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A [`SceneSource`] delegate that records an `io.decode` span around
/// every chunk load of the wrapped source. It keeps the inner source's id,
/// so chunk-cache keys are unchanged. Loads run on pool workers; each
/// thread records into its own trace buffer.
pub struct TimedSource<S> {
    inner: S,
}

impl<S: SceneSource> TimedSource<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

impl<S: SceneSource> SceneSource for TimedSource<S> {
    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn chunk_len(&self, index: usize) -> usize {
        self.inner.chunk_len(index)
    }

    fn total_points(&self) -> usize {
        self.inner.total_points()
    }

    fn sh_degree(&self) -> usize {
        self.inner.sh_degree()
    }

    fn source_id(&self) -> u64 {
        self.inner.source_id()
    }

    fn chunk_base(&self, index: usize) -> usize {
        self.inner.chunk_base(index)
    }

    fn load_chunk_into(&self, index: usize, into: &mut GaussianModel) -> Result<(), SourceError> {
        let (parent, step) = trace::context();
        let mut span = Guard::open("io.decode", parent, step);
        let result = self.inner.load_chunk_into(index, into);
        span.set_arg(into.storage_bytes() as u64);
        result
    }
}

/// Work counts of one frame, as `RenderStats` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameCounts {
    /// Splats surviving culling.
    pub points_projected: f64,
    /// Tile–splat intersections.
    pub tile_intersections: f64,
    /// Compositing steps.
    pub blend_steps: f64,
    /// Raster work units.
    pub work_units: f64,
    /// Max / mean intersections per work unit.
    pub unit_imbalance: f64,
    /// Splats the raster staging admitted.
    pub splats_staged: f64,
    /// Scheduled row iterations.
    pub row_iterations: f64,
    /// The `rows × list length` bound on row iterations.
    pub row_iteration_bound: f64,
}

impl FrameCounts {
    /// Read the counts of one rendered frame.
    pub fn of(out: &RenderOutput) -> Self {
        let s = &out.stats;
        // With merging off (the default) no merged schedule is recorded and
        // the work units are the identity bands: one per tile row.
        let band_imbalance = || {
            let rows: Vec<u64> = s
                .tile_intersections
                .chunks(s.grid.tiles_x.max(1) as usize)
                .map(|row| row.iter().map(|&n| u64::from(n)).sum())
                .collect();
            let mean = rows.iter().sum::<u64>() as f64 / rows.len().max(1) as f64;
            let max = rows.iter().copied().max().unwrap_or(0) as f64;
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        };
        Self {
            points_projected: s.points_projected as f64,
            tile_intersections: s.total_intersections as f64,
            blend_steps: s.blend_steps as f64,
            work_units: s.profile.items(StageKind::Merge) as f64,
            unit_imbalance: s
                .unit_imbalance_ratio()
                .map_or_else(band_imbalance, f64::from),
            splats_staged: s.profile.raster.splats_staged as f64,
            row_iterations: s.profile.raster.row_iterations as f64,
            row_iteration_bound: s.profile.raster.row_iteration_bound as f64,
        }
    }

    /// Mean over frames.
    pub fn mean(frames: &[FrameCounts]) -> Self {
        let n = frames.len().max(1) as f64;
        let sum = |f: fn(&FrameCounts) -> f64| frames.iter().map(f).sum::<f64>() / n;
        Self {
            points_projected: sum(|c| c.points_projected),
            tile_intersections: sum(|c| c.tile_intersections),
            blend_steps: sum(|c| c.blend_steps),
            work_units: sum(|c| c.work_units),
            unit_imbalance: sum(|c| c.unit_imbalance),
            splats_staged: sum(|c| c.splats_staged),
            row_iterations: sum(|c| c.row_iterations),
            row_iteration_bound: sum(|c| c.row_iteration_bound),
        }
    }
}

/// Wraps the served source, e.g. in a fault injector (tests).
pub type SourceWrap = Box<dyn FnOnce(ChunkedFileSource) -> Arc<dyn SceneSource + Send + Sync>>;

/// One logical client: a session config it re-admits after every pass.
struct Client {
    config: SessionConfig,
    id: SessionId,
    /// Frames delivered by the current session.
    delivered: usize,
}

/// The prepared `served_stream` workload.
pub struct ServedStream {
    server: FrameServer,
    clients: Vec<Client>,
    /// Reference image per client per frame index.
    references: Vec<Vec<Image>>,
    in_flight: usize,
    step: u64,
    broken: bool,
    /// Resident high-water marks over the warm-up frames.
    chunk_bytes_peak: u64,
    projected_bytes_peak: u64,
    /// Work counts of the warm-up frames, in delivery order.
    warm_counts: Vec<FrameCounts>,
    warm: Tally,
}

impl ServedStream {
    /// Encode the dense scene for `seed` into 4096-splat chunks, open it
    /// from bytes (through `wrap` when given, else a [`TimedSource`]),
    /// render the in-core references of every session pose, and warm the
    /// server until every session has delivered a window of frames.
    pub fn setup(cfg: &Config, seed: u64, wrap: Option<SourceWrap>) -> Self {
        let model = crate::dense_scene(cfg, seed).model;
        let proto = cfg.prototype();
        let configs: Vec<SessionConfig> = (0..cfg.sessions)
            .map(|c| SessionConfig {
                trajectory: Trajectory::new(
                    orbit_keys(&mut Rng::new(seed, 10 + c as u64), 6),
                    true,
                ),
                prototype: proto,
                frame_count: cfg.session_poses,
                options: RenderOptions::default(),
                in_flight: cfg.in_flight,
                ring_capacity: cfg.in_flight,
            })
            .collect();
        let poses: Vec<(usize, ms_scene::Camera)> = configs
            .iter()
            .enumerate()
            .flat_map(|(c, config)| {
                config
                    .trajectory
                    .cameras(&config.prototype, config.frame_count)
                    .into_iter()
                    .map(move |cam| (c, cam))
            })
            .collect();
        let reference = reference_renderer();
        let flat = parallel_map(&poses, cfg.reference_workers, |(_, cam)| {
            reference.render(&model, cam).image
        });
        let mut references: Vec<Vec<Image>> = vec![Vec::new(); cfg.sessions];
        for ((c, _), image) in poses.iter().zip(flat) {
            references[*c].push(image);
        }
        let bytes = encode_model_chunked(&model, cfg.chunk_splats).to_vec();
        drop(model);
        let file = ChunkedFileSource::from_bytes(bytes).expect("an encoded scene decodes");
        let source: Arc<dyn SceneSource + Send + Sync> = match wrap {
            Some(wrap) => wrap(file),
            None => Arc::new(TimedSource::new(file)),
        };
        let cache = Arc::new(ChunkCache::new(cfg.cache_budget));
        let mut server = FrameServer::new_scene_with_cache(SceneHandle::Chunked(source), cache);
        let clients = configs
            .into_iter()
            .map(|config| Client {
                id: server
                    .add_session(config.clone())
                    .expect("the session config is valid"),
                config,
                delivered: 0,
            })
            .collect();
        let mut workload = Self {
            server,
            clients,
            references,
            in_flight: cfg.in_flight,
            step: 0,
            broken: false,
            chunk_bytes_peak: 0,
            projected_bytes_peak: 0,
            warm_counts: Vec::new(),
            warm: Tally::default(),
        };
        // Warm-up: grow every session's arenas and fill the cache.
        let mut warm = Tally::default();
        while workload.clients.iter().any(|c| c.delivered < cfg.in_flight) && !workload.broken {
            workload.step_once(&mut warm, true);
        }
        workload.warm = warm;
        workload
    }

    /// The poses each client renders, per client.
    pub fn client_cameras(&self) -> Vec<Vec<ms_scene::Camera>> {
        self.clients
            .iter()
            .map(|c| {
                c.config
                    .trajectory
                    .cameras(&c.config.prototype, c.config.frame_count)
            })
            .collect()
    }

    /// `(chunk_bytes_peak, projected_bytes_peak)` over the warm-up frames.
    pub fn resident_peaks(&self) -> (u64, u64) {
        (self.chunk_bytes_peak, self.projected_bytes_peak)
    }

    /// Mean work counts of the warm-up frames (each session's first
    /// window of poses).
    pub fn counts(&self) -> FrameCounts {
        FrameCounts::mean(&self.warm_counts)
    }

    /// The server's cache traffic so far.
    fn cache_stats(&self) -> CacheStats {
        self.server.report().cache
    }

    /// One server step, then drain and check every ring and re-admit
    /// clients whose pass finished or whose session died.
    fn step_once(&mut self, tally: &mut Tally, warmup: bool) {
        let id = self.step;
        self.step += 1;
        let span = Guard::open("serve.step", 0, id);
        trace::set_context(span.id(), id);
        let stepped = catch_unwind(AssertUnwindSafe(|| self.server.step()));
        trace::set_context(0, 0);
        drop(span);
        tally.add("serve.steps", 1.0);
        if stepped.is_err() {
            // The panic unwound the shared scope: every frame in flight is
            // lost and the server's state can no longer be trusted.
            tally.lost((self.clients.len() * self.in_flight) as u64);
            self.broken = true;
            return;
        }
        let traced = trace::enabled();
        for (c, client) in self.clients.iter_mut().enumerate() {
            for f in self.server.take_frames(client.id) {
                client.delivered += 1;
                let correct = same_image(&f.output.image, &self.references[c][f.frame_index]);
                tally.frame(f.latency, correct);
                let profile = &f.output.stats.profile;
                if warmup {
                    self.chunk_bytes_peak = self.chunk_bytes_peak.max(profile.chunk_bytes_peak);
                    self.projected_bytes_peak =
                        self.projected_bytes_peak.max(profile.projected_bytes_peak);
                    self.warm_counts.push(FrameCounts::of(&f.output));
                }
                if traced && correct {
                    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                    let service = ms(profile.total_wall());
                    tally.sample("serve.service_ms", service);
                    tally.sample("serve.queue_ms", ms(f.latency) - service);
                    tally.sample("stream.project_ms", ms(profile.wall(StageKind::Project)));
                    tally.sample("stream.bin_ms", ms(profile.wall(StageKind::Bin)));
                    tally.sample("stream.raster_ms", ms(profile.wall(StageKind::Raster)));
                    tally.add(&format!("client{c}.frames"), 1.0);
                }
            }
            let frames = client.config.frame_count;
            let died = self.server.session_error(client.id).is_some();
            if died {
                // The failed frame and the frames queued behind it.
                tally.lost(self.in_flight.min(frames - client.delivered) as u64);
            }
            if died || client.delivered == frames {
                self.server.remove_session(client.id);
                client.id = self
                    .server
                    .add_session(client.config.clone())
                    .expect("the session config is valid");
                client.delivered = 0;
            }
        }
    }
}

impl Workload for ServedStream {
    fn run_until(&mut self, deadline: Instant, tally: &mut Tally) -> bool {
        let before = self.cache_stats();
        // Sessions complete frames in bursts, so stop on a step that
        // completed one: the wall time then ends at a completion, not part
        // way to the next burst.
        loop {
            let done = tally.attempted;
            self.step_once(tally, false);
            if self.broken || (Instant::now() >= deadline && tally.attempted > done) {
                break;
            }
        }
        let after = self.cache_stats();
        tally.add("cache.hits", (after.hits - before.hits) as f64);
        tally.add("cache.misses", (after.misses - before.misses) as f64);
        tally.add(
            "cache.evictions",
            (after.evictions - before.evictions) as f64,
        );
        !self.broken
    }

    fn layer_metrics(&self, traced: &Tally, spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
        let frames = traced.completed().max(1) as f64;
        let decodes: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "io.decode").collect();
        let decode_ms: f64 = decodes.iter().map(|s| s.dur_ns() as f64 / 1e6).sum();
        let decoded_mib: f64 = decodes.iter().map(|s| s.arg as f64).sum::<f64>() / (1 << 20) as f64;
        let steps: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.step")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        let step_self: Vec<f64> = spans
            .iter()
            .zip(trace::self_times_ns(spans))
            .filter(|(s, _)| s.name == "serve.step")
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        let lookups = traced.sum("cache.hits") + traced.sum("cache.misses");
        let wall = traced.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let session_fps_min = (0..self.clients.len())
            .map(|c| traced.sum(&format!("client{c}.frames")) / wall)
            .fold(f64::INFINITY, f64::min);
        let cache = self.cache_stats();
        let c = self.counts();
        vec![
            ("render.points_projected", c.points_projected),
            ("render.tile_intersections", c.tile_intersections),
            ("render.blend_steps", c.blend_steps),
            ("render.work_units", c.work_units),
            ("render.unit_imbalance", c.unit_imbalance),
            ("render.raster.splats_staged", c.splats_staged),
            (
                "render.raster.row_iteration_ratio",
                if c.row_iteration_bound > 0.0 {
                    c.row_iterations / c.row_iteration_bound
                } else {
                    0.0
                },
            ),
            ("io.decode_ms", decode_ms / frames),
            ("io.decode_calls", decodes.len() as f64 / frames),
            ("io.decoded_mib", decoded_mib / frames),
            ("io.chunk_bytes_peak", self.chunk_bytes_peak as f64),
            ("io.projected_bytes_peak", self.projected_bytes_peak as f64),
            (
                "cache.hit_ratio",
                if lookups > 0.0 {
                    traced.sum("cache.hits") / lookups
                } else {
                    0.0
                },
            ),
            ("cache.evictions", traced.sum("cache.evictions") / frames),
            (
                "cache.resident_peak_mib",
                cache.resident_bytes_peak as f64 / (1 << 20) as f64,
            ),
            ("serve.step_ms", crate::stats::median(&steps)),
            ("serve.step_self_ms", crate::stats::median(&step_self)),
            ("serve.steps_per_frame", traced.sum("serve.steps") / frames),
            ("serve.service_ms_p50", traced.median("serve.service_ms")),
            ("serve.queue_ms_p50", traced.median("serve.queue_ms")),
            (
                "serve.session_fps_min",
                if session_fps_min.is_finite() {
                    session_fps_min
                } else {
                    0.0
                },
            ),
            ("stream.project_ms", traced.median("stream.project_ms")),
            ("stream.bin_ms", traced.median("stream.bin_ms")),
            ("stream.raster_ms", traced.median("stream.raster_ms")),
        ]
    }

    fn warmup(&self) -> &Tally {
        &self.warm
    }

    fn perturb_reference(&mut self) {
        crate::perturb(&mut self.references[0][0]);
    }
}
