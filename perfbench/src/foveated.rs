//! `foveated_gaze`: `FoveatedRenderer::render` over foveated models built
//! once in set-up, with the gaze moving every frame.

use crate::trace::{self, Guard};
use crate::{cameras_at, orbit_keys, parallel_map, reference_options, reference_renderer};
use crate::{same_image, Config, Rng, Tally, Workload};
use ms_fov::{build_foveated, FovRenderOutput, FoveatedModel, FoveatedRenderer, FrBuildConfig};
use ms_math::Vec2;
use ms_render::{Image, RenderOptions, StageKind};
use ms_scene::Camera;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A saccade-plus-pursuit gaze path of `n` points in a `width × height`
/// image: the gaze drifts smoothly (pursuit) and, every 5–12 frames, jumps
/// to a new point (saccade). It stays inside the central 80% of the image.
pub fn gaze_path(rng: &mut Rng, n: usize, width: u32, height: u32) -> Vec<Vec2> {
    let (w, h) = (width as f32, height as f32);
    let (x_lo, x_hi, y_lo, y_hi) = (0.1 * w, 0.9 * w, 0.1 * h, 0.9 * h);
    let point = |rng: &mut Rng| Vec2::new(rng.range(x_lo, x_hi), rng.range(y_lo, y_hi));
    let mut gaze = point(rng);
    let mut velocity = Vec2::new(rng.range(-0.03, 0.03) * w, rng.range(-0.03, 0.03) * h);
    let mut until_saccade = 5 + (rng.next_u64() % 8) as usize;
    (0..n)
        .map(|_| {
            let current = gaze;
            if until_saccade == 0 {
                gaze = point(rng);
                velocity = Vec2::new(rng.range(-0.03, 0.03) * w, rng.range(-0.03, 0.03) * h);
                until_saccade = 5 + (rng.next_u64() % 8) as usize;
            } else {
                gaze = Vec2::new(gaze.x + velocity.x, gaze.y + velocity.y);
                if !(x_lo..=x_hi).contains(&gaze.x) {
                    velocity.x = -velocity.x;
                    gaze.x = gaze.x.clamp(x_lo, x_hi);
                }
                if !(y_lo..=y_hi).contains(&gaze.y) {
                    velocity.y = -velocity.y;
                    gaze.y = gaze.y.clamp(y_lo, y_hi);
                }
                until_saccade -= 1;
            }
            current
        })
        .collect()
}

/// Counts of one foveated frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FovCounts {
    /// Splats projected, summed over the level passes.
    pub points_projected_sum: f64,
    /// Tile intersections over all levels.
    pub tile_intersections: f64,
    /// Pixels rendered by two levels and blended.
    pub blended_pixels: f64,
}

impl FovCounts {
    fn of(out: &FovRenderOutput) -> Self {
        Self {
            points_projected_sum: out
                .per_level_stats
                .iter()
                .map(|s| s.points_projected as f64)
                .sum(),
            tile_intersections: out.stats.total_intersections as f64,
            blended_pixels: out.blended_pixels as f64,
        }
    }
}

/// One frame of the loop: which model, the pose and the gaze.
pub type FovFrame = (usize, Camera, Vec2);

/// The prepared `foveated_gaze` workload.
pub struct FoveatedGaze {
    models: Vec<FoveatedModel>,
    frames: Vec<FovFrame>,
    references: Vec<Image>,
    renderer: FoveatedRenderer,
    next: usize,
    /// Mean counts over the frame loop, from the warm-up pass.
    counts: FovCounts,
    warm: Tally,
}

impl FoveatedGaze {
    /// Build the foveated models for `seed` (no fine-tuning), generate the
    /// pose and gaze loop, render the references and warm up.
    ///
    /// A ~2k-splat scene's frame cost hinges on its few largest splats, so
    /// one scene per seed makes the cost swing by tens of percent from
    /// seed to seed; cycling over several seeded scenes averages that out.
    pub fn setup(cfg: &Config, seed: u64) -> Self {
        let trace = ms_scene::dataset::TraceId::by_name("room").expect("room is a built-in trace");
        let spec = trace.spec_with_scale(cfg.fov_scale);
        let poses = cameras_at(cfg, &orbit_keys(&mut Rng::new(seed, 2), cfg.fov_frames));
        let gazes = gaze_path(
            &mut Rng::new(seed, 3),
            cfg.fov_frames,
            cfg.width,
            cfg.height,
        );
        let build_cameras = [poses[0], poses[1 % poses.len()]];
        let reference = reference_renderer();
        let model_seeds: Vec<u64> = (0..cfg.fov_models as u64)
            .map(|m| crate::mix(seed, 100 + m))
            .collect();
        let models = parallel_map(&model_seeds, cfg.reference_workers, |&s| {
            let scene = crate::room_scene(s, spec.total_points, spec.base_log_scale);
            let build_images: Vec<Image> = build_cameras
                .iter()
                .map(|c| reference.render(&scene.model, c).image)
                .collect();
            build_foveated(
                &scene.model,
                &build_cameras,
                &build_images,
                &FrBuildConfig {
                    finetune: None,
                    ..FrBuildConfig::default()
                },
            )
        });
        let frames: Vec<FovFrame> = poses
            .into_iter()
            .zip(gazes)
            .enumerate()
            .map(|(i, (cam, gaze))| (i % models.len(), cam, gaze))
            .collect();
        let fov_reference = FoveatedRenderer::new(reference_options());
        let references = parallel_map(&frames, cfg.reference_workers, |(m, cam, gaze)| {
            fov_reference.render(&models[*m], cam, Some(*gaze)).image
        });
        let renderer = FoveatedRenderer::new(RenderOptions::default());
        let mut warm_tally = Tally::default();
        let warm: Vec<FovCounts> = frames
            .iter()
            .zip(&references)
            .map(|((m, cam, gaze), reference)| {
                let start = Instant::now();
                let out = renderer.render(&models[*m], cam, Some(*gaze));
                warm_tally.frame(start.elapsed(), same_image(&out.image, reference));
                FovCounts::of(&out)
            })
            .collect();
        let n = warm.len().max(1) as f64;
        let counts = FovCounts {
            points_projected_sum: warm.iter().map(|c| c.points_projected_sum).sum::<f64>() / n,
            tile_intersections: warm.iter().map(|c| c.tile_intersections).sum::<f64>() / n,
            blended_pixels: warm.iter().map(|c| c.blended_pixels).sum::<f64>() / n,
        };
        Self {
            models,
            frames,
            references,
            renderer,
            next: 0,
            counts,
            warm: warm_tally,
        }
    }

    /// The (model, pose, gaze) loop.
    pub fn frames(&self) -> &[FovFrame] {
        &self.frames
    }

    /// Mean counts over the frame loop.
    pub fn counts(&self) -> FovCounts {
        self.counts
    }
}

impl Workload for FoveatedGaze {
    fn run_until(&mut self, deadline: Instant, tally: &mut Tally) -> bool {
        while Instant::now() < deadline {
            let i = self.next % self.frames.len();
            let id = self.next as u64;
            self.next += 1;
            let (m, camera, gaze) = self.frames[i];
            let traced = trace::enabled();
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _span = Guard::open("fov.render", 0, id);
                self.renderer.render(&self.models[m], &camera, Some(gaze))
            }));
            let latency = start.elapsed();
            let Ok(out) = result else {
                tally.lost(1);
                continue;
            };
            tally.frame(latency, same_image(&out.image, &self.references[i]));
            if traced {
                let level_wall = |kind: StageKind| {
                    out.per_level_stats
                        .iter()
                        .map(|s| s.profile.wall(kind).as_secs_f64() * 1e3)
                        .sum::<f64>()
                };
                let stages: f64 = out
                    .per_level_stats
                    .iter()
                    .map(|s| s.profile.total_wall().as_secs_f64() * 1e3)
                    .sum();
                tally.sample("fov.levels_project_ms", level_wall(StageKind::Project));
                tally.sample("fov.levels_raster_ms", level_wall(StageKind::Raster));
                tally.sample("fov.level_stages_ms", stages);
            }
        }
        true
    }

    fn layer_metrics(&self, traced: &Tally, spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
        let render = crate::per_frame_ms(spans, "fov.render");
        // Self time: the render span minus every level's stage walls (the
        // masks, the blend and the stats merge), frame by frame.
        let stages = traced.samples.get("fov.level_stages_ms");
        let self_ms: Vec<f64> = match stages {
            Some(stages) if stages.len() == render.len() => {
                render.iter().zip(stages).map(|(r, s)| r - s).collect()
            }
            _ => Vec::new(),
        };
        vec![
            ("fov.render_ms", crate::stats::median(&render)),
            (
                "fov.levels_project_ms",
                traced.median("fov.levels_project_ms"),
            ),
            (
                "fov.levels_raster_ms",
                traced.median("fov.levels_raster_ms"),
            ),
            ("fov.self_ms", crate::stats::median(&self_ms)),
            ("fov.points_projected_sum", self.counts.points_projected_sum),
            ("fov.tile_intersections", self.counts.tile_intersections),
            ("fov.blended_pixels", self.counts.blended_pixels),
        ]
    }

    fn warmup(&self) -> &Tally {
        &self.warm
    }

    fn perturb_reference(&mut self) {
        crate::perturb(&mut self.references[0]);
    }
}
