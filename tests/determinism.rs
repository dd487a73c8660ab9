//! Determinism of the parallel pipeline stages (Project, Bin and Raster):
//! a frame rendered with `threads = 1` (the serial reference) must be
//! *bit-identical* — pixels, winner buffers and `FrameProfile` work
//! counters — to the same frame rendered with any other worker count,
//! including auto (`threads = 0`), on plain, masked and prefiltered
//! frames.
//!
//! Occupancy-driven tile merging (`RenderOptions::merge_threshold`) adds a
//! second determinism axis: a *merged* render must be bit-identical in
//! pixels and winners to the *unmerged* render of the same frame — merging
//! regroups raster scheduling, never per-pixel work — and the merged
//! configuration must itself be bit-identical across all thread counts.
//!
//! Kernel selection (`RenderOptions::raster_kernel`) adds the third axis:
//! the 4-lane SIMD compositing kernel, fed by its batched per-tile staging
//! prepass, row-interval schedule and tile early exit, must produce the
//! same frame, bit for bit, as the scalar reference kernel — on plain,
//! masked and prefiltered frames, at every worker count, merged or not —
//! and its `RasterWork` counters must be deterministic for a fixed
//! configuration (they are per-tile quantities, so neither the thread
//! count nor the work-unit schedule may change them).
//!
//! Scene chunking and the chunk cache add the fourth axis (see their
//! sections below). Pixel masks are checked against the unmasked frame
//! itself: a masked frame is the unmasked frame on its active pixels and
//! background elsewhere, and the foveated renderer's image is the blend of
//! unmasked per-level renders.

use metasapiens::fov::{FoveatedModel, FoveatedRenderer, LevelParams};
use metasapiens::hvs::{DisplayGeometry, EccentricityMap, QualityRegions};
use metasapiens::math::Vec3;
use metasapiens::render::{
    project_model_filtered, FrameArena, FrameRequest, Image, RasterKernel, RenderOptions,
    RenderOutput, Renderer, SceneRef, StageKind,
};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::{Camera, GaussianModel, SceneSource};

/// Worker counts the suite compares against the serial reference.
const THREAD_COUNTS: [usize; 4] = [2, 3, 8, 0];

fn scene() -> metasapiens::scene::synth::Scene {
    TraceId::by_name("kitchen")
        .unwrap()
        .build_scene_with_scale(0.004)
}

fn camera(s: &metasapiens::scene::synth::Scene) -> Camera {
    Camera {
        width: 160,
        height: 120,
        ..s.train_cameras[0]
    }
}

/// A frame restricted to the pixels where `mask` is true.
fn masked(r: &Renderer, model: &GaussianModel, cam: &Camera, mask: &[bool]) -> RenderOutput {
    r.render_with_arena(
        FrameRequest::masked(model, mask),
        cam,
        FrameArena::default(),
    )
    .0
}

/// A frame over the points `admit` keeps: projection evaluates the
/// predicate (concurrently, on sharded point ranges) and the frame starts
/// at Bin from the prefiltered splats.
fn prefiltered(
    r: &Renderer,
    model: &GaussianModel,
    cam: &Camera,
    admit: impl Fn(usize) -> bool + Sync,
) -> RenderOutput {
    let splats = project_model_filtered(model, cam, r.options(), admit);
    r.render_splats(model.len(), splats, None, cam, FrameArena::default())
        .0
}

/// Left half plus a sparse checkerboard: masked-out gaps inside 4-pixel
/// groups, fully inactive tiles and fully active ones.
fn structured_mask(cam: &Camera) -> Vec<bool> {
    (0..(cam.width * cam.height) as usize)
        .map(|i| {
            let (x, y) = (i as u32 % cam.width, i as u32 / cam.width);
            x < cam.width / 2 || (x + y) % 7 == 0
        })
        .collect()
}

fn opts(threads: usize) -> RenderOptions {
    RenderOptions {
        threads,
        track_point_stats: true,
        ..RenderOptions::default()
    }
}

/// Assert `par` is the same frame as `serial`, bit for bit: pixels, winner
/// buffers, headline stats, and the per-stage `FrameProfile` work counters
/// (profile equality already ignores wall times, which legitimately vary).
fn assert_bit_identical(par: &RenderOutput, serial: &RenderOutput, threads: usize) {
    assert_eq!(
        par.image, serial.image,
        "pixels differ at threads={threads}"
    );
    assert_eq!(
        par.winners, serial.winners,
        "winners differ at threads={threads}"
    );
    assert_eq!(par.stats, serial.stats, "stats differ at threads={threads}");
    for kind in [
        StageKind::Project,
        StageKind::Bin,
        StageKind::Merge,
        StageKind::Raster,
        StageKind::Composite,
    ] {
        assert_eq!(
            par.stats.profile.items(kind),
            serial.stats.profile.items(kind),
            "{} work counter differs at threads={threads}",
            kind.name()
        );
    }
}

#[test]
fn parallel_render_is_bit_identical_to_serial() {
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    for threads in THREAD_COUNTS {
        let par = Renderer::new(opts(threads)).render(&s.model, &cam);
        assert_bit_identical(&par, &serial, threads);
    }
}

#[test]
fn masked_parallel_render_is_bit_identical_to_serial() {
    let s = scene();
    let cam = camera(&s);
    let mask = structured_mask(&cam);
    let serial = masked(&Renderer::new(opts(1)), &s.model, &cam, &mask);
    for threads in THREAD_COUNTS {
        let par = masked(&Renderer::new(opts(threads)), &s.model, &cam, &mask);
        assert_bit_identical(&par, &serial, threads);
    }
}

#[test]
fn filtered_parallel_render_is_bit_identical_to_serial() {
    // The admission predicate is evaluated concurrently by projection
    // shards; sharding must not change which points are admitted or their
    // order.
    let s = scene();
    let cam = camera(&s);
    let admit = |i: usize| i % 3 != 1;
    let serial = prefiltered(&Renderer::new(opts(1)), &s.model, &cam, admit);
    for threads in THREAD_COUNTS {
        let par = prefiltered(&Renderer::new(opts(threads)), &s.model, &cam, admit);
        assert_bit_identical(&par, &serial, threads);
    }
}

#[test]
fn repeated_renders_are_reproducible() {
    // The whole pipeline (synthetic scene included) is deterministic: two
    // fresh end-to-end runs produce the same image.
    let sa = scene();
    let a = Renderer::new(opts(2)).render(&sa.model, &camera(&sa));
    let sb = scene();
    let b = Renderer::new(opts(2)).render(&sb.model, &camera(&sb));
    assert_eq!(a.image, b.image);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn profile_stages_present_regardless_of_threads() {
    let s = scene();
    let cam = camera(&s);
    for threads in [1usize, 4] {
        let out = Renderer::new(opts(threads)).render(&s.model, &cam);
        let kinds: Vec<StageKind> = out
            .stats
            .profile
            .samples
            .iter()
            .map(|smp| smp.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Project,
                StageKind::Bin,
                StageKind::Merge,
                StageKind::Raster,
                StageKind::Composite
            ],
            "stage graph must not depend on the worker count"
        );
    }
}

// ---------------------------------------------------------------------------
// Tile merging: the second determinism axis
// ---------------------------------------------------------------------------

/// A pulled-back view of the kitchen scene: the model shrinks into the
/// center tiles, leaving the sparse periphery that makes occupancy merging
/// actually coalesce super-tiles (the head-on test camera fills every tile
/// far too uniformly for any tile to drop below half the mean).
fn foveal_camera() -> Camera {
    use metasapiens::math::Vec3;
    Camera::look_at(160, 120, 60.0, Vec3::new(0.0, 0.0, 16.0), Vec3::zero())
}

fn merge_opts(threads: usize) -> RenderOptions {
    RenderOptions {
        threads,
        track_point_stats: true,
        ..RenderOptions::with_tile_merging()
    }
}

/// Assert a merged render is the same *frame* as an unmerged render:
/// pixels, winners, and every schedule-independent workload counter.
/// (`RenderStats` as a whole legitimately differs: the merged run records
/// the schedule in `tile_unit` and a different Merge work counter.)
fn assert_same_frame(merged: &RenderOutput, unmerged: &RenderOutput, label: &str) {
    assert_eq!(
        merged.image, unmerged.image,
        "merged pixels differ ({label})"
    );
    assert_eq!(
        merged.winners, unmerged.winners,
        "merged winners differ ({label})"
    );
    assert_eq!(
        merged.stats.tile_intersections, unmerged.stats.tile_intersections,
        "per-tile counts differ ({label})"
    );
    assert_eq!(merged.stats.blend_steps, unmerged.stats.blend_steps);
    assert_eq!(
        merged.stats.point_pixels_dominated,
        unmerged.stats.point_pixels_dominated
    );
    for kind in [StageKind::Project, StageKind::Bin, StageKind::Raster] {
        assert_eq!(
            merged.stats.profile.items(kind),
            unmerged.stats.profile.items(kind),
            "{} work counter differs ({label})",
            kind.name()
        );
    }
}

#[test]
fn merged_render_is_bit_identical_to_unmerged_across_threads() {
    let s = scene();
    let cam = foveal_camera();
    let unmerged = Renderer::new(opts(1)).render(&s.model, &cam);
    let merged_serial = Renderer::new(merge_opts(1)).render(&s.model, &cam);
    assert_same_frame(&merged_serial, &unmerged, "plain, threads=1");
    // The merged run actually merged something on this foveal scene.
    assert!(
        merged_serial.stats.work_unit_count() < merged_serial.stats.grid.tile_count(),
        "expected at least one super-tile merge"
    );
    for threads in THREAD_COUNTS {
        let merged = Renderer::new(merge_opts(threads)).render(&s.model, &cam);
        assert_bit_identical(&merged, &merged_serial, threads);
        assert_same_frame(&merged, &unmerged, "plain");
    }
}

#[test]
fn merged_masked_render_is_bit_identical_to_unmerged_across_threads() {
    let s = scene();
    let cam = foveal_camera();
    let mask = structured_mask(&cam);
    let unmerged = masked(&Renderer::new(opts(1)), &s.model, &cam, &mask);
    let merged_serial = masked(&Renderer::new(merge_opts(1)), &s.model, &cam, &mask);
    assert_same_frame(&merged_serial, &unmerged, "masked, threads=1");
    for threads in THREAD_COUNTS {
        let merged = masked(&Renderer::new(merge_opts(threads)), &s.model, &cam, &mask);
        assert_bit_identical(&merged, &merged_serial, threads);
        assert_same_frame(&merged, &unmerged, "masked");
    }
}

#[test]
fn merged_filtered_render_is_bit_identical_to_unmerged_across_threads() {
    let s = scene();
    let cam = foveal_camera();
    let admit = |i: usize| i % 3 != 1;
    let unmerged = prefiltered(&Renderer::new(opts(1)), &s.model, &cam, admit);
    let merged_serial = prefiltered(&Renderer::new(merge_opts(1)), &s.model, &cam, admit);
    assert_same_frame(&merged_serial, &unmerged, "filtered, threads=1");
    for threads in THREAD_COUNTS {
        let merged = prefiltered(&Renderer::new(merge_opts(threads)), &s.model, &cam, admit);
        assert_bit_identical(&merged, &merged_serial, threads);
        assert_same_frame(&merged, &unmerged, "filtered");
    }
}

// ---------------------------------------------------------------------------
// Raster kernels: the third determinism axis
// ---------------------------------------------------------------------------

fn kernel_opts(threads: usize, kernel: RasterKernel) -> RenderOptions {
    RenderOptions {
        raster_kernel: kernel,
        ..opts(threads)
    }
}

#[test]
fn simd_kernel_is_bit_identical_to_scalar_across_threads() {
    let s = scene();
    let cam = camera(&s);
    let scalar = Renderer::new(kernel_opts(1, RasterKernel::Scalar)).render(&s.model, &cam);
    for threads in [1, 2, 3, 8, 0] {
        let simd = Renderer::new(kernel_opts(threads, RasterKernel::Simd4)).render(&s.model, &cam);
        assert_bit_identical(&simd, &scalar, threads);
    }
}

#[test]
fn simd_kernel_masked_and_filtered_match_scalar() {
    let s = scene();
    let cam = camera(&s);
    let mask = structured_mask(&cam);
    let admit = |i: usize| i % 3 != 1;
    let scalar = Renderer::new(kernel_opts(1, RasterKernel::Scalar));
    let scalar_masked = masked(&scalar, &s.model, &cam, &mask);
    let scalar_filtered = prefiltered(&scalar, &s.model, &cam, admit);
    for threads in [1, 3] {
        let simd = Renderer::new(kernel_opts(threads, RasterKernel::Simd4));
        let simd_masked = masked(&simd, &s.model, &cam, &mask);
        assert_bit_identical(&simd_masked, &scalar_masked, threads);
        let filtered = prefiltered(&simd, &s.model, &cam, admit);
        assert_bit_identical(&filtered, &scalar_filtered, threads);
    }
}

#[test]
fn merged_simd_kernel_matches_unmerged_scalar_across_threads() {
    // Both axes at once: merged scheduling with the SIMD kernel must still
    // reproduce the unmerged scalar reference frame.
    let s = scene();
    let cam = foveal_camera();
    let scalar_unmerged =
        Renderer::new(kernel_opts(1, RasterKernel::Scalar)).render(&s.model, &cam);
    let simd_merged_serial = Renderer::new(RenderOptions {
        raster_kernel: RasterKernel::Simd4,
        ..merge_opts(1)
    })
    .render(&s.model, &cam);
    assert_same_frame(
        &simd_merged_serial,
        &scalar_unmerged,
        "simd4 merged, threads=1",
    );
    for threads in THREAD_COUNTS {
        let simd_merged = Renderer::new(RenderOptions {
            raster_kernel: RasterKernel::Simd4,
            ..merge_opts(threads)
        })
        .render(&s.model, &cam);
        assert_bit_identical(&simd_merged, &simd_merged_serial, threads);
        assert_same_frame(&simd_merged, &scalar_unmerged, "simd4 merged");
    }
}

#[test]
fn pertile_staging_is_bit_identical_to_scalar_across_threads() {
    // The pulled-back view leaves sparse peripheral tiles whose lists hold
    // splats that only graze the tile, so the per-tile admission cull
    // actually drops splats; what stays must still composite exactly as
    // the scalar kernel's full list walk does.
    let s = scene();
    let cam = foveal_camera();
    let scalar = Renderer::new(kernel_opts(1, RasterKernel::Scalar)).render(&s.model, &cam);
    for threads in [1, 2, 3, 8, 0] {
        let simd = Renderer::new(kernel_opts(threads, RasterKernel::Simd4)).render(&s.model, &cam);
        let work = simd.stats.profile.raster;
        assert!(
            work.splats_staged > 0 && work.splats_culled > 0,
            "staging must both admit and cull splats at threads={threads}: {work:?}"
        );
        assert_bit_identical(&simd, &scalar, threads);
    }
}

#[test]
fn pertile_staging_masked_and_merged_match_scalar() {
    // The SIMD kernel's per-tile staging under the two schedule shapes
    // that stress it — masked-out gaps inside 4-pixel groups and merged
    // super-tiles whose tiles each stage their own rows — against the
    // scalar kernel, which stages nothing.
    let s = scene();
    let cam = foveal_camera();
    let mask = structured_mask(&cam);
    let scalar_masked = masked(
        &Renderer::new(kernel_opts(1, RasterKernel::Scalar)),
        &s.model,
        &cam,
        &mask,
    );
    let scalar_merged = Renderer::new(RenderOptions {
        raster_kernel: RasterKernel::Scalar,
        ..merge_opts(1)
    })
    .render(&s.model, &cam);
    for threads in [1, 3] {
        let simd_masked = masked(
            &Renderer::new(kernel_opts(threads, RasterKernel::Simd4)),
            &s.model,
            &cam,
            &mask,
        );
        assert_bit_identical(&simd_masked, &scalar_masked, threads);
        let simd_merged = Renderer::new(RenderOptions {
            raster_kernel: RasterKernel::Simd4,
            ..merge_opts(threads)
        })
        .render(&s.model, &cam);
        assert_bit_identical(&simd_merged, &scalar_merged, threads);
    }
}

#[test]
fn raster_work_counters_are_deterministic_and_meaningful() {
    let s = scene();
    let cam = camera(&s);

    // SIMD staging: counters are per-tile quantities, so they must not
    // depend on the thread count or the work-unit schedule.
    let reference = Renderer::new(kernel_opts(1, RasterKernel::Simd4)).render(&s.model, &cam);
    let work = reference.stats.profile.raster;
    assert!(work.splats_staged > 0, "dense trace must stage splats");
    // Staged, culled and never-staged entries partition every tile's CSR
    // list; the tile early exit must actually leave list tails unstaged.
    assert_eq!(
        work.splats_staged + work.splats_culled + work.splats_unstaged,
        reference.stats.total_intersections,
        "staged + culled + unstaged must cover every CSR entry"
    );
    assert!(
        work.splats_unstaged > 0,
        "saturated tiles must stop staging before the end of their lists"
    );
    assert!(
        work.row_iterations > 0 && work.row_iterations < work.row_iteration_bound,
        "row-interval schedule must beat the rows × csr_len bound \
         ({} vs {})",
        work.row_iterations,
        work.row_iteration_bound
    );
    for threads in THREAD_COUNTS {
        let par = Renderer::new(kernel_opts(threads, RasterKernel::Simd4)).render(&s.model, &cam);
        assert_eq!(
            par.stats.profile.raster, work,
            "RasterWork differs at threads={threads}"
        );
    }
    let merged = Renderer::new(RenderOptions {
        raster_kernel: RasterKernel::Simd4,
        ..merge_opts(3)
    })
    .render(&s.model, &cam);
    assert_eq!(
        merged.stats.profile.raster, work,
        "RasterWork differs under tile merging"
    );
    // Masked frames partition their (mask-restricted) CSR lists the same
    // way; tiles whose active pixels sit only in gapped groups stage none.
    let renderer = Renderer::new(kernel_opts(1, RasterKernel::Simd4));
    let masked_frame = masked(&renderer, &s.model, &cam, &structured_mask(&cam));
    let masked_work = masked_frame.stats.profile.raster;
    assert_eq!(
        masked_work.splats_staged + masked_work.splats_culled + masked_work.splats_unstaged,
        masked_frame.stats.total_intersections,
        "masked: staged + culled + unstaged must cover every CSR entry"
    );

    // Scalar kernel: no staging runs at all — counters stay zero.
    let scalar = Renderer::new(kernel_opts(1, RasterKernel::Scalar)).render(&s.model, &cam);
    assert_eq!(
        scalar.stats.profile.raster,
        metasapiens::render::RasterWork::default()
    );
}

// ---------------------------------------------------------------------------
// Out-of-core chunking: the fourth determinism axis
// ---------------------------------------------------------------------------
//
// With LOD off, a chunked render must be bit-identical — pixels, winners,
// work counters — to the in-core render of the concatenated chunks, for
// every chunk size, across the other axes. Chunk sizes here are
// deliberately ragged (odd primes, not tile-aligned), so chunk boundaries
// split tile lists mid-stream.

/// Chunk sizes to sweep: a small odd prime (many ragged chunks, every tile
/// list split mid-stream) and roughly half the model (one mid-model split).
fn chunk_sizes(model_len: usize) -> [usize; 2] {
    assert!(model_len > 347, "scene too small for the chunk sweep");
    [347, model_len / 2 + 1]
}

#[test]
fn chunked_render_is_bit_identical_to_in_core_across_threads() {
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    for chunk_splats in chunk_sizes(s.model.len()) {
        let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
        assert!(source.chunk_count() >= 2, "chunk sweep must actually chunk");
        for threads in [1, 2, 3, 8, 0] {
            let chunked = Renderer::new(opts(threads)).render_source(&source, &cam);
            assert_bit_identical(&chunked, &serial, threads);
            assert_eq!(
                chunked.stats.profile, serial.stats.profile,
                "chunked profile (kind, items) differs at chunk_splats={chunk_splats}, \
                 threads={threads}"
            );
        }
    }
}

#[test]
fn chunked_render_matches_in_core_across_merging_kernels_and_staging() {
    // The chunk axis crossed with the others: merged/unmerged × scalar and
    // simd4 (whose per-tile staging runs over the chunk-built bins),
    // chunked vs in-core per configuration.
    let s = scene();
    let cam = foveal_camera();
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
    for merge in [false, true] {
        for kernel in [RasterKernel::Scalar, RasterKernel::Simd4] {
            let o = RenderOptions {
                raster_kernel: kernel,
                ..if merge { merge_opts(3) } else { opts(3) }
            };
            let renderer = Renderer::new(o);
            let in_core = renderer.render(&s.model, &cam);
            let chunked = renderer.render_source(&source, &cam);
            assert_bit_identical(&chunked, &in_core, 3);
            assert_eq!(
                chunked.stats.profile, in_core.stats.profile,
                "profile differs (merge={merge}, {kernel:?})"
            );
            assert_eq!(
                chunked.stats.profile.raster, in_core.stats.profile.raster,
                "RasterWork differs (merge={merge}, {kernel:?})"
            );
        }
    }
}

#[test]
fn masked_chunked_render_matches_masked_in_core() {
    // A pixel mask filters the streamed Bin's tiles exactly like the
    // in-core Bin's: the masked chunked frame is the masked in-core frame.
    let s = scene();
    let cam = camera(&s);
    let mask = structured_mask(&cam);
    let source =
        metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_sizes(s.model.len())[0]);
    for threads in [1, 3] {
        let renderer = Renderer::new(opts(threads));
        let in_core = masked(&renderer, &s.model, &cam, &mask);
        let (chunked, _) = renderer.render_with_arena(
            FrameRequest::masked(SceneRef::Chunked(&source), &mask),
            &cam,
            FrameArena::default(),
        );
        assert_bit_identical(&chunked, &in_core, threads);
        assert_eq!(chunked.stats.profile, in_core.stats.profile);
    }
}

#[test]
fn chunked_file_source_round_trips_bit_identically() {
    // The real out-of-core impl: encode the model into the multi-chunk
    // container, reopen it from bytes, and render from it — still the
    // in-core frame, bit for bit.
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let encoded = metasapiens::scene::encode_model_chunked(&s.model, chunk_splats);
    let source = metasapiens::scene::ChunkedFileSource::from_bytes(encoded.to_vec())
        .expect("container decodes");
    assert!(source.chunk_count() >= 2);
    for threads in [1, 3] {
        let chunked = Renderer::new(opts(threads)).render_source(&source, &cam);
        assert_bit_identical(&chunked, &serial, threads);
    }
}

#[test]
fn chunked_scratch_peak_is_bounded_by_chunk_not_model() {
    // The memory claim the chunked pipeline exists for, asserted via the
    // new FrameProfile counters: projected-splat scratch residency scales
    // with the chunk size, not the model size.
    use metasapiens::render::ProjectedSplat;
    let s = scene();
    let cam = camera(&s);
    let in_core = Renderer::new(opts(1)).render(&s.model, &cam);
    let splat_bytes = std::mem::size_of::<ProjectedSplat>() as u64;
    assert_eq!(
        in_core.stats.profile.projected_bytes_peak,
        in_core.stats.points_projected as u64 * splat_bytes
    );
    assert_eq!(in_core.stats.profile.chunk_bytes_peak, 0);
    let mut last_peak = u64::MAX;
    for chunk_splats in [s.model.len() / 2 + 1, 347] {
        let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
        let chunked = Renderer::new(opts(3)).render_source(&source, &cam);
        let p = &chunked.stats.profile;
        assert!(p.projected_bytes_peak <= chunk_splats as u64 * splat_bytes);
        assert!(p.projected_bytes_peak < in_core.stats.profile.projected_bytes_peak);
        assert!(p.chunk_bytes_peak > 0);
        // Halving the chunk size must shrink the peak monotonically.
        assert!(p.projected_bytes_peak < last_peak);
        last_peak = p.projected_bytes_peak;
        // Deterministic per configuration: an identical run reproduces the
        // exact peaks.
        let again = Renderer::new(opts(3)).render_source(&source, &cam);
        assert_eq!(
            again.stats.profile.projected_bytes_peak,
            p.projected_bytes_peak
        );
        assert_eq!(again.stats.profile.chunk_bytes_peak, p.chunk_bytes_peak);
    }
}

// ---------------------------------------------------------------------------
// Chunk cache: the chunked axis's budget dimension
// ---------------------------------------------------------------------------
//
// The cross-frame chunk cache must change *where* chunk bytes come from,
// never what a frame computes: for every cache budget — disabled, exactly
// one chunk, unbounded — a cached chunked render must be bit-identical to
// the uncached one, and both to the in-core reference, for every chunk
// size and thread count. Renderers are reused across frames so later
// frames exercise warm-cache replay, not just the intra-frame hits.

#[test]
fn cached_chunked_render_is_bit_identical_across_budgets() {
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    for chunk_splats in chunk_sizes(s.model.len()) {
        let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
        let one_chunk_bytes = {
            let mut probe = metasapiens::scene::GaussianModel::new(0);
            s.model.clone_range_into(0..chunk_splats, &mut probe);
            probe.storage_bytes()
        };
        for budget in [0, one_chunk_bytes, usize::MAX] {
            for threads in [1, 2, 3, 8, 0] {
                let o = RenderOptions {
                    cache_budget_bytes: Some(budget),
                    ..opts(threads)
                };
                let renderer = Renderer::new(o);
                // Two frames from one renderer: the first populates the
                // cache (budget permitting), the second replays it.
                let first = renderer.render_source(&source, &cam);
                let second = renderer.render_source(&source, &cam);
                for out in [&first, &second] {
                    assert_bit_identical(out, &serial, threads);
                    // Profile equality (kind, items pairs) must hold too:
                    // cache traffic is excluded from it by design.
                    assert_eq!(
                        out.stats.profile, serial.stats.profile,
                        "profile differs at chunk_splats={chunk_splats}, \
                         budget={budget}, threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn cached_chunked_render_matches_across_kernels_and_staging() {
    // The cache axis crossed with kernel selection (and so with the SIMD
    // kernel's staging), warm and cold: per configuration, in-core,
    // cold-cache chunked and warm-cache chunked must all be the same frame.
    let s = scene();
    let cam = foveal_camera();
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
    for kernel in [RasterKernel::Scalar, RasterKernel::Simd4] {
        let o = RenderOptions {
            raster_kernel: kernel,
            cache_budget_bytes: Some(usize::MAX),
            ..opts(3)
        };
        let renderer = Renderer::new(o);
        let in_core = renderer.render(&s.model, &cam);
        let cold = renderer.render_source(&source, &cam);
        let warm = renderer.render_source(&source, &cam);
        assert_bit_identical(&cold, &in_core, 3);
        assert_bit_identical(&warm, &in_core, 3);
        assert_eq!(
            warm.stats.profile, in_core.stats.profile,
            "profile differs ({kernel:?})"
        );
    }
}

#[test]
fn cached_chunked_frames_reuse_decodes_across_frames() {
    // The cache's contract in counters: with an unbounded budget, frame 1
    // misses every chunk once (the count pass) and hits it once (the
    // scatter pass — the double decode the cache eliminates); frame 2 from
    // the same renderer never decodes at all.
    let s = scene();
    let cam = camera(&s);
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
    let n = source.chunk_count() as u64;
    let renderer = Renderer::new(RenderOptions {
        cache_budget_bytes: Some(usize::MAX),
        ..opts(3)
    });
    let first = renderer.render_source(&source, &cam);
    let c1 = first.stats.profile.cache;
    assert_eq!(c1.misses, n, "count pass decodes every chunk once");
    assert_eq!(c1.hits, n, "scatter pass hits every chunk");
    assert_eq!(c1.evictions, 0);
    assert!((c1.hit_rate() - 0.5).abs() < 1e-9);
    let second = renderer.render_source(&source, &cam);
    let c2 = second.stats.profile.cache;
    assert_eq!(c2.misses, 0, "a warm renderer never re-decodes");
    assert_eq!(c2.hits, 2 * n);
    assert_eq!(first.image, second.image);

    // Budget 0 is pass-through: every access is a miss, twice per chunk.
    let renderer = Renderer::new(RenderOptions {
        cache_budget_bytes: Some(0),
        ..opts(3)
    });
    let uncached = renderer.render_source(&source, &cam);
    let c0 = uncached.stats.profile.cache;
    assert_eq!(c0.hits, 0);
    assert_eq!(c0.misses, 2 * n);
    assert_eq!(c0.resident_bytes_peak, 0);
    assert_eq!(uncached.image, first.image);
}

#[test]
fn merging_reduces_work_units_and_imbalance() {
    // The §4.3 claim at the renderer level: fewer, better-balanced work
    // units on a foveal (center-heavy) frame, with identical pixels.
    let s = scene();
    let cam = foveal_camera();
    let merged = Renderer::new(merge_opts(1)).render(&s.model, &cam);
    let units = merged.stats.work_unit_count();
    assert!(units > 0 && units < merged.stats.grid.tile_count());
    let post = merged
        .stats
        .unit_imbalance_ratio()
        .expect("merged run records a schedule");
    let pre = merged.stats.imbalance_ratio();
    assert!(
        post < pre,
        "per-unit imbalance {post} must undercut per-tile {pre}"
    );
}

// ---------------------------------------------------------------------------
// Pixel masks: checked against the unmasked frame
// ---------------------------------------------------------------------------
//
// Masked frames are compared with unmasked `render` calls, not with other
// masked frames, across threads × kernels × merging: a mask only decides
// which pixels are computed, never what an active pixel computes.

/// Whether two colors are the same `f32` bits (`-0.0 != 0.0`, NaN payloads
/// compared too).
fn same_bits(a: Vec3, b: Vec3) -> bool {
    a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.z.to_bits() == b.z.to_bits()
}

/// Options of one cell of the mask sweep: `threads` × `kernel` × merging,
/// with a non-black background so "background elsewhere" is observable.
fn mask_sweep_opts(threads: usize, kernel: RasterKernel, merge: bool) -> RenderOptions {
    RenderOptions {
        raster_kernel: kernel,
        background: Vec3::new(0.25, 0.5, 0.75),
        ..if merge {
            merge_opts(threads)
        } else {
            opts(threads)
        }
    }
}

/// Every cell of the mask sweep.
fn mask_sweep() -> Vec<(usize, RasterKernel, bool)> {
    let mut cells = Vec::new();
    for threads in [1, 3] {
        for kernel in [RasterKernel::Scalar, RasterKernel::Simd4] {
            for merge in [false, true] {
                cells.push((threads, kernel, merge));
            }
        }
    }
    cells
}

#[test]
fn masked_frame_equals_unmasked_render_on_active_pixels() {
    let s = scene();
    let cam = foveal_camera();
    // The structured mask with its bottom-right quadrant cleared, so some
    // tiles hold no active pixel at all and are skipped at Bin.
    let mask: Vec<bool> = structured_mask(&cam)
        .into_iter()
        .enumerate()
        .map(|(i, active)| {
            let (x, y) = (i as u32 % cam.width, i as u32 / cam.width);
            active && !(x >= cam.width / 2 && y >= cam.height / 2)
        })
        .collect();
    for (threads, kernel, merge) in mask_sweep() {
        let o = mask_sweep_opts(threads, kernel, merge);
        let background = o.background;
        let renderer = Renderer::new(o);
        let full = renderer.render(&s.model, &cam);
        let part = masked(&renderer, &s.model, &cam, &mask);
        let label = format!("threads={threads}, {kernel:?}, merge={merge}");
        for (i, &active) in mask.iter().enumerate() {
            let (x, y) = (i as u32 % cam.width, i as u32 / cam.width);
            let (got, want) = (part.image.pixel(x, y), full.image.pixel(x, y));
            if active {
                assert!(
                    same_bits(got, want),
                    "active pixel ({x}, {y}) differs ({label}): {got:?} vs {want:?}"
                );
                assert_eq!(part.winners[i], full.winners[i], "winner {i} ({label})");
            } else {
                assert!(
                    same_bits(got, background),
                    "masked-out pixel ({x}, {y}) is not background ({label})"
                );
                assert_eq!(part.winners[i], u32::MAX, "winner {i} ({label})");
            }
        }
        // Masking skips work: inactive tiles are never binned.
        assert!(part.stats.total_intersections < full.stats.total_intersections);
    }
}

/// A foveated model over the kitchen scene whose levels genuinely differ:
/// point `i` survives up to level `i % levels`, and each level dims
/// opacity and shifts the DC color. Two groups of points probe the
/// shared-projection hazards:
/// * every 5th point is nearly transparent in the base (below
///   `alpha_min`) but keeps its full opacity on levels ≥ 1, so a shared
///   projection that culled on base opacity would lose it there;
/// * every 3rd point's level DC equals its base DC bit for bit.
fn foveated_model(model: &GaussianModel) -> FoveatedModel {
    let regions = QualityRegions::paper_default();
    let levels = regions.level_count();
    let n = model.len();
    let alpha_min = RenderOptions::default().alpha_min;
    let params = (1..levels)
        .map(|l| LevelParams {
            opacity: model
                .opacities
                .iter()
                .map(|&o| o * (1.0 - 0.15 * l as f32))
                .collect(),
            dc: (0..n)
                .map(|i| {
                    let sh = model.sh(i);
                    if i % 3 == 0 {
                        [sh[0], sh[1], sh[2]]
                    } else {
                        [sh[0] + 0.1 * l as f32, sh[1], sh[2] - 0.1 * l as f32]
                    }
                })
                .collect(),
        })
        .collect();
    let mut base = model.clone();
    for o in base.opacities.iter_mut().step_by(5) {
        *o = alpha_min * 0.5;
    }
    let bounds = (0..n).map(|i| (i % levels) as u8).collect();
    FoveatedModel::new(base, bounds, params, regions)
}

/// The reference model of level `l` under LOD stride `lod`: the level's
/// points whose *base* index is a multiple of `lod`, with opacity scaled by
/// `lod` (clamped to 1), on levels ≥ 1. `lod <= 1` is the level itself.
fn lod_level_model(fm: &FoveatedModel, l: usize, lod: usize) -> GaussianModel {
    let level = fm.level_model(l);
    if l == 0 || lod <= 1 {
        return level;
    }
    let base_index: Vec<usize> = (0..fm.base().len())
        .filter(|&i| fm.quality_bounds()[i] as usize >= l)
        .collect();
    let kept: Vec<usize> = (0..level.len())
        .filter(|&j| base_index[j] % lod == 0)
        .collect();
    let mut coarse = level.subset(&kept);
    for o in &mut coarse.opacities {
        *o = (*o * lod as f32).min(1.0);
    }
    coarse
}

#[test]
fn foveated_render_equals_blend_of_unmasked_level_renders() {
    let s = scene();
    // A wide VR-like field of view so every eccentricity region (and every
    // blend band between them) is on screen.
    let cam = Camera {
        width: 128,
        height: 96,
        fovy: metasapiens::math::deg_to_rad(74.0),
        ..s.train_cameras[0]
    };
    let fm = foveated_model(&s.model);
    let gaze = metasapiens::math::Vec2::new(50.0, 40.0);
    let display = DisplayGeometry::new(
        cam.width,
        cam.height,
        metasapiens::math::rad_to_deg(cam.fovx()),
    );
    let ecc = EccentricityMap::new(display, gaze);
    let regions = fm.regions();
    let levels = fm.level_count();
    // Each level's pixel mask: its own region plus the blend band leading
    // into it from the previous region.
    let level_masks: Vec<Vec<bool>> = (0..levels)
        .map(|l| {
            (0..cam.width * cam.height)
                .map(|i| {
                    let (pl, w) = regions.blend_toward_next(ecc.at(i % cam.width, i / cam.width));
                    pl == l || (l >= 1 && pl == l - 1 && w > 0.0)
                })
                .collect()
        })
        .collect();
    for lod in [0, 4] {
        let references: Vec<GaussianModel> =
            (0..levels).map(|l| lod_level_model(&fm, l, lod)).collect();
        for (threads, kernel, merge) in mask_sweep() {
            let o = RenderOptions {
                lod,
                ..mask_sweep_opts(threads, kernel, merge)
            };
            let fov = FoveatedRenderer::new(o.clone()).render(&fm, &cam, Some(gaze));
            let renderer = Renderer::new(o);
            let level_images: Vec<Image> = references
                .iter()
                .map(|m| renderer.render(m, &cam).image)
                .collect();
            let label = format!("lod={lod}, threads={threads}, {kernel:?}, merge={merge}");
            for (l, (m, mask)) in references.iter().zip(&level_masks).enumerate() {
                let want = masked(&renderer, m, &cam, mask).stats;
                let got = &fov.per_level_stats[l];
                assert_eq!(
                    got.tile_intersections, want.tile_intersections,
                    "level {l} ({label})"
                );
                assert_eq!(got.blend_steps, want.blend_steps, "level {l} ({label})");
                assert_eq!(
                    got.points_projected, want.points_projected,
                    "level {l} ({label})"
                );
            }
            let mut levels_seen = vec![false; levels];
            let mut blended = 0usize;
            for y in 0..cam.height {
                for x in 0..cam.width {
                    let (l, w) = regions.blend_toward_next(ecc.at(x, y));
                    levels_seen[l] = true;
                    let want = if w > 0.0 && l + 1 < levels {
                        blended += 1;
                        level_images[l]
                            .pixel(x, y)
                            .lerp(level_images[l + 1].pixel(x, y), w)
                    } else {
                        level_images[l].pixel(x, y)
                    };
                    let got = fov.image.pixel(x, y);
                    assert!(
                        same_bits(got, want),
                        "foveated pixel ({x}, {y}) differs ({label}): {got:?} vs {want:?}"
                    );
                }
            }
            assert!(
                levels_seen.iter().all(|&seen| seen),
                "every level must own pixels ({label})"
            );
            assert!(blended > 0, "blend bands must be on screen ({label})");
            assert_eq!(fov.blended_pixels, blended, "{label}");
        }
    }
}
