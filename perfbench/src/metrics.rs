//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit, in the order `BENCHMARK.json` lists them.

/// A metric name and its unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 5] = [
    ("fps", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). Every
/// traced run reports all of them; a layer the workload does not call
/// reads 0.
pub const PER_LAYER: [Metric; 34] = [
    // ms_render: RenderStats counts of the served frames (served_stream).
    ("render.points_projected", "count"),
    ("render.tile_intersections", "count"),
    ("render.blend_steps", "count"),
    ("render.work_units", "count"),
    ("render.unit_imbalance", "ratio"),
    ("render.raster.splats_staged", "count"),
    ("render.raster.row_iteration_ratio", "ratio"),
    // ms_fov (foveated_gaze).
    ("fov.render_ms", "ms"),
    ("fov.levels_project_ms", "ms"),
    ("fov.levels_raster_ms", "ms"),
    ("fov.self_ms", "ms"),
    ("fov.points_projected_sum", "count"),
    ("fov.tile_intersections", "count"),
    ("fov.blended_pixels", "count"),
    // ms_scene::io and the chunk cache (served_stream).
    ("io.decode_ms", "ms/frame"),
    ("io.decode_calls", "1/frame"),
    ("io.decoded_mib", "MiB/frame"),
    ("io.chunk_bytes_peak", "bytes"),
    ("io.projected_bytes_peak", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "1/frame"),
    ("cache.resident_peak_mib", "MiB"),
    // ms_serve (served_stream).
    ("serve.step_ms", "ms"),
    ("serve.step_self_ms", "ms"),
    ("serve.steps_per_frame", "ratio"),
    ("serve.service_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.session_fps_min", "1/s"),
    ("stream.project_ms", "ms"),
    ("stream.bin_ms", "ms"),
    ("stream.raster_ms", "ms"),
    // Harness, every workload.
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_frames", "count"),
    ("trace.untraced_frames", "count"),
];
