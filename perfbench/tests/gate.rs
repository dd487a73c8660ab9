//! The correctness gate fires, and a seed fixes the workload.
//!
//! Every test runs the reduced [`Config::small`] inputs; run with
//! `cargo test --release` for speed.

use ms_scene::{FailingSource, FailureMode, SceneSource};
use perfbench::foveated::FoveatedGaze;
use perfbench::served::{ServedStream, SourceWrap};
use perfbench::{setup, Config, Tally, Workload, WORKLOADS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `w` until it has attempted at least `frames` frames.
fn run_frames(w: &mut dyn Workload, frames: u64) -> Tally {
    let mut tally = Tally::default();
    while tally.attempted < frames {
        assert!(w.run_until(Instant::now() + Duration::from_millis(1), &mut tally));
    }
    tally
}

/// Frames that cover every distinct pose of `name` three times over.
fn covering(cfg: &Config, name: &str) -> u64 {
    3 * match name {
        "foveated_gaze" => cfg.fov_frames,
        _ => cfg.sessions * cfg.session_poses,
    } as u64
}

#[test]
fn every_workload_matches_its_references() {
    let cfg = Config::small();
    for name in WORKLOADS {
        let mut w = setup(name, &cfg, 5).unwrap();
        assert!(w.warmup().attempted > 0, "{name}: warm-up checks frames");
        assert_eq!(w.warmup().failed, 0, "{name}: warm-up");
        let tally = run_frames(w.as_mut(), covering(&cfg, name));
        assert_eq!(tally.failed, 0, "{name}: timed frames");
        assert_eq!(tally.completed() as u64, tally.attempted, "{name}");
    }
}

#[test]
fn a_perturbed_reference_is_caught() {
    let cfg = Config::small();
    for name in WORKLOADS {
        let mut w = setup(name, &cfg, 5).unwrap();
        w.perturb_reference();
        let tally = run_frames(w.as_mut(), covering(&cfg, name));
        assert!(
            tally.failed > 0,
            "{name}: a one-bit change must fail a frame"
        );
        assert!(tally.completed() > 0, "{name}: other frames still pass");
    }
}

#[test]
fn a_transient_source_fault_fails_one_session_only() {
    let cfg = Config::small();
    let wrap: SourceWrap = Box::new(|file| {
        let faulty: Arc<dyn SceneSource + Send + Sync> =
            Arc::new(FailingSource::transient(file, 1, FailureMode::Error, 1));
        faulty
    });
    let mut w = ServedStream::setup(&cfg, 5, Some(wrap));
    let tally = run_frames(&mut w, covering(&cfg, "served_stream"));
    let failed = w.warmup().failed + tally.failed;
    let attempted = w.warmup().attempted + tally.attempted;
    assert!(failed > 0, "the fault shows in the failed frame ratio");
    assert!(
        failed <= cfg.in_flight as u64,
        "only the faulting session's frames in flight fail, got {failed}"
    );
    assert!(attempted - failed > 0);
    assert_eq!(tally.completed() as u64 + tally.failed, tally.attempted);
}

#[test]
fn a_seed_fixes_the_deterministic_counts() {
    let cfg = Config::small();
    let f = FoveatedGaze::setup(&cfg, 11);
    let g = FoveatedGaze::setup(&cfg, 11);
    assert_eq!(f.counts().blended_pixels, g.counts().blended_pixels);
    assert!(f.counts().blended_pixels > 0.0);
    let h = FoveatedGaze::setup(&cfg, 12);
    assert_ne!(f.frames(), h.frames(), "another seed moves poses and gaze");

    let s = ServedStream::setup(&cfg, 11, None);
    let t = ServedStream::setup(&cfg, 11, None);
    assert_eq!(s.resident_peaks().0, t.resident_peaks().0);
    assert!(s.resident_peaks().0 > 0);
    assert_eq!(s.counts().tile_intersections, t.counts().tile_intersections);
    assert_eq!(s.counts().blend_steps, t.counts().blend_steps);
    assert!(s.counts().tile_intersections > 0.0);
    let u = ServedStream::setup(&cfg, 12, None);
    assert_ne!(s.client_cameras(), u.client_cameras());
}
