//! Two-rank distributed smoke run exercising the full observability path:
//! per-rank span trees folded to the paper's four buckets, per-step traffic
//! deltas, JSONL round-trip of every event, and the run report renderer.

use vlasov6d::dist_sim::DistributedVlasov;
use vlasov6d::StepRecord;
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::Universe;
use vlasov6d_obs::{RunReport, StepEvent, Stopwatch};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
    let sx = (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
    0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
}

#[test]
fn two_rank_run_emits_consistent_jsonl_telemetry() {
    let sglobal = [8usize, 8, 8];
    let vg = VelocityGrid::cubic(8, 0.6);
    let steps = 3usize;

    // Each rank returns its JSONL lines; rank 0 would merge them in a real
    // driver — here the test harness plays that role.
    let (lines_per_rank, traffic) = Universe::run_with_traffic(2, move |comm| {
        let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
        let off = decomp.local_offset(comm.rank());
        let dims = decomp.local_dims(comm.rank());
        let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
        local.fill_with(fill);
        let bg = Background::new(CosmologyParams::planck2015());
        let mut sim = DistributedVlasov::new(comm, local, bg, 0.2, 1.0);

        let mut lines = Vec::new();
        for step in 0..steps {
            let mark = comm.traffic().clone_snapshot();
            let wall = Stopwatch::start();
            let (_a2, dt, telemetry) = sim.step_traced(comm);
            let wall = wall.elapsed_secs();

            // `timers` is the span tree's bucket fold (the wall-clock bound
            // below is the non-trivial coverage check).
            let fold = telemetry.spans.buckets.total();
            assert_eq!(fold, telemetry.timers.total());
            // Spans must cover the step: nothing substantial outside them
            // (gravity, dt control, kicks and drift wrap the whole body),
            // and folded time can never exceed the wall clock.
            assert!(fold <= wall * 1.001, "fold {fold} > wall {wall}");
            assert!(fold >= 0.5 * wall, "spans cover only {fold} of {wall} s");

            // Expected structure: one gravity solve (plus the cache-filling
            // one on the first step), one drift, one kick (the trailing half
            // kick stays pending and runs inside the next step's).
            let names: Vec<&str> = telemetry
                .spans
                .roots
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                names.iter().filter(|n| **n == "gravity").count(),
                if step == 0 { 2 } else { 1 },
                "roots: {names:?}"
            );
            assert!(names.contains(&"drift"), "roots: {names:?}");
            assert_eq!(names.iter().filter(|n| **n == "kick").count(), 1);
            // The distributed sweep nests inside the drift span, and the
            // Poisson solve inside gravity.
            let drift = telemetry
                .spans
                .roots
                .iter()
                .find(|s| s.name == "drift")
                .unwrap();
            assert!(drift.find("sweep.dist.x").is_some());
            let gravity = telemetry
                .spans
                .roots
                .iter()
                .find(|s| s.name == "gravity")
                .unwrap();
            assert!(gravity.find("poisson.dist_solve").is_some());
            assert!(gravity.find("fft.pencil.forward").is_some());

            // Per-step traffic interval for this universe.
            let delta = comm.traffic().diff(&mark);
            assert!(
                delta.total_bytes() > 0,
                "a distributed step must communicate"
            );
            let event = sim.step_event(comm, dt, &telemetry, Some(&delta));
            assert_eq!(event.rank, comm.rank());
            assert!(event.nu_mass > 0.0);
            lines.push(event.to_jsonl());
        }
        lines
    });

    // Ghost exchanges are symmetric: both ranks sent and received.
    assert!(traffic.bytes_sent_by(0) > 0 && traffic.bytes_received_by(0) > 0);
    assert!(
        (traffic.imbalance() - 1.0).abs() < 0.2,
        "2-rank slab should be near-balanced"
    );

    // Merge all ranks' lines into a report, round-tripping through JSONL.
    let mut report = RunReport::new();
    for lines in &lines_per_rank {
        assert_eq!(lines.len(), steps);
        for line in lines {
            let event = StepEvent::parse(line).expect("every emitted line parses");
            // Both ranks agree on the allreduced conservation diagnostics.
            let sibling = StepEvent::parse(&lines_per_rank[0][(event.step - 1) as usize]).unwrap();
            assert!((event.nu_mass - sibling.nu_mass).abs() < 1e-12);
            report.add(event);
        }
    }
    assert_eq!(report.len(), 2 * steps);
    assert_eq!(report.step_count(), steps);

    // The report renders the Table 3/4-style decomposition, hotspots and
    // the per-rank imbalance summary.
    let text = report.render();
    assert!(text.contains("wall-clock decomposition"));
    assert!(text.contains("Vlasov solver"));
    assert!(text.contains("hotspots"));
    assert!(text.contains("load imbalance (max/mean)"));
    assert!(report.load_imbalance() >= 1.0);

    // Per-rank traffic metrics made it into the events.
    let event = StepEvent::parse(&lines_per_rank[1][0]).unwrap();
    let names: Vec<&str> = event.metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"comm.sent_bytes"));
    assert!(names.contains(&"comm.recv_bytes"));
    assert!(names.contains(&"comm.msg_size_bytes"));
    // The run's first step, and only that one, says which entry of the lane
    // kernels this host's CPU selected.
    assert!(lines_per_rank[1][0].contains(r#""kernel.isa":{"kind":"text""#));
    assert!(!lines_per_rank[1][1].contains("kernel.isa"));
    assert!(names.contains(&"comm.imbalance"));
}

#[test]
fn serial_records_export_like_distributed_events() {
    // The serial driver's StepRecord and the distributed StepEvent meet in
    // the same JSONL schema — a merged report can hold both.
    let record = StepRecord {
        step: 1,
        a: 0.25,
        dt: 0.01,
        timers: Default::default(),
        spans: Vec::new(),
        metrics: Vec::new(),
        nu_mass: 0.05,
        f_min: 0.0,
        momentum: [0.0; 3],
    };
    let mut report = RunReport::new();
    report
        .add_jsonl_line(&record.to_event(0).to_jsonl())
        .unwrap();
    assert_eq!(report.step_count(), 1);
}
