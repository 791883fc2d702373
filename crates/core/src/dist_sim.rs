//! Distributed (multi-rank) Vlasov–Poisson driver.
//!
//! The full distributed code path of the paper's Vlasov side, end to end on
//! the `mpisim` runtime: slab-decomposed distribution function, ghost-plane
//! exchange for the spatial sweeps, rank-local moments (velocity space is
//! never decomposed — §5.1.3), a distributed FFT Poisson solve, and a
//! potential-plane exchange for the force stencil.
//!
//! The field solve is the force law's [`FieldSolver`] over the ranked
//! backend [`DistPoisson`]. A periodic law's source mean is one x-plane-
//! ordered sum, the same additions at any rank count; an isolated law
//! allgathers the density slabs and solves the whole grid on every rank.
//! Both gather with the `Comm::allgather` collective.
//!
//! The decomposition is a slab along x (matching the `P × 1` pencil grid of
//! `vlasov6d-poisson::dist`);
//! the CDM particles stay with the serial driver (particle exchange is not
//! modelled — the scaling study covers the tree part analytically). A
//! ν-only distributed run is exactly the "Vlasov part" whose weak scaling
//! the paper reports at 94–99 %.

use crate::diagnostics::StepTimers;
use crate::diagnostics::{dt_metrics, kernel_isa_metric, kernel_shape_metric};
use crate::scenario::dynamics::{Dynamics, FieldSolver};
use crate::strang;
use std::cell::{Cell, OnceCell};
use vlasov6d_advection::line::Scheme;
use vlasov6d_ckpt::{CheckpointPolicy, CheckpointStore, CkptError, CkptStats};
use vlasov6d_cosmology::Background;
use vlasov6d_mesh::stencil::{self, GradientOrder};
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{cart_neighbor_edges, Cart3, Comm, CommPlan, PlanChecks, Traffic};
use vlasov6d_obs::metrics::MetricValue;
use vlasov6d_obs::{span, Bucket, StepEvent, StepScope, StepSpans};
use vlasov6d_phase_space::exchange::{
    ghost_exchange_plan, ghost_exchange_split_plan, sweep_spatial_distributed,
    sweep_spatial_overlapped, GHOST_WIDTH,
};
use vlasov6d_phase_space::{moments, Exec, PhaseSpace};
use vlasov6d_poisson::{DistPoisson, PoissonSolver};

/// How the drift's axis-0 ghost exchange is scheduled against the sweep.
///
/// Both policies are bitwise-identical by construction (the differential
/// suite in `tests/distributed_consistency.rs` enforces it), so the
/// synchronous path doubles as the oracle for the overlapped one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapPolicy {
    /// Blocking exchange, then the full sweep — the oracle path.
    #[default]
    Synchronous,
    /// Split-phase exchange hidden behind the interior sweep
    /// ([`sweep_spatial_overlapped`]); only the boundary pencils wait.
    Overlapped,
}

/// Per-rank state of a distributed ν-only simulation.
pub struct DistributedVlasov {
    /// This rank's block of the distribution function.
    pub ps: PhaseSpace,
    pub background: Background,
    pub a: f64,
    pub omega_component: f64,
    /// The force law's field solver, built on first use — after
    /// [`DistributedVlasov::with_dynamics`] has had its say.
    field: OnceCell<FieldSolver<DistPoisson>>,
    decomp: Decomp3,
    /// `−∇φ` on this rank's slab from the last solve; filled by the first
    /// step, or by a resume from the checkpoint's force meshes.
    force: Option<[Field3; 3]>,
    scheme: Scheme,
    /// Which force law / time axis the run integrates (default: the paper's
    /// comoving cosmological gravity).
    dynamics: Dynamics,
    exec: Exec,
    /// CFL caps (spatial must stay < 1 for the ghost width).
    pub cfl_spatial: f64,
    pub max_dln_a: f64,
    tag_counter: Cell<u64>,
    step_index: u64,
    /// Steps this process has taken (`step_index` also counts those before
    /// a resume): the first one's event carries the once-per-run metrics.
    run_steps: u64,
    verify_plans: bool,
    overlap: OverlapPolicy,
    trace_capacity: Option<usize>,
}

/// Per-rank timing record of one distributed step: the structured span tree
/// plus its per-bucket totals.
#[derive(Debug, Clone)]
pub struct StepTelemetry {
    /// Hierarchical span tree recorded on this rank during the step.
    pub spans: StepSpans,
    /// The paper-style bucket decomposition (a copy of `spans.buckets`).
    pub timers: StepTimers,
    /// This rank's drained flight-recorder events, when tracing was enabled
    /// via [`DistributedVlasov::with_tracing`] (`None` otherwise). Serialise
    /// with `RankStepTrace::to_jsonl` next to the step's `StepEvent` line.
    pub trace: Option<vlasov6d_obs::trace::RankStepTrace>,
    /// Which bound of the Δt controller set the step: `max_step`, `spatial`
    /// or `velocity` (the event's `dt.limiter`).
    pub dt_limiter: &'static str,
    /// How often the controller halved the proposal (`dt.halvings`).
    pub dt_halvings: u64,
}

impl DistributedVlasov {
    /// Build from a pre-filled local block (slab decomposition `[P, 1, 1]`).
    ///
    /// `omega_component` is the mean comoving density the component carries
    /// (Ω_ν); it anchors the Poisson source `ρ - ρ̄`.
    pub fn new(
        comm: &Comm,
        ps: PhaseSpace,
        background: Background,
        a_init: f64,
        omega_component: f64,
    ) -> Self {
        let n = ps.sglobal;
        let decomp = Decomp3::new(n, [comm.size(), 1, 1]);
        assert_eq!(
            ps.sdims[0] * comm.size(),
            n[0],
            "slab decomposition requires nx divisible by the rank count"
        );
        Self {
            ps,
            background,
            a: a_init,
            omega_component,
            field: OnceCell::new(),
            decomp,
            force: None,
            scheme: Scheme::SlMpp5,
            dynamics: Dynamics::cosmological(),
            exec: Exec::Simd,
            cfl_spatial: 0.45,
            max_dln_a: 0.08,
            tag_counter: Cell::new(1),
            step_index: 0,
            run_steps: 0,
            verify_plans: false,
            overlap: OverlapPolicy::default(),
            trace_capacity: None,
        }
    }

    /// Choose how the drift hides (or doesn't) its ghost exchange.
    pub fn with_overlap(mut self, overlap: OverlapPolicy) -> Self {
        self.overlap = overlap;
        self
    }

    /// Enable the cross-rank flight recorder with a ring buffer of
    /// `capacity` events per rank. Each [`DistributedVlasov::step_traced`]
    /// then installs the recorder (first step), tags events with the step
    /// index, and drains them into [`StepTelemetry::trace`] — one
    /// [`vlasov6d_obs::trace::RankStepTrace`] per rank per step, ready for
    /// a JSONL sink and the [`vlasov6d_obs::trace::TraceSet`] stitcher.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Replace the advection scheme (default [`Scheme::SlMpp5`]).
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Run a non-cosmological scenario: replace the force law / time axis
    /// (default [`Dynamics::cosmological`]).
    pub fn with_dynamics(mut self, dynamics: Dynamics) -> Self {
        self.dynamics = dynamics;
        self.field = OnceCell::new();
        self
    }

    /// Replace the sweep execution backend of the rank-local axes (default
    /// [`Exec::Simd`], which [`Exec::resolve`] turns into lanes or the scalar
    /// task per axis on any grid; the ghosted `x` sweeps always ask for
    /// lanes). [`Exec::Scalar`] selects the f64 oracle kernel there.
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Statically verify the step's communication plans (ghost sweep,
    /// gradient plane exchange, FFT transposes) against the Cartesian
    /// topology and volume-symmetry checks before the first step runs.
    /// A miswired exchange then panics with the verifier's report instead
    /// of hanging mid-run. Cheap (`O(edges)` once), intended for debug and
    /// validation runs.
    pub fn with_plan_verification(mut self) -> Self {
        self.verify_plans = true;
        self
    }

    fn next_tags(&self, n: u64) -> u64 {
        self.tag_counter.replace(self.tag_counter.get() + n)
    }

    /// The field solver of the run's force law.
    fn field(&self) -> &FieldSolver<DistPoisson> {
        self.field.get_or_init(|| {
            let ranks = self.decomp.n_ranks();
            FieldSolver::new(self.dynamics.force, self.ps.sglobal, |grid| {
                DistPoisson::new(grid, ranks)
            })
        })
    }

    /// Build and verify the declarative plans of every exchange one step
    /// performs. Tags are representative — the checks are structural, and
    /// the step's actual tags only shift the whole pattern.
    fn verify_comm_plans(&self) {
        let cart_checks = PlanChecks {
            topology: Some(cart_neighbor_edges(&self.decomp)),
            volume_symmetry: true,
        };
        // Drift: axis-0 ghost-plane exchange of the distributed sweep, in
        // both its blocking and split-phase (overlapped) forms — the split
        // plan additionally proves every posted request is waited on.
        ghost_exchange_plan(&self.decomp, self.ps.vgrid.len(), 0, GHOST_WIDTH, 100)
            .assert_valid(&cart_checks);
        ghost_exchange_split_plan(&self.decomp, self.ps.vgrid.len(), 0, GHOST_WIDTH, 100)
            .assert_valid(&cart_checks);
        // Gravity, periodic: the Poisson solve's forward + inverse all-to-all
        // transposes (no Cartesian topology — every rank pair exchanges) and
        // the two-plane potential exchange of the 4-point gradient. The
        // source mean and the isolated solve's slab allgather are
        // collectives, outside any plan.
        if let FieldSolver::Periodic { solver, .. } = self.field() {
            gradient_plan(&self.decomp, self.ps.sdims, 200).assert_valid(&cart_checks);
            solver.solve_plan(300).assert_valid(&PlanChecks {
                topology: None,
                volume_symmetry: true,
            });
        }
    }

    /// Local force fields `-∂φ/∂x_d` at the Vlasov cells of this rank's slab.
    fn gravity(&self, comm: &Comm) -> [Field3; 3] {
        let _s = span!("gravity", Bucket::Pm);
        let rho = {
            let _s = span!("gravity.moments");
            moments::density(&self.ps)
        };
        match self.field() {
            FieldSolver::Periodic { solver, prefactor } => {
                // Poisson source: ρ − ρ̄ with the exact global mean.
                let [g0, g1, g2] = self.ps.sglobal;
                let mean =
                    global_plane_ordered_sum(comm, &self.decomp, &rho) / (g0 * g1 * g2) as f64;
                let source: Vec<f64> = rho.as_slice().iter().map(|v| v - mean).collect();
                // The solve's tag window, then the gradient's two plane
                // exchanges.
                let solve_tags = solver.tag_span();
                let tag = self.next_tags(solve_tags + 2);
                let phi_slab = {
                    let _s = span!("gravity.poisson");
                    solver.solve(comm, &source, prefactor.at(self.a), tag)
                };
                let phi = Field3::from_vec(self.ps.sdims, phi_slab);

                // 4-point gradient: axes 1, 2 are global within the slab
                // (periodic wrap is correct); axis 0 needs two ghost planes
                // from each neighbour.
                let _g = span!("gravity.gradient");
                gradient_with_ghosts(comm, &self.decomp, &phi, tag + solve_tags)
            }
            // Open boundaries: every rank runs the identical serial solve on
            // the identical assembled field and slices its own slab of the
            // force, so the result is bitwise invariant under the rank count
            // by construction.
            FieldSolver::Isolated { solver, coupling } => {
                let full = {
                    let _s = span!("gravity.allgather");
                    allgather_slabs(comm, &self.decomp, &rho)
                };
                let phi = {
                    let _s = span!("gravity.poisson");
                    solver.solve(&full, *coupling)
                };
                let _g = span!("gravity.gradient");
                let force = PoissonSolver::force_from_potential(&phi);
                let off = self.decomp.local_offset(comm.rank());
                let dims = self.ps.sdims;
                force.map(|f| {
                    let mut local = Field3::zeros(dims);
                    for i0 in 0..dims[0] {
                        for i1 in 0..dims[1] {
                            for i2 in 0..dims[2] {
                                *local.at_mut(i0, i1, i2) =
                                    f.at(off[0] + i0, off[1] + i1, off[2] + i2);
                            }
                        }
                    }
                    local
                })
            }
        }
    }

    /// One Strang-split step; returns `(a_new, Δt_code)`.
    pub fn step(&mut self, comm: &Comm) -> (f64, f64) {
        let (a2, dt, _) = self.step_traced(comm);
        (a2, dt)
    }

    /// One Strang-split step with per-rank telemetry: returns
    /// `(a_new, Δt_code, telemetry)` where the telemetry carries this rank's
    /// span tree and its four-bucket fold.
    pub fn step_traced(&mut self, comm: &Comm) -> (f64, f64, StepTelemetry) {
        self.step_index += 1;
        self.run_steps += 1;
        if let Some(capacity) = self.trace_capacity {
            // Install the recorder lazily on the first traced step (this
            // runs on each rank's own thread, which is what the
            // thread-local recorder needs) and stamp the step index.
            if !vlasov6d_obs::trace::is_active() {
                vlasov6d_obs::trace::enable(capacity);
            }
            vlasov6d_obs::trace::begin_step(self.step_index);
        }
        if self.verify_plans && self.step_index == 1 {
            let _s = span!("plan_verify", Bucket::Other);
            self.verify_comm_plans();
        }
        let scope = StepScope::begin(self.step_index);
        let (policy, a1) = (self.policy(), self.a);
        let interval = strang::step(&mut OnRanks { sim: self, comm }, &policy, a1);
        let spans = scope.finish();
        let telemetry = StepTelemetry {
            timers: spans.buckets,
            spans,
            trace: self
                .trace_capacity
                .and_then(|_| vlasov6d_obs::trace::drain(comm.rank())),
            dt_limiter: interval.limiter.name(),
            dt_halvings: interval.halvings,
        };
        (interval.t2, interval.dt, telemetry)
    }

    /// The step policy handed to the shared stepper. All factors route
    /// through the dynamics' time axis; the velocity CFL cap is 1.
    fn policy(&self) -> strang::Policy {
        strang::Policy {
            time: self.dynamics.time,
            scheme: self.scheme,
            exec: self.exec,
            cfl_spatial: self.cfl_spatial,
            cfl_velocity: 1.0,
            max_step: self.max_dln_a,
        }
    }

    /// Global component mass (allreduced).
    pub fn total_mass(&self, comm: &Comm) -> f64 {
        comm.allreduce_sum(self.ps.total_mass())
    }

    /// Completed steps so far (drives the checkpoint cadence).
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Take a checkpoint now (collective — every rank must call it).
    ///
    /// Writes this rank's phase-space block, a `SimState` record (counters,
    /// scale factor, CFL caps, scheme) and the cached force meshes through
    /// the store's two-phase commit, rotating old generations per the
    /// policy. Runs under a `ckpt.write` span in the I/O bucket.
    pub fn checkpoint(
        &self,
        comm: &Comm,
        store: &CheckpointStore,
        policy: &CheckpointPolicy,
    ) -> Result<CkptStats, CkptError> {
        let _s = span!("ckpt.write", Bucket::Io);
        let state = strang::sim_state(
            &self.policy(),
            self.step_index,
            self.tag_counter.get(),
            self.a,
            self.omega_component,
        );
        let records = strang::records(Some(&self.ps), self.force.as_ref(), &state, None);
        store.write_collective(
            comm,
            self.step_index,
            self.a,
            &records,
            policy.encoding,
            policy.keep,
        )
    }

    /// Checkpoint iff the policy's cadence is due at the current step
    /// (collective when it fires; `policy.due` agrees on every rank, so
    /// either all ranks enter the write or none do).
    pub fn maybe_checkpoint(
        &self,
        comm: &Comm,
        store: &CheckpointStore,
        policy: &CheckpointPolicy,
    ) -> Option<Result<CkptStats, CkptError>> {
        policy
            .due(self.step_index)
            .then(|| self.checkpoint(comm, store, policy))
    }

    /// Resume from the newest intact generation in `store` (collective).
    ///
    /// Bitwise-exact: the restored driver continues the trajectory with the
    /// same bits as an uninterrupted run — the distribution function, cached
    /// force, scale factor, tag counter and step index are all restored
    /// exactly (floats travel as raw bits). Falls back to older generations
    /// when the newest is corrupt; every rank agrees on the chosen one.
    ///
    /// The checkpoint holds evolving state, the CFL caps and the scheme —
    /// not the run's configuration. The caller re-applies, exactly as on the
    /// original driver: [`Self::with_dynamics`] (default cosmological),
    /// [`Self::with_exec`] (default `Exec::Simd`), [`Self::with_overlap`]
    /// (default synchronous), and [`Self::with_tracing`] /
    /// [`Self::with_plan_verification`] if wanted. None of these touches the
    /// restored force cache or counters.
    pub fn resume_from(
        comm: &Comm,
        store: &CheckpointStore,
        background: Background,
    ) -> Result<Self, CkptError> {
        let loaded = {
            let _s = span!("ckpt.read", Bucket::Io);
            store.load_collective(comm)?
        };
        let saved = strang::restore(loaded, true)?;
        let (ps, state) = (saved.ps.expect("checked by restore"), saved.state);
        let mut sim = DistributedVlasov::new(comm, ps, background, state.a, state.omega_component);
        // A checkpoint without force meshes (written before the first step,
        // or by an older build) leaves the cache empty: the next step solves.
        sim.force = saved.force;
        sim.scheme = saved.scheme;
        sim.cfl_spatial = state.cfl_spatial;
        sim.max_dln_a = state.max_dln_a;
        sim.tag_counter.set(state.tag_counter);
        sim.step_index = state.step;
        Ok(sim)
    }

    /// Assemble this rank's JSONL-ready [`StepEvent`] for one traced step.
    ///
    /// Collective: every rank must call it (the conservation diagnostics are
    /// allreduced). `traffic` is an interval's worth of communication
    /// counters — typically `comm.traffic().diff(&mark)` with `mark` taken
    /// before the step — and feeds the per-rank byte gauges, the global
    /// message-size histogram and the communication-imbalance gauge.
    pub fn step_event(
        &self,
        comm: &Comm,
        dt: f64,
        telemetry: &StepTelemetry,
        traffic: Option<&Traffic>,
    ) -> StepEvent {
        // One pass over this rank's block, one reduction in rank order.
        let sums = comm.allreduce(moments::step_sums(&self.ps), |mut a, b| {
            a.combine(&b);
            a
        });
        let mut metrics = Vec::new();
        if let Some(t) = traffic {
            let rank = comm.rank();
            metrics.push((
                "comm.sent_bytes".to_string(),
                MetricValue::Counter(t.bytes_sent_by(rank)),
            ));
            metrics.push((
                "comm.recv_bytes".to_string(),
                MetricValue::Counter(t.bytes_received_by(rank)),
            ));
            metrics.push((
                "comm.messages".to_string(),
                MetricValue::Counter(t.total_messages()),
            ));
            metrics.push((
                "comm.imbalance".to_string(),
                MetricValue::Gauge(t.imbalance()),
            ));
            metrics.push((
                "comm.msg_size_bytes".to_string(),
                MetricValue::Histogram(t.msg_size_snapshot()),
            ));
        }
        if self.run_steps == 1 {
            metrics.push(kernel_isa_metric());
            metrics.push(kernel_shape_metric(&self.ps, self.scheme, self.exec, true));
        }
        metrics.extend(dt_metrics(telemetry.dt_limiter, telemetry.dt_halvings));
        StepEvent {
            step: telemetry.spans.step,
            rank: comm.rank(),
            a: self.a,
            dt,
            buckets: telemetry.spans.buckets,
            spans: telemetry.spans.roots.clone(),
            metrics,
            nu_mass: sums.mass,
            f_min: sums.min as f64,
            momentum: sums.momentum,
        }
    }
}

/// A [`DistributedVlasov`] bound to its communicator for one step — what the
/// ranked run contributes to the shared stepper: the slab (or replicated
/// isolated) field solve, the ghost-exchange sweep along the decomposed axis
/// and the cross-rank maximum.
struct OnRanks<'a> {
    sim: &'a mut DistributedVlasov,
    comm: &'a Comm,
}

impl strang::Driver for OnRanks<'_> {
    fn background(&self) -> &Background {
        &self.sim.background
    }

    fn vlasov(&mut self) -> Option<(&mut PhaseSpace, Option<&[Field3; 3]>)> {
        Some((&mut self.sim.ps, self.sim.force.as_ref()))
    }

    fn solve(&mut self, a: f64) {
        self.sim.a = a;
        self.sim.force = Some(self.sim.gravity(self.comm));
    }

    fn sweep_axis0(&mut self, cfl: &[f64], p: &strang::Policy) -> bool {
        let sim = &mut *self.sim;
        let tag = sim.next_tags(8);
        let cart = Cart3::new(self.comm, sim.decomp);
        match sim.overlap {
            OverlapPolicy::Synchronous => {
                sweep_spatial_distributed(&mut sim.ps, &cart, 0, cfl, p.scheme, tag);
            }
            OverlapPolicy::Overlapped => {
                sweep_spatial_overlapped(&mut sim.ps, &cart, 0, cfl, p.scheme, tag);
            }
        }
        true
    }

    fn reduce_max(&self, x: f64) -> f64 {
        self.comm.allreduce_max(x)
    }
}

/// Sum of a slab-decomposed field with rank-count-invariant f64 grouping:
/// per-x-plane partial sums (each plane wholly owned by one rank, inner
/// loops in fixed order) are gathered and added in global x order. Any
/// decomposition of the same global grid therefore performs the identical
/// additions in the identical order — unlike `allreduce_sum`, whose
/// grouping follows the rank count.
fn global_plane_ordered_sum(comm: &Comm, decomp: &Decomp3, rho: &Field3) -> f64 {
    let [n0, n1, n2] = rho.dims();
    let mut planes = Vec::with_capacity(n0);
    for i0 in 0..n0 {
        let mut s = 0.0;
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                s += rho.at(i0, i1, i2);
            }
        }
        planes.push(s);
    }
    // Ranks own contiguous x slabs in rank order, and `allgather` returns
    // in rank order: its concatenation is x order.
    let mut total = 0.0;
    for (src, sums) in comm.allgather(planes).into_iter().enumerate() {
        debug_assert_eq!(sums.len(), decomp.local_dims(src)[0]);
        for s in sums {
            total += s;
        }
    }
    total
}

/// Allgather the slab-decomposed density into the full global field on
/// every rank (for the replicated isolated solve).
fn allgather_slabs(comm: &Comm, decomp: &Decomp3, rho: &Field3) -> Field3 {
    let mut full = Field3::zeros(decomp.global);
    let [_, g1, g2] = decomp.global;
    for (src, slab) in comm
        .allgather(rho.as_slice().to_vec())
        .into_iter()
        .enumerate()
    {
        let off = decomp.local_offset(src);
        let dims = decomp.local_dims(src);
        assert_eq!(slab.len(), dims[0] * dims[1] * dims[2]);
        for (flat, v) in slab.into_iter().enumerate() {
            let i2 = flat % dims[2];
            let i1 = (flat / dims[2]) % dims[1];
            let i0 = flat / (dims[2] * dims[1]);
            *full.at_mut(off[0] + i0, (off[1] + i1) % g1, (off[2] + i2) % g2) = v;
        }
    }
    full
}

/// Declarative plan of the [`gradient_with_ghosts`] exchange: two φ planes
/// (`2·n1·n2` f64 values) each way along axis 0, tags `tag` and `tag + 1` —
/// the same shift pattern as the ghost exchange, with f64 payloads.
fn gradient_plan(decomp: &Decomp3, local_dims: [usize; 3], tag: u64) -> CommPlan {
    let mut plan = CommPlan::new("gravity.gradient", decomp.n_ranks());
    let bytes = (2 * local_dims[1] * local_dims[2] * std::mem::size_of::<f64>()) as u64;
    for r in 0..decomp.n_ranks() {
        let low = decomp.neighbor(r, 0, -1);
        let high = decomp.neighbor(r, 0, 1);
        plan.send(r, low, tag, bytes);
        plan.recv(r, high, tag, bytes);
        plan.send(r, high, tag + 1, bytes);
        plan.recv(r, low, tag + 1, bytes);
    }
    plan
}

/// `-∇φ` with 4-point stencils; axis 0 crosses slab boundaries via a
/// 2-plane exchange.
fn gradient_with_ghosts(comm: &Comm, decomp: &Decomp3, phi: &Field3, tag: u64) -> [Field3; 3] {
    let [n0, n1, n2] = phi.dims();
    let cart = Cart3::new(comm, *decomp);
    // Exchange two φ planes each way along axis 0.
    let low: Vec<f64> = (0..2 * n1 * n2)
        .map(|i| phi.at(i / (n1 * n2), (i / n2) % n1, i % n2))
        .collect();
    let high: Vec<f64> = (0..2 * n1 * n2)
        .map(|i| phi.at(n0 - 2 + i / (n1 * n2), (i / n2) % n1, i % n2))
        .collect();
    let from_high = cart.shift_exchange(0, -1, tag, low);
    let from_low = cart.shift_exchange(0, 1, tag + 1, high);

    let h0 = 1.0 / decomp.global[0] as f64;
    let sample0 = |i0: i64, i1: usize, i2: usize| -> f64 {
        if i0 < 0 {
            from_low[((i0 + 2) as usize * n1 + i1) * n2 + i2]
        } else if i0 >= n0 as i64 {
            from_high[((i0 - n0 as i64) as usize * n1 + i1) * n2 + i2]
        } else {
            phi.at(i0 as usize, i1, i2)
        }
    };
    let mut f0 = Field3::zeros(phi.dims());
    for i0 in 0..n0 {
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let d = stencil::centred_difference(GradientOrder::Four, h0, |s| {
                    sample0(i0 as i64 + s, i1, i2)
                });
                *f0.at_mut(i0, i1, i2) = -d;
            }
        }
    }
    // Axes 1, 2 are fully local (the slab spans them).
    let mut f1 = stencil::gradient_axis(phi, 1, GradientOrder::Four);
    let mut f2 = stencil::gradient_axis(phi, 2, GradientOrder::Four);
    f1.scale(-1.0);
    f2.scale(-1.0);
    [f0, f1, f2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_cosmology::CosmologyParams;
    use vlasov6d_mpisim::Universe;
    use vlasov6d_phase_space::{sweep, VelocityGrid};
    use vlasov6d_poisson::PoissonSolver;

    fn fill(s: [usize; 3], u: [f64; 3]) -> f64 {
        let sx =
            (s[0] as f64 * 0.55).sin() + (s[1] as f64 * 0.35).cos() + (s[2] as f64 * 0.75).sin();
        0.002 * (2.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
    }

    /// Serial replica of the identical algorithm (PM grid = Vlasov grid,
    /// spectral Green's function, 4-point gradients) for comparison.
    fn serial_reference(sglobal: [usize; 3], vg: VelocityGrid, steps: usize) -> PhaseSpace {
        let bg = Background::new(CosmologyParams::planck2015());
        let mut ps = PhaseSpace::zeros(sglobal, vg);
        ps.fill_with(fill);
        let solver = PoissonSolver::new(sglobal);
        let mut a = 0.2;
        for _ in 0..steps {
            let gravity = |ps: &PhaseSpace, a: f64| {
                let mut rho = moments::density(ps);
                let mean = rho.mean();
                for v in rho.as_mut_slice() {
                    *v -= mean;
                }
                let phi = solver.solve(&rho, 1.5 / a);
                PoissonSolver::force_from_potential(&phi)
            };
            let force = gravity(&ps, a);
            let a1 = a;
            let mut a2 = a1 * 1.08;
            let nx = sglobal[0] as f64;
            let fmax = force.iter().map(|f| f.max_abs()).fold(0.0, f64::max);
            for _ in 0..60 {
                let drift = bg.drift_factor(a1, a2);
                let kick = bg.kick_factor(a1, a2);
                if ps.vgrid.vmax * drift * nx < 0.45 && fmax * 0.5 * kick / ps.vgrid.du(0) <= 1.0 {
                    break;
                }
                a2 = a1 + 0.5 * (a2 - a1);
            }
            let t = 0.5 * (bg.time_of_a(a1) + bg.time_of_a(a2));
            let am = bg.a_of_time(t);
            let (k1, k2) = (bg.kick_factor(a1, am), bg.kick_factor(am, a2));
            let drift = bg.drift_factor(a1, a2);
            let kick = |ps: &mut PhaseSpace, force: &[Field3; 3], k: f64| {
                for d in 0..3 {
                    let mut cfl = force[d].clone();
                    cfl.scale(k / ps.vgrid.du(d));
                    sweep::sweep_velocity(ps, d, &cfl, Scheme::SlMpp5, Exec::Scalar);
                }
            };
            kick(&mut ps, &force, k1);
            for d in 0..3 {
                let cfl: Vec<f64> = (0..ps.vgrid.n[d])
                    .map(|k| ps.vgrid.center(d, k) * drift * sglobal[d] as f64)
                    .collect();
                sweep::sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Scalar);
            }
            a = a2;
            let force = gravity(&ps, a);
            kick(&mut ps, &force, k2);
        }
        ps
    }

    #[test]
    fn distributed_run_matches_serial_replica() {
        // 16 planes along x: 8 per rank at 2 ranks, 4 per rank at 4 ranks —
        // both above the 3-plane ghost width.
        let sglobal = [16usize, 8, 8];
        let vg = VelocityGrid::cubic(8, 0.6);
        let steps = 3;
        let serial = serial_reference(sglobal, vg, steps);

        // Every run's `f` bits, per global cell, in global cell order.
        let mut runs = Vec::new();
        for n_ranks in [1usize, 2, 4] {
            let serial = serial.clone();
            let blocks = Universe::run(n_ranks, move |comm| {
                let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
                let off = decomp.local_offset(comm.rank());
                let dims = decomp.local_dims(comm.rank());
                let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
                local.fill_with(fill);
                let bg = Background::new(CosmologyParams::planck2015());
                let mut sim = DistributedVlasov::new(comm, local, bg, 0.2, 1.0);
                for _ in 0..steps {
                    sim.step(comm);
                    comm.barrier();
                }
                // Compare this rank's block against the serial solution.
                let vlen = vg.len();
                let mut bits = Vec::new();
                for lx in 0..dims[0] {
                    for ly in 0..dims[1] {
                        for lz in 0..dims[2] {
                            let got = sim.ps.velocity_block([lx, ly, lz]);
                            let cell = [off[0] + lx, off[1] + ly, off[2] + lz];
                            let want = serial.velocity_block(cell);
                            for k in 0..vlen {
                                assert!(
                                    (got[k] - want[k]).abs() < 5e-5 * (1.0 + want[k].abs()),
                                    "ranks {n_ranks} cell ({lx},{ly},{lz}) v{k}: {} vs {}",
                                    got[k],
                                    want[k]
                                );
                            }
                            bits.push((cell, got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
                        }
                    }
                }
                bits
            });
            let mut cells: Vec<_> = blocks.into_iter().flatten().collect();
            cells.sort_by_key(|(cell, _)| *cell);
            runs.push((n_ranks, cells));
        }
        // The paper's force law is rank-count invariant bit for bit: the
        // source mean is x-plane ordered, the slab FFT and the max reduction
        // are exact under any partition.
        let (_, one_rank) = &runs[0];
        for (n_ranks, cells) in &runs[1..] {
            assert!(cells == one_rank, "{n_ranks} ranks differ from 1 rank");
        }
    }

    #[test]
    fn distributed_mass_is_conserved() {
        let sglobal = [8usize, 8, 8];
        let vg = VelocityGrid::cubic(8, 0.6);
        for overlap in [OverlapPolicy::Synchronous, OverlapPolicy::Overlapped] {
            Universe::run(2, move |comm| {
                let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
                let off = decomp.local_offset(comm.rank());
                let dims = decomp.local_dims(comm.rank());
                let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
                local.fill_with(fill);
                let bg = Background::new(CosmologyParams::planck2015());
                let mut sim = DistributedVlasov::new(comm, local, bg, 0.2, 1.0)
                    .with_plan_verification()
                    .with_overlap(overlap);
                let m0 = sim.total_mass(comm);
                for _ in 0..3 {
                    sim.step(comm);
                }
                let m1 = sim.total_mass(comm);
                assert!(
                    (m1 / m0 - 1.0).abs() < 1e-3,
                    "{overlap:?}: mass {m0} → {m1}"
                );
                assert!(sim.ps.min_value() >= 0.0);
            });
        }
    }

    /// `step_event`'s conservation diagnostics are one `step_sums` pass per
    /// rank and one rank-ordered reduction: the same bits on every rank and
    /// under either overlap policy (the fields are), and the 1-rank value to
    /// rounding at any rank count (a different partition of the same sum).
    #[test]
    fn step_event_diagnostics_agree_across_overlap_and_rank_count() {
        let sglobal = [16usize, 8, 8];
        let vg = VelocityGrid::cubic(8, 0.6);
        let run = |n_ranks: usize, overlap: OverlapPolicy| {
            let events = Universe::run(n_ranks, move |comm| {
                let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
                let mut local = PhaseSpace::zeros_block(
                    decomp.local_dims(comm.rank()),
                    decomp.local_offset(comm.rank()),
                    sglobal,
                    vg,
                );
                local.fill_with(fill);
                let bg = Background::new(CosmologyParams::planck2015());
                let mut sim =
                    DistributedVlasov::new(comm, local, bg, 0.2, 1.0).with_overlap(overlap);
                sim.step(comm);
                let (_, dt, telemetry) = sim.step_traced(comm);
                let e = sim.step_event(comm, dt, &telemetry, None);
                let limiter = e.metrics.iter().find(|(name, _)| name == "dt.limiter");
                let Some((_, MetricValue::Text(by))) = limiter else {
                    panic!("no dt.limiter: {:?}", e.metrics)
                };
                (e.nu_mass, e.f_min, e.momentum, by.clone())
            });
            assert!(events.iter().all(|e| e == &events[0]), "ranks disagree");
            events[0].clone()
        };
        let (mass1, min1, p1, by1) = run(1, OverlapPolicy::Synchronous);
        // `fill` dips below zero on this grid, on one rank's block only: the
        // minimum has to cross the reduction.
        assert!(mass1 > 0.0 && min1 < 0.0, "{mass1} {min1}");
        assert!(["max_step", "spatial", "velocity"].contains(&by1.as_str()));
        for n_ranks in [2usize, 4] {
            let sync = run(n_ranks, OverlapPolicy::Synchronous);
            assert_eq!(
                sync,
                run(n_ranks, OverlapPolicy::Overlapped),
                "{n_ranks} ranks"
            );
            let (mass, min, p, by) = sync;
            assert_eq!(by, by1, "{n_ranks} ranks");
            assert!(
                (mass / mass1 - 1.0).abs() < 1e-12,
                "{n_ranks}: {mass} vs {mass1}"
            );
            assert!(
                (min - min1).abs() <= 1e-6 * min1.abs(),
                "{n_ranks}: {min} vs {min1}"
            );
            for d in 0..3 {
                let tol = 1e-9 * vg.vmax * mass1;
                assert!(
                    (p[d] - p1[d]).abs() < tol,
                    "{n_ranks}: p[{d}] {} vs {}",
                    p[d],
                    p1[d]
                );
            }
        }
    }

    #[test]
    fn step_tags_are_never_reused() {
        // Regression guard on `tag_counter`: every point-to-point message a
        // run posts — ghost planes (blocking and split-phase), gradient
        // planes, FFT transposes — must use a fresh `(src, dst, tag)` triple,
        // within a step and across step boundaries. A counter reset or an
        // under-reserved `next_tags` window shows up here as tag reuse.
        //
        // The same run pins the one-solve-per-step policy: the first step
        // fills the force cache (two solves), every later step reuses it
        // (one solve), so the universe's messages per step drop once and
        // then stay constant.
        let sglobal = [8usize, 8, 8];
        let vg = VelocityGrid::cubic(8, 0.6);
        for overlap in [OverlapPolicy::Synchronous, OverlapPolicy::Overlapped] {
            let (per_step, traffic) = Universe::run_with_traffic(2, move |comm| {
                let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
                let off = decomp.local_offset(comm.rank());
                let dims = decomp.local_dims(comm.rank());
                let mut local = PhaseSpace::zeros_block(dims, off, sglobal, vg);
                local.fill_with(fill);
                let bg = Background::new(CosmologyParams::planck2015());
                let mut sim =
                    DistributedVlasov::new(comm, local, bg, 0.2, 1.0).with_overlap(overlap);
                let mut messages = vec![comm.traffic().total_messages()];
                for _ in 0..4 {
                    sim.step(comm);
                    // Every rank has finished the step before the counter is
                    // read, and none starts the next before all have read.
                    comm.barrier();
                    messages.push(comm.traffic().total_messages());
                    comm.barrier();
                }
                messages
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .collect::<Vec<u64>>()
            });
            let reused = traffic.tag_reuse();
            assert!(
                reused.is_empty(),
                "{overlap:?}: (src, dst, tag) triples reused across requests: {reused:?}"
            );
            let per_step = &per_step[0];
            assert!(
                per_step[0] > per_step[1],
                "{overlap:?}: the first step carries the cache-filling solve: {per_step:?}"
            );
            assert!(
                per_step[1..].iter().all(|&m| m == per_step[1]),
                "{overlap:?}: messages per step must be constant after the first: {per_step:?}"
            );
        }
    }
}
