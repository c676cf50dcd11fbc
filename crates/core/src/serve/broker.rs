//! The continuous-batching request broker.
//!
//! [`Broker`] owns the serving loop over N deployed models (tenants):
//! bounded admission queues with a shed-oldest or reject-new overflow
//! policy, dynamic batch windows that close on **size or time**, a
//! single simulated execution engine shared round-robin across tenants,
//! and per-request deadline tracking. It is a discrete-event simulator
//! driven by a [`ServeClock`] — virtual in tests
//! (deterministic, host-independent), monotonic for real-time replays.
//!
//! Execution is real, time is modeled: every batch runs its requests
//! through [`CompiledNetwork::infer_in`] on recycled arenas from the
//! plan's pool (fanned across a [`WorkerPool`], order-preserving), and
//! the engine-busy interval charged to the clock is the batch launch
//! overhead plus the sum of the executed requests' *modeled* chip
//! latencies. Results are therefore bit-identical to a direct
//! `infer_in` on the same plan — the serving layer is pure scheduling,
//! pinned by `tests/serve_parity.rs` — while the timeline is a pure
//! function of the trace and the model latencies, pinned by
//! `tests/serve_sim.rs`.
//!
//! Determinism contract:
//!
//! * every RNG stream is derived from a seed via
//!   [`sample_stream_seed`] (inputs from `Arrival::input_seed`, noise
//!   streams from `(infer_seed, request id)`) — never from ambient
//!   entropy, worker scheduling, or batch composition;
//! * identical `(deployments, trace, config)` produce identical
//!   outcomes and a byte-identical rendered [`ServeReport`] at every
//!   worker count.
//!
//! # Health monitoring and graceful degradation
//!
//! With [`BrokerConfig::health`] set, every tenant gets a **golden
//! probe canary**: at deploy time the broker runs one known input
//! through the pristine deployment and stores a digest of its logits.
//! At serve time, ahead of a batch launch (rate-limited by
//! [`HealthConfig::canary_period_ns`]), the probe re-runs on whatever
//! network the tenant currently dispatches to and the digests are
//! compared. Batch results are **held pending** until the next passing
//! canary confirms them — a failing canary *voids* everything executed
//! since the last pass, so no response computed on a faulty fabric is
//! ever released as [`Disposition::Completed`].
//!
//! A canary failure quarantines the tenant for
//! [`HealthConfig::repair_ns`] (doubling per consecutive failure —
//! the retry backoff), modeling the time `remap_faults` needs to move
//! dead placements onto spare subarrays and re-program them. Voided
//! requests re-queue at the front within their
//! [`HealthConfig::max_retries`] budget and deadline; the rest time
//! out ([`Disposition::TimedOut`]). While quarantined the tenant stops
//! dispatching but keeps admitting (degraded mode: arrivals queue and
//! shed/reject under the normal admission policy), and requests whose
//! deadline expires in queue time out instead of wasting engine time.
//! When the quarantine lapses dispatch returns to the repaired
//! deployment and the next launch re-validates it with a forced
//! canary.
//!
//! Faults are injected deterministically with [`Broker::inject_fault`]:
//! at a chosen instant the tenant's dispatch swaps to a *faulty twin*
//! (the same description compiled with a `FaultConfig`), so the canary
//! mismatch is a genuine corrupt inference, not a simulated flag. The
//! probe itself is an inference on the live deployment and its modeled
//! latency is charged to the engine like any batch. `health: None`
//! bypasses every hook above — the loop is byte-identical to the
//! pre-health broker.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::compiler::{CompiledNetwork, ExecutionReport};
use crate::engine::{sample_stream_seed, WorkerPool};
use yoloc_tensor::Tensor;

use super::clock::ServeClock;
use super::loadgen::{Arrival, NO_DEADLINE};
use super::report::{Disposition, RequestOutcome, ServeReport, NO_BATCH};

/// What to do with a new request when its tenant's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new request (the queue keeps its oldest work).
    RejectNew,
    /// Drop the oldest queued request to make room (freshest-first
    /// under overload — the right policy for deadline-bound traffic).
    ShedOldest,
}

/// Per-tenant serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Admission queue bound (requests). The queue never exceeds it.
    pub queue_cap: usize,
    /// Overflow policy when a request arrives at a full queue.
    pub admission: AdmissionPolicy,
    /// Batch window size bound: a forming batch closes the moment it
    /// holds this many requests.
    pub max_batch: usize,
    /// Batch window time bound, ns: a forming batch closes when its
    /// oldest request has waited this long, full or not.
    pub window_ns: u64,
}

impl TenantConfig {
    /// A sane default: queue of 64, shed-oldest, batches of up to 8
    /// closing after 1 ms.
    pub fn default_serving() -> Self {
        TenantConfig {
            queue_cap: 64,
            admission: AdmissionPolicy::ShedOldest,
            max_batch: 8,
            window_ns: 1_000_000,
        }
    }
}

/// Broker-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Base seed of the per-request inference RNG streams
    /// (`sample_stream_seed(infer_seed, id)` — the parity suite derives
    /// the identical stream for its direct executions).
    pub infer_seed: u64,
    /// Fixed modeled launch cost charged per batch, ns. This is what
    /// makes batching *win*: it amortizes across the batch.
    pub batch_overhead_ns: u64,
    /// Capture per-request logits + execution reports in the output
    /// (the parity suite's hook; benches leave it off).
    pub capture: bool,
    /// Health monitoring + self-healing (canary probes, quarantine,
    /// retry). `None` leaves the broker byte-identical to the
    /// pre-health serving loop: no probes run, no outcome is ever
    /// timed out, and dispatch never checks tenant health.
    pub health: Option<HealthConfig>,
}

impl BrokerConfig {
    /// Defaults: seed 0, 20 µs launch overhead, no capture, no health
    /// monitoring.
    pub fn default_serving() -> Self {
        BrokerConfig {
            infer_seed: 0,
            batch_overhead_ns: 20_000,
            capture: false,
            health: None,
        }
    }
}

/// Health-monitoring configuration (see the [module docs](self)).
///
/// All state the canary needs beyond these scalars — the golden probe
/// input and its digest — is computed per tenant at
/// [`Broker::deploy`] time, so the config stays `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Canary period, ns: a golden probe runs ahead of a tenant's next
    /// batch launch once this much time has passed since its last
    /// probe (0 probes before every batch).
    pub canary_period_ns: u64,
    /// Seed of the golden probe input and its inference noise stream
    /// (derived per tenant via [`sample_stream_seed`]).
    pub canary_seed: u64,
    /// Retry budget: how many times one request may be re-queued after
    /// failed canaries void its batch before it times out.
    pub max_retries: u32,
    /// Modeled repair time, ns: how long a tenant stays quarantined
    /// after a canary failure while its placements remap onto spare
    /// subarrays (see `CompiledNetwork::remap_faults`). Doubles per
    /// *consecutive* failure as the retry backoff; resets on a pass.
    pub repair_ns: u64,
}

impl HealthConfig {
    /// Defaults: probe at most every 500 µs, retry twice, 2 ms repair.
    pub fn default_serving() -> Self {
        HealthConfig {
            canary_period_ns: 500_000,
            canary_seed: 0xCA_11A2,
            max_retries: 2,
            repair_ns: 2_000_000,
        }
    }
}

/// Captured execution result of one request (only with
/// [`BrokerConfig::capture`]).
#[derive(Debug, Clone)]
pub struct Capture {
    /// Trace-wide request id.
    pub id: u64,
    /// The request's logits.
    pub logits: Vec<f32>,
    /// The request's full execution report.
    pub exec: ExecutionReport,
}

/// Everything one [`Broker::run`] produces.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    /// One outcome per offered request, in event (recording) order.
    pub outcomes: Vec<RequestOutcome>,
    /// The aggregated report.
    pub report: ServeReport,
    /// Captured per-request results (empty unless capturing).
    pub captures: Vec<Capture>,
    /// Per-tenant health telemetry, in deployment order (empty unless
    /// [`BrokerConfig::health`] is set).
    pub health: Vec<TenantHealthStats>,
}

/// Health telemetry of one tenant over a [`Broker::run`].
#[derive(Debug, Clone)]
pub struct TenantHealthStats {
    /// Model name (deployment name).
    pub model: String,
    /// Canary probes executed.
    pub probes: u64,
    /// Instants of canary failures (detections), ns.
    pub failures_at_ns: Vec<u64>,
    /// Instants quarantines lapsed (repairs completed), ns.
    pub repairs_at_ns: Vec<u64>,
    /// Total time spent quarantined, ns.
    pub quarantined_ns: u64,
}

/// A request sitting in an admission queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: u64,
    arrival_ns: u64,
    enqueue_ns: u64,
    deadline_ns: u64,
    input_seed: u64,
    retries: u32,
}

/// A completed execution awaiting canary confirmation.
#[derive(Debug, Clone, Copy)]
struct PendingDone {
    q: Queued,
    start_ns: u64,
    finish_ns: u64,
    batch_id: u64,
    batch_size: usize,
}

/// Live health state of one tenant (present iff health is configured).
struct TenantHealth {
    /// Golden probe input, fixed at deploy.
    golden_input: Tensor,
    /// Noise-stream seed of the probe inference.
    noise_seed: u64,
    /// Digest of the pristine deployment's probe logits.
    digest: u64,
    last_canary_ns: u64,
    force_canary: bool,
    probes: u64,
    consecutive_failures: u32,
    failures_at: Vec<u64>,
    repairs_at: Vec<u64>,
    quarantined_until: Option<u64>,
    quarantined_total_ns: u64,
    /// Executions held until the next passing canary confirms them.
    pending: Vec<PendingDone>,
    pending_caps: Vec<Capture>,
}

/// One deployed model plus its live serving state.
struct Tenant<'m> {
    name: String,
    net: &'m CompiledNetwork,
    /// Dispatch override while a fault injection is live: inferences
    /// (and canary probes) run on this network instead of `net`.
    faulty: Option<&'m CompiledNetwork>,
    cfg: TenantConfig,
    queue: VecDeque<Queued>,
    max_depth: u64,
    batches: u64,
    health: Option<TenantHealth>,
}

impl<'m> Tenant<'m> {
    /// Whether a batch can launch now: the window closed on size or on
    /// time.
    fn ready(&self, now: u64) -> bool {
        match self.queue.front() {
            None => false,
            Some(front) => {
                self.queue.len() >= self.cfg.max_batch
                    || now >= front.enqueue_ns.saturating_add(self.cfg.window_ns)
            }
        }
    }

    /// The future instant at which the forming batch's time window
    /// closes (`None` when the queue is empty; launch-on-size needs no
    /// timer, [`Tenant::ready`] sees it immediately).
    fn window_trigger(&self) -> Option<u64> {
        self.queue
            .front()
            .map(|front| front.enqueue_ns.saturating_add(self.cfg.window_ns))
    }

    /// The network this tenant currently dispatches to (the faulty twin
    /// while an injected fault is live, the deployment otherwise).
    fn active_net(&self) -> &'m CompiledNetwork {
        self.faulty.unwrap_or(self.net)
    }

    /// Whether the tenant is quarantined (launches suppressed).
    fn quarantined(&self) -> bool {
        self.health
            .as_ref()
            .is_some_and(|h| h.quarantined_until.is_some())
    }
}

/// A scheduled fault injection (see [`Broker::inject_fault`]).
struct ChaosEvent<'m> {
    at_ns: u64,
    model: usize,
    faulty: &'m CompiledNetwork,
}

/// FNV-1a over the logits' exact bit patterns — the canary digest.
fn logits_digest(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A launched batch in flight on the simulated engine.
struct InFlight {
    model: usize,
    batch_id: u64,
    start_ns: u64,
    done_ns: u64,
    requests: Vec<Queued>,
    captures: Vec<Capture>,
}

/// The continuous-batching broker (see the [module docs](self)).
///
/// The broker borrows its deployed models (`'m`), so compile them — or
/// deploy them warm through a
/// [`PlanCache`](crate::compiler::cache::PlanCache) — first, then open
/// the worker pool and run:
///
/// # Examples
///
/// ```
/// use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
/// use yoloc_core::engine::WorkerPool;
/// use yoloc_core::serve::{
///     ArrivalPattern, Broker, BrokerConfig, LoadGen, TenantConfig, TrafficSpec, VirtualClock,
/// };
/// use yoloc_models::zoo;
///
/// let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
/// let net = CompiledNetwork::compile_random(&desc, 7, CompileOptions::paper_default())?;
/// let trace = LoadGen::new(11).trace(
///     &[TrafficSpec {
///         model: 0,
///         pattern: ArrivalPattern::Poisson { rate_rps: 5_000.0 },
///         deadline_ns: Some(10_000_000),
///     }],
///     2_000_000, // 2 ms of simulated traffic
/// );
/// let out = WorkerPool::with(2, |pool| {
///     let mut broker = Broker::new(VirtualClock::new(), BrokerConfig::default_serving());
///     broker.deploy("vgg", &net, TenantConfig::default_serving());
///     broker.run(&trace, pool)
/// });
/// assert_eq!(out.report.offered, trace.len() as u64);
/// assert_eq!(
///     out.report.completed + out.report.shed + out.report.rejected + out.report.timed_out,
///     out.report.offered
/// );
/// # Ok::<(), yoloc_models::NetworkError>(())
/// ```
pub struct Broker<'m, C: ServeClock> {
    clock: C,
    cfg: BrokerConfig,
    tenants: Vec<Tenant<'m>>,
    chaos: Vec<ChaosEvent<'m>>,
    next_batch_id: u64,
    rr_cursor: usize,
}

impl<'m, C: ServeClock> Broker<'m, C> {
    /// A broker with no deployments yet.
    pub fn new(clock: C, cfg: BrokerConfig) -> Self {
        Broker {
            clock,
            cfg,
            tenants: Vec::new(),
            chaos: Vec::new(),
            next_batch_id: 0,
            rr_cursor: 0,
        }
    }

    /// Registers a deployed model as the next tenant, returning its
    /// index (the `model` field traffic specs target).
    ///
    /// With [`BrokerConfig::health`] set, this also runs the tenant's
    /// golden probe once on the pristine deployment and stores the
    /// logits digest the canary will compare against.
    pub fn deploy(&mut self, name: &str, net: &'m CompiledNetwork, cfg: TenantConfig) -> usize {
        assert!(cfg.queue_cap > 0, "queue capacity must be positive");
        assert!(cfg.max_batch > 0, "batch size bound must be positive");
        let health = self.cfg.health.map(|h| {
            let idx = self.tenants.len();
            let (c, hh, w) = net.input_shape();
            let golden_input = Tensor::rand_uniform(
                &[1, c, hh, w],
                0.0,
                1.0,
                &mut StdRng::seed_from_u64(sample_stream_seed(h.canary_seed, 2 * idx)),
            );
            let noise_seed = sample_stream_seed(h.canary_seed, 2 * idx + 1);
            let mut arena = net.take_arena();
            net.infer_in(
                &golden_input,
                &mut StdRng::seed_from_u64(noise_seed),
                &mut arena,
            );
            let digest = logits_digest(arena.output().data());
            net.give_arena(arena);
            TenantHealth {
                golden_input,
                noise_seed,
                digest,
                last_canary_ns: 0,
                force_canary: true,
                probes: 0,
                consecutive_failures: 0,
                failures_at: Vec::new(),
                repairs_at: Vec::new(),
                quarantined_until: None,
                quarantined_total_ns: 0,
                pending: Vec::new(),
                pending_caps: Vec::new(),
            }
        });
        self.tenants.push(Tenant {
            name: name.to_string(),
            net,
            faulty: None,
            cfg,
            queue: VecDeque::new(),
            max_depth: 0,
            batches: 0,
            health,
        });
        self.tenants.len() - 1
    }

    /// Schedules a deterministic fault injection: at simulated instant
    /// `at_ns`, tenant `model`'s dispatch (batches *and* canary probes)
    /// swaps to `faulty` — typically the same description compiled with
    /// a `FaultConfig`, so subsequent inferences are genuinely corrupt.
    /// The swap reverts to the pristine deployment when the tenant's
    /// quarantine lapses (the modeled remap-onto-spares repair).
    ///
    /// Without [`BrokerConfig::health`] there is no canary to notice:
    /// the corrupt responses are served silently — the baseline the
    /// fault bench measures against.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not deployed or the twin's input shape
    /// differs from the deployment's.
    pub fn inject_fault(&mut self, model: usize, at_ns: u64, faulty: &'m CompiledNetwork) {
        let t = self
            .tenants
            .get(model)
            .expect("inject_fault targets an undeployed model");
        assert_eq!(
            t.net.input_shape(),
            faulty.input_shape(),
            "faulty twin must accept the deployment's input shape"
        );
        self.chaos.push(ChaosEvent {
            at_ns,
            model,
            faulty,
        });
        self.chaos.sort_by_key(|e| e.at_ns);
    }

    /// Deployed model names, in tenant order.
    pub fn model_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// Runs the serving loop over `trace` (sorted by arrival time) to
    /// completion: every offered request is admitted, shed or rejected,
    /// and every admitted request executes. Returns the per-request
    /// outcomes, the aggregated [`ServeReport`], and (when capturing)
    /// per-request logits + execution reports.
    ///
    /// # Panics
    ///
    /// Panics if the trace is unsorted or targets an unknown model.
    pub fn run<'env>(&mut self, trace: &[Arrival], pool: &WorkerPool<'env>) -> ServeOutput
    where
        'm: 'env,
    {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "trace must be sorted by arrival time"
        );
        assert!(
            trace.iter().all(|a| a.model < self.tenants.len()),
            "trace targets an undeployed model"
        );
        self.chaos.sort_by_key(|e| e.at_ns);
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
        let mut captures: Vec<Capture> = Vec::new();
        let mut in_flight: Option<InFlight> = None;
        let mut next_arr = 0usize;
        let mut next_chaos = 0usize;
        loop {
            let now = self.clock.now_ns();
            // 1. Admit every arrival that is due.
            while next_arr < trace.len() && trace[next_arr].arrival_ns <= now {
                self.admit(&trace[next_arr], now, &mut outcomes);
                next_arr += 1;
            }
            // 1b. Trip every fault injection that is due.
            while next_chaos < self.chaos.len() && self.chaos[next_chaos].at_ns <= now {
                let e = &self.chaos[next_chaos];
                self.tenants[e.model].faulty = Some(e.faulty);
                next_chaos += 1;
            }
            // 1c. Complete lapsed quarantines: dispatch returns to the
            //     repaired deployment; the next launch re-validates it.
            for t in &mut self.tenants {
                if let Some(h) = t.health.as_mut() {
                    if h.quarantined_until.is_some_and(|u| now >= u) {
                        h.quarantined_until = None;
                        h.repairs_at.push(now);
                        h.force_canary = true;
                        t.faulty = None;
                    }
                }
            }
            // 1d. Time out queued requests whose deadline has already
            //     passed (health mode only — a dead-on-arrival launch
            //     wastes engine time the quarantined fabric can't spare).
            if self.cfg.health.is_some() {
                for (m, t) in self.tenants.iter_mut().enumerate() {
                    t.queue.retain(|q| {
                        let expired = q.deadline_ns != NO_DEADLINE && q.deadline_ns <= now;
                        if expired {
                            outcomes.push(RequestOutcome {
                                id: q.id,
                                model: m,
                                arrival_ns: q.arrival_ns,
                                enqueue_ns: q.enqueue_ns,
                                start_ns: 0,
                                finish_ns: now,
                                batch_id: NO_BATCH,
                                batch_size: 0,
                                deadline_ns: q.deadline_ns,
                                retries: q.retries,
                                disposition: Disposition::TimedOut,
                            });
                        }
                        !expired
                    });
                }
            }
            // 2. Retire a finished batch. With health enabled the
            //    results are held pending until a canary confirms them.
            if in_flight.as_ref().is_some_and(|f| now >= f.done_ns) {
                let f = in_flight.take().expect("in-flight batch");
                let t = &mut self.tenants[f.model];
                if let Some(h) = t.health.as_mut() {
                    for q in &f.requests {
                        h.pending.push(PendingDone {
                            q: *q,
                            start_ns: f.start_ns,
                            finish_ns: f.done_ns,
                            batch_id: f.batch_id,
                            batch_size: f.requests.len(),
                        });
                    }
                    h.pending_caps.extend(f.captures);
                } else {
                    for q in &f.requests {
                        outcomes.push(RequestOutcome {
                            id: q.id,
                            model: f.model,
                            arrival_ns: q.arrival_ns,
                            enqueue_ns: q.enqueue_ns,
                            start_ns: f.start_ns,
                            finish_ns: f.done_ns,
                            batch_id: f.batch_id,
                            batch_size: f.requests.len(),
                            deadline_ns: q.deadline_ns,
                            retries: q.retries,
                            disposition: Disposition::Completed,
                        });
                    }
                    captures.extend(f.captures);
                }
            }
            // 3. Launch the next ready tenant (round-robin) onto the
            //    idle engine, running its canary first when one is due.
            if in_flight.is_none() {
                if let Some(m) = self.pick_ready(now) {
                    if self.canary_due(m, now) {
                        let (ok, probe_ns) = self.run_canary(m, now);
                        if ok {
                            self.on_canary_pass(m, &mut outcomes, &mut captures);
                            let mut f = self.launch(m, now, pool);
                            // The probe ran on the engine ahead of the
                            // batch; charge its time to the interval.
                            f.done_ns += probe_ns;
                            in_flight = Some(f);
                        } else {
                            self.on_canary_fail(m, now, true, &mut outcomes);
                            // The failed probe still occupied the engine.
                            in_flight = Some(InFlight {
                                model: m,
                                batch_id: NO_BATCH,
                                start_ns: now,
                                done_ns: now + probe_ns,
                                requests: Vec::new(),
                                captures: Vec::new(),
                            });
                        }
                    } else {
                        in_flight = Some(self.launch(m, now, pool));
                    }
                }
            }
            // 4. Advance to the next event: arrival, fault injection,
            //    batch completion, or (engine idle) the earliest window
            //    expiry / quarantine lapse.
            let mut next_event: Option<u64> = None;
            let mut fold = |t: u64| {
                next_event = Some(next_event.map_or(t, |cur: u64| cur.min(t)));
            };
            if next_arr < trace.len() {
                fold(trace[next_arr].arrival_ns);
            }
            if next_chaos < self.chaos.len() {
                fold(self.chaos[next_chaos].at_ns);
            }
            match &in_flight {
                Some(f) => fold(f.done_ns),
                None => {
                    for t in &self.tenants {
                        if t.quarantined() {
                            // A quarantined tenant can't launch; its
                            // next actionable instant is the repair.
                            if let Some(h) = t.health.as_ref() {
                                if let Some(u) = h.quarantined_until {
                                    if !t.queue.is_empty() {
                                        fold(u);
                                    }
                                }
                            }
                        } else if let Some(trigger) = t.window_trigger() {
                            fold(trigger);
                        }
                    }
                }
            }
            match next_event {
                // No arrivals left, engine idle, queues empty: drained.
                None => break,
                Some(t) => self.clock.advance_to(t),
            }
        }
        // Resolve executions still awaiting confirmation: one final
        // canary per tenant decides — confirmed, or (the trace is over,
        // no retry can run) timed out.
        let shutdown_ns = self.clock.now_ns();
        for m in 0..self.tenants.len() {
            let has_pending = self.tenants[m]
                .health
                .as_ref()
                .is_some_and(|h| !h.pending.is_empty());
            if has_pending {
                let (ok, _probe_ns) = self.run_canary(m, shutdown_ns);
                if ok {
                    self.on_canary_pass(m, &mut outcomes, &mut captures);
                } else {
                    self.on_canary_fail(m, shutdown_ns, false, &mut outcomes);
                }
            }
        }
        let names = self.model_names();
        let max_depths: Vec<u64> = self.tenants.iter().map(|t| t.max_depth).collect();
        let batches: Vec<u64> = self.tenants.iter().map(|t| t.batches).collect();
        let report = ServeReport::build(
            self.cfg.infer_seed,
            &names,
            &outcomes,
            &max_depths,
            &batches,
        );
        let health = if self.cfg.health.is_some() {
            self.tenants
                .iter()
                .map(|t| {
                    let h = t.health.as_ref().expect("health state per tenant");
                    TenantHealthStats {
                        model: t.name.clone(),
                        probes: h.probes,
                        failures_at_ns: h.failures_at.clone(),
                        repairs_at_ns: h.repairs_at.clone(),
                        quarantined_ns: h.quarantined_total_ns,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        ServeOutput {
            outcomes,
            report,
            captures,
            health,
        }
    }

    /// Admits one arrival into its tenant's queue, applying the
    /// overflow policy when the queue is at its bound.
    fn admit(&mut self, a: &Arrival, now: u64, outcomes: &mut Vec<RequestOutcome>) {
        let t = &mut self.tenants[a.model];
        let refused = |id: u64, arrival: &Arrival, q: Option<&Queued>, d: Disposition| {
            // Shed outcomes describe the *old* queued request; rejected
            // outcomes describe the refused arrival itself.
            let (arr, enq, dl) = match q {
                Some(q) => (q.arrival_ns, q.enqueue_ns, q.deadline_ns),
                None => (arrival.arrival_ns, now, arrival.deadline_ns),
            };
            RequestOutcome {
                id,
                model: arrival.model,
                arrival_ns: arr,
                enqueue_ns: enq,
                start_ns: 0,
                finish_ns: now,
                batch_id: NO_BATCH,
                batch_size: 0,
                deadline_ns: dl,
                retries: 0,
                disposition: d,
            }
        };
        if t.queue.len() >= t.cfg.queue_cap {
            match t.cfg.admission {
                AdmissionPolicy::RejectNew => {
                    outcomes.push(refused(a.id, a, None, Disposition::Rejected));
                    return;
                }
                AdmissionPolicy::ShedOldest => {
                    let old = t.queue.pop_front().expect("full queue has a front");
                    outcomes.push(refused(old.id, a, Some(&old), Disposition::Shed));
                }
            }
        }
        t.queue.push_back(Queued {
            id: a.id,
            arrival_ns: a.arrival_ns,
            enqueue_ns: now,
            deadline_ns: a.deadline_ns,
            input_seed: a.input_seed,
            retries: 0,
        });
        t.max_depth = t.max_depth.max(t.queue.len() as u64);
    }

    /// Round-robin pick of the next tenant with a closed batch window
    /// (quarantined tenants keep queueing but never launch).
    fn pick_ready(&mut self, now: u64) -> Option<usize> {
        let n = self.tenants.len();
        for i in 0..n {
            let m = (self.rr_cursor + i) % n;
            if self.tenants[m].ready(now) && !self.tenants[m].quarantined() {
                self.rr_cursor = (m + 1) % n;
                return Some(m);
            }
        }
        None
    }

    /// Whether tenant `m`'s canary should run ahead of its next launch.
    fn canary_due(&self, m: usize, now: u64) -> bool {
        let Some(hcfg) = self.cfg.health else {
            return false;
        };
        let h = self.tenants[m].health.as_ref().expect("health state");
        h.force_canary
            || h.probes == 0
            || now >= h.last_canary_ns.saturating_add(hcfg.canary_period_ns)
    }

    /// Runs tenant `m`'s golden probe on its *active* network and
    /// returns whether the logits digest matched, plus the probe's
    /// modeled engine time.
    fn run_canary(&mut self, m: usize, now: u64) -> (bool, u64) {
        let overhead = self.cfg.batch_overhead_ns;
        let t = &mut self.tenants[m];
        let net = t.faulty.unwrap_or(t.net);
        let h = t.health.as_mut().expect("health state");
        let mut rng = StdRng::seed_from_u64(h.noise_seed);
        let mut arena = net.take_arena();
        net.infer_in(&h.golden_input, &mut rng, &mut arena);
        let digest = logits_digest(arena.output().data());
        let probe_ns = overhead + arena.report().latency_ns.max(0.0).round() as u64;
        net.give_arena(arena);
        h.probes += 1;
        h.last_canary_ns = now;
        h.force_canary = false;
        (digest == h.digest, probe_ns.max(1))
    }

    /// A passing canary confirms everything executed since the last
    /// pass: pending results become [`Disposition::Completed`] and
    /// their captures are released.
    fn on_canary_pass(
        &mut self,
        m: usize,
        outcomes: &mut Vec<RequestOutcome>,
        captures: &mut Vec<Capture>,
    ) {
        let t = &mut self.tenants[m];
        let h = t.health.as_mut().expect("health state");
        h.consecutive_failures = 0;
        for p in h.pending.drain(..) {
            outcomes.push(RequestOutcome {
                id: p.q.id,
                model: m,
                arrival_ns: p.q.arrival_ns,
                enqueue_ns: p.q.enqueue_ns,
                start_ns: p.start_ns,
                finish_ns: p.finish_ns,
                batch_id: p.batch_id,
                batch_size: p.batch_size,
                deadline_ns: p.q.deadline_ns,
                retries: p.q.retries,
                disposition: Disposition::Completed,
            });
        }
        captures.append(&mut h.pending_caps);
    }

    /// A failing canary voids everything executed since the last pass
    /// (nothing corrupt is ever released), re-queues the voided
    /// requests within their retry budget and deadline (front of the
    /// queue, original arrival metadata), times out the rest, and
    /// quarantines the tenant for the repair window — doubling per
    /// consecutive failure as the retry backoff. With `allow_retry`
    /// false (shutdown), every voided request times out.
    fn on_canary_fail(
        &mut self,
        m: usize,
        now: u64,
        allow_retry: bool,
        outcomes: &mut Vec<RequestOutcome>,
    ) {
        let hcfg = self.cfg.health.expect("health config");
        let t = &mut self.tenants[m];
        let h = t.health.as_mut().expect("health state");
        h.failures_at.push(now);
        let backoff = h.consecutive_failures.min(16);
        h.consecutive_failures += 1;
        let repair_ns = (hcfg.repair_ns << backoff).max(1);
        if allow_retry {
            h.quarantined_until = Some(now + repair_ns);
            h.quarantined_total_ns += repair_ns;
        }
        // Corrupt captures are dropped with the voided executions.
        h.pending_caps.clear();
        let pending = std::mem::take(&mut h.pending);
        // Reverse so push_front restores execution order ahead of
        // anything newly queued.
        for p in pending.into_iter().rev() {
            let mut q = p.q;
            let expired = q.deadline_ns != NO_DEADLINE && q.deadline_ns <= now;
            if allow_retry && q.retries < hcfg.max_retries && !expired {
                q.retries += 1;
                t.queue.push_front(q);
            } else {
                outcomes.push(RequestOutcome {
                    id: q.id,
                    model: m,
                    arrival_ns: q.arrival_ns,
                    enqueue_ns: q.enqueue_ns,
                    start_ns: 0,
                    finish_ns: now,
                    batch_id: NO_BATCH,
                    batch_size: 0,
                    deadline_ns: q.deadline_ns,
                    retries: q.retries,
                    disposition: Disposition::TimedOut,
                });
            }
        }
        t.max_depth = t.max_depth.max(t.queue.len() as u64);
    }

    /// Closes tenant `m`'s batch window, executes the batch across the
    /// pool, and charges the modeled engine-busy interval.
    fn launch<'env>(&mut self, m: usize, now: u64, pool: &WorkerPool<'env>) -> InFlight
    where
        'm: 'env,
    {
        let capture = self.cfg.capture;
        let infer_seed = self.cfg.infer_seed;
        let batch_id = self.next_batch_id;
        self.next_batch_id += 1;
        let (requests, net) = {
            let t = &mut self.tenants[m];
            let k = t.queue.len().min(t.cfg.max_batch);
            t.batches += 1;
            // Dispatch goes to the active network — the faulty twin
            // while an injected fault is live (the canary's job is to
            // catch exactly this before results are released).
            (t.queue.drain(..k).collect::<Vec<_>>(), t.active_net())
        };
        let (c, h, w) = net.input_shape();
        // One job per request: per-request RNG stream + recycled arena,
        // exactly the batched engine's discipline — which is why the
        // result cannot depend on batch composition or worker count.
        let jobs: Vec<_> = requests
            .iter()
            .map(|q| {
                let x = Tensor::rand_uniform(
                    &[1, c, h, w],
                    0.0,
                    1.0,
                    &mut StdRng::seed_from_u64(q.input_seed),
                );
                let id = q.id;
                move || {
                    let mut rng =
                        StdRng::seed_from_u64(sample_stream_seed(infer_seed, id as usize));
                    let mut arena = net.take_arena();
                    net.infer_in(&x, &mut rng, &mut arena);
                    arena
                }
            })
            .collect();
        let arenas = pool.run(jobs);
        let mut service_ns = self.cfg.batch_overhead_ns;
        let mut caps = Vec::new();
        for (q, arena) in requests.iter().zip(arenas) {
            // The modeled chip latency of this request is the engine
            // time it occupies; floats only feed the u64 timeline
            // through one deterministic rounding.
            service_ns += arena.report().latency_ns.max(0.0).round() as u64;
            if capture {
                caps.push(Capture {
                    id: q.id,
                    logits: arena.output().data().to_vec(),
                    exec: arena.report().clone(),
                });
            }
            net.give_arena(arena);
        }
        InFlight {
            model: m,
            batch_id,
            start_ns: now,
            done_ns: now + service_ns.max(1),
            requests,
            captures: caps,
        }
    }
}
