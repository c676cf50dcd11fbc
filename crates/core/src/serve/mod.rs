//! The serving layer: continuous-batching multi-model inference over
//! the arena pool.
//!
//! This module turns the compiled-network runtime into a request
//! server, as a deterministic discrete-event simulation:
//!
//! * [`clock`] — the [`ServeClock`] abstraction: [`VirtualClock`] for
//!   tests (free time travel, host-independent timelines) and
//!   [`MonotonicClock`] for real-time replays.
//! * [`loadgen`] — [`LoadGen`], the seeded open-loop generator of
//!   Poisson / bursty / ramp arrival traces per model.
//! * [`broker`] — [`Broker`], the continuous-batching loop: bounded
//!   admission queues with shed-oldest / reject-new backpressure,
//!   batch windows closing on size or time, round-robin fairness
//!   across tenants, per-request deadlines — and, with a
//!   [`HealthConfig`], golden-probe canaries, quarantine + modeled
//!   repair, bounded retry, and deterministic fault injection
//!   ([`Broker::inject_fault`]).
//! * [`report`] — [`RequestOutcome`] per request and the aggregated
//!   [`ServeReport`] (p50/p95/p99 latency, sustained QPS, latency
//!   histograms, accounting identities), renderable as the
//!   `yoloc-bench-serve/3` JSON the `bench_serve` bin emits.
//!
//! Everything is seeded through
//! [`sample_stream_seed`](crate::engine::sample_stream_seed)-derived
//! streams — no ambient entropy anywhere — so identical inputs give
//! byte-identical reports on any host, at any worker count. The
//! `serve_sim` suite pins the timeline; `serve_parity` pins that the
//! brokered numerics are bit-identical to direct inference.

pub mod broker;
pub mod clock;
pub mod loadgen;
pub mod report;

pub use broker::{
    AdmissionPolicy, Broker, BrokerConfig, Capture, HealthConfig, ServeOutput, TenantConfig,
    TenantHealthStats,
};
pub use clock::{MonotonicClock, ServeClock, VirtualClock};
pub use loadgen::{Arrival, ArrivalPattern, LoadGen, TrafficSpec, NO_DEADLINE};
pub use report::{Disposition, ModelServeStats, RequestOutcome, ServeReport, NO_BATCH};
