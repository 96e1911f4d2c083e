//! Equilibrium-as-a-service: a long-running query daemon over the Public
//! Option solvers.
//!
//! The paper's questions — "what does the rate equilibrium look like at
//! this capacity?", "what does a monopolist charge on this workload?",
//! "how big must the Public Option be?" — are each a parameterized solve
//! over a deterministic scenario. This crate turns the batch solvers into
//! a service: a dependency-free HTTP/1.1 + JSON daemon on
//! `std::net::TcpListener` with
//!
//! * three query endpoints (`/v1/equilibrium`, `/v1/strategy`,
//!   `/v1/capacity`), a `/v1/batch` endpoint solving an array of queries
//!   through one warm pass, plus `/healthz`, `/v1/stats` and
//!   `/v1/shutdown`;
//! * a **sharded solve protocol** ([`dist`]): every daemon answers
//!   partial-aggregate queries (`/v1/shard/aggregate`), and a daemon
//!   started with a shard registry coordinates a distributed
//!   water-filling solve (`/v1/dist/solve`) whose results are
//!   byte-identical to the single-process solver — block-restarted Kahan
//!   partials recombine exactly, so the bisection takes the identical
//!   trajectory;
//! * an **event-driven connection layer** ([`server`]): one
//!   readiness-polling reactor owns every socket read (nonblocking
//!   accept, HTTP/1.1 keep-alive, bounded pipelining, read/idle
//!   timeouts), so a slow or half-closed client can never occupy a
//!   worker thread;
//! * a sharded LRU **response cache** keyed by canonicalized parameters
//!   ([`api`]) — repeated questions replay the first solve's exact bytes;
//! * a **warm pool** ([`state`]) carrying `SweepCache`/`WarmStart`/
//!   `GameWarmStart` solver state across requests, exact by the PR 3
//!   contract (hints change effort, never values) — batch sub-queries
//!   run the identical path, so batch responses are byte-identical to
//!   singles;
//! * a fixed worker pool behind a bounded queue with `429` shedding, and
//!   per-request panic isolation so an injected chaos fault never drops
//!   the listener.
//!
//! The [`client`] module is the matching blocking client: one-shot
//! free functions (the `Connection: close` baseline) and a keep-alive
//! [`client::Client`] with pipelining, used by the loadgen harness and
//! CI smoke job. Around it sits the resilience stack this PR's failure
//! drills exercise: [`client::ResilientClient`] (seeded-jitter backoff,
//! a retry-budget token bucket, per-endpoint circuit breakers) on the
//! client side, and on the wire the deterministic TCP chaos proxy
//! ([`chaosnet`]) whose fault schedule is a pure function of
//! `(seed, conn_id, op_index)`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod cache;
pub mod chaosnet;
pub mod client;
pub mod dist;
pub mod http;
pub mod server;
pub mod state;

pub use api::{parse_batch, ApiError, ApiRequest};
pub use cache::{CacheStats, ShardedCache};
pub use chaosnet::{scheduled_fault, ChaosNetConfig, ChaosProxy, FaultEvent, NetFault};
pub use client::{Client, ResilienceStats, ResilientClient, RetryPolicy};
pub use dist::{DistParams, HttpShardSource, ShardOp, ShardQuery, ShardRpcError};
pub use server::{spawn, ServeConfig, ServerHandle, Stat};
pub use state::{ScenarioStore, WarmPool};
