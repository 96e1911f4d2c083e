//! In-process replay of the daemon's request path for the traced runs.
//!
//! Each replayed request goes through the public entry points the
//! daemon's handlers use — [`ApiRequest::parse`] and
//! [`ApiRequest::canonical_key`], [`ShardedCache`] lookups and inserts,
//! and on a miss the same solver calls the handler makes — with a span
//! around every call into a layer. Effort counters come from the solver
//! state the calls return ([`SweepEffort`] via the warm pool's caches,
//! [`ScaledReport`] from the simulator).

use crate::http::{Conn, Response};
use crate::trace::Tracer;
use pubopt_core::{competitive_equilibrium_warm, minimum_po_capacity, IspStrategy};
use pubopt_demand::Population;
use pubopt_eq::{consumer_surplus, try_solve_maxmin_warm, SweepEffort};
use pubopt_netsim::{compare_report_to_maxmin, FlowGroup, ScaledSim, SimConfig};
use pubopt_num::recover::SolverPolicy;
use pubopt_num::Tolerance;
use pubopt_serve::api::{CapacityParams, EqParams, StrategyParams, WhatifParams};
use pubopt_serve::{ApiRequest, ScenarioStore, ShardedCache, WarmPool};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulated warm-up and measurement seconds of a `/v1/whatif` run (part
/// of the endpoint's contract, mirrored here).
const WHATIF_WINDOW_S: f64 = 30.0;

/// Effort totals gathered during a traced run.
#[derive(Debug, Default, Clone)]
pub struct Effort {
    /// Water-level effort of direct equilibrium solves.
    pub eq: SweepEffort,
    /// Water-level effort inside game points.
    pub game: SweepEffort,
    /// Game points solved (`competitive_equilibrium_warm` calls).
    pub game_points: u64,
    /// Simulator runs.
    pub sim_runs: u64,
    /// Aggregated classes over all simulator runs.
    pub sim_classes: u64,
    /// Class updates over all simulator runs.
    pub sim_updates: u64,
    /// Simulator wall time, ns.
    pub sim_ns: u64,
    /// CPs evaluated by the timed columnar profile kernel, and its ns.
    pub profile_cps: u64,
    /// See `profile_cps`.
    pub profile_ns: u64,
}

/// `after - before`, counter by counter.
pub fn effort_delta(after: SweepEffort, before: SweepEffort) -> SweepEffort {
    SweepEffort {
        solves: after.solves.saturating_sub(before.solves),
        warm_solves: after.warm_solves.saturating_sub(before.warm_solves),
        warm_hits: after.warm_hits.saturating_sub(before.warm_hits),
        lambda_evals: after.lambda_evals.saturating_sub(before.lambda_evals),
        segment_probes: after.segment_probes.saturating_sub(before.segment_probes),
        bisect_iters: after.bisect_iters.saturating_sub(before.bisect_iters),
    }
}

/// Where a handler's spans go: the tracer, the handler span that is
/// their parent, and the request id.
#[derive(Clone, Copy)]
struct At<'t> {
    t: &'t Tracer,
    parent: u64,
    req: u64,
}

impl At<'_> {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.t.span(name, Some(self.parent), self.req, |_| f())
    }
}

/// The daemon-side state a replay runs against, held in process.
pub struct Server {
    /// Populations.
    pub store: ScenarioStore,
    /// Warm solver state.
    pub warm: WarmPool,
    /// Response cache (the daemon's default geometry).
    pub cache: ShardedCache,
    /// Effort totals.
    pub effort: Mutex<Effort>,
}

impl Default for Server {
    fn default() -> Self {
        let defaults = pubopt_serve::ServeConfig::default();
        Server {
            store: ScenarioStore::default(),
            warm: WarmPool::default(),
            cache: ShardedCache::new(defaults.cache_shards, defaults.cache_per_shard),
            effort: Mutex::new(Effort::default()),
        }
    }
}

impl Server {
    fn effort(&self) -> std::sync::MutexGuard<'_, Effort> {
        self.effort.lock().expect("effort totals poisoned")
    }

    /// Replay one request under a `serve.request` span; returns the
    /// span's duration in ns (the in-process service time) and whether
    /// the cache answered it.
    pub fn request(
        &self,
        t: &Tracer,
        req: u64,
        path: &str,
        body: &str,
    ) -> Result<(u64, bool), String> {
        let start = t.now_ns();
        let hit = t.span("serve.request", None, req, |root| {
            let (api, key) = t
                .span("serve.parse", Some(root), req, |_| {
                    ApiRequest::parse(path, body).map(|api| {
                        let key = api.canonical_key();
                        (api, key)
                    })
                })
                .map_err(|e| e.message)?;
            let hit = t.span("serve.cache_get", Some(root), req, |_| self.cache.get(&key));
            if hit.is_none() {
                self.handle(t, root, req, &api)?;
                t.span("serve.cache_insert", Some(root), req, |_| {
                    self.cache.insert(&key, Arc::new(String::new()))
                });
            }
            Ok::<bool, String>(hit.is_some())
        })?;
        Ok((t.now_ns() - start, hit))
    }

    /// A traced request: replay it in process, then send it to the
    /// daemon on `conn` under an `http.round_trip` span. Returns the
    /// daemon's response, the round trip, and whether the replay was a
    /// cache hit (`None` when the replay failed); the round trip minus the
    /// in-process service time is appended to `transport_us`.
    pub fn replay_and_send(
        &self,
        t: &Tracer,
        conn: &mut Conn,
        req: u64,
        path: &str,
        body: &str,
        transport_us: &Mutex<Vec<f64>>,
    ) -> (io::Result<Response>, Duration, Option<bool>) {
        let service = self.request(t, req, path, body);
        let t0 = Instant::now();
        let resp = t.span("http.round_trip", None, req, |_| {
            conn.request("POST", path, body)
        });
        let rtt = t0.elapsed();
        if let Ok((service_ns, _)) = service {
            let us = (rtt.as_nanos() as f64 - service_ns as f64) / 1e3;
            transport_us
                .lock()
                .expect("transport log poisoned")
                .push(us);
        }
        (resp, rtt, service.ok().map(|(_, hit)| hit))
    }

    /// Prime the cache with a finished body, as a solved request would.
    pub fn prime(&self, path: &str, body: &str, response: String) -> Result<(), String> {
        let api = ApiRequest::parse(path, body).map_err(|e| e.message)?;
        self.cache.insert(&api.canonical_key(), Arc::new(response));
        Ok(())
    }

    fn handle(&self, t: &Tracer, parent: u64, req: u64, api: &ApiRequest) -> Result<(), String> {
        let name = match api {
            ApiRequest::Equilibrium(_) => "serve.handle.equilibrium",
            ApiRequest::Strategy(_) => "serve.handle.strategy",
            ApiRequest::Whatif(_) => "serve.handle.whatif",
            ApiRequest::Capacity(_) => "serve.handle.capacity",
        };
        t.span(name, Some(parent), req, |h| {
            let at = At { t, parent: h, req };
            match api {
                ApiRequest::Equilibrium(p) => self.equilibrium(at, p)?,
                ApiRequest::Strategy(p) => self.strategy(at, p),
                ApiRequest::Whatif(p) => self.whatif(at, p),
                ApiRequest::Capacity(p) => self.capacity(at, p),
            }
            Ok(())
        })
    }

    fn equilibrium(&self, at: At, p: &EqParams) -> Result<(), String> {
        let pop = self.store.population(p.scenario, p.n);
        let entry = self.warm.eq_entry(p.scenario, p.n, &pop);
        let mut entry = entry.lock().expect("eq warm entry poisoned");
        let entry = &mut *entry;
        let before = entry.cache.effort();
        let (eq, _) = at
            .span("eq.solve", || {
                try_solve_maxmin_warm(
                    &pop,
                    p.nu,
                    Tolerance::default(),
                    &SolverPolicy::default(),
                    &entry.cache,
                    &mut entry.warm,
                )
            })
            .map_err(|e| e.to_string())?;
        let delta = effort_delta(entry.cache.effort(), before);
        std::hint::black_box(consumer_surplus(&pop, &eq));
        // The kernel the solver assembles its profile with, timed on its
        // own at the solved water level.
        let w = eq.water_level.unwrap_or(f64::INFINITY);
        let cols = pop.columnar();
        let (mut thetas, mut demands) = (Vec::new(), Vec::new());
        let start = at.t.now_ns();
        at.span("demand.profile", || {
            cols.eval_thetas_at_water_into(w, &mut thetas);
            cols.eval_demands_at_water_into(w, &mut demands);
        });
        let ns = at.t.now_ns() - start;
        std::hint::black_box((&thetas, &demands));
        let mut e = self.effort();
        e.eq.merge(&delta);
        e.profile_cps += pop.len() as u64;
        e.profile_ns += ns;
        Ok(())
    }

    /// One game point through the warm state, with its effort booked.
    fn game_point(
        &self,
        at: At,
        pop: &Population,
        nu: f64,
        strategy: IspStrategy,
        warm: &mut pubopt_core::GameWarmStart,
    ) -> pubopt_core::PartitionSolution {
        let before = warm.effort();
        let sol = at.span("core.game_point", || {
            competitive_equilibrium_warm(pop, nu, strategy, Tolerance::COARSE, warm)
        });
        let delta = effort_delta(warm.effort(), before);
        let mut e = self.effort();
        e.game.merge(&delta);
        e.game_points += 1;
        sol
    }

    fn strategy(&self, at: At, p: &StrategyParams) {
        let pop = self.store.population(p.scenario, p.n);
        let entry = self.warm.game_entry(p.scenario, p.n, p.kappa);
        let mut warm = entry.lock().expect("game warm entry poisoned");
        for &c in &p.cs {
            let sol = self.game_point(at, &pop, p.nu, IspStrategy::new(p.kappa, c), &mut warm);
            std::hint::black_box((
                sol.outcome.isp_surplus(&pop),
                sol.outcome.consumer_surplus(&pop),
            ));
        }
    }

    fn whatif(&self, at: At, p: &WhatifParams) {
        let pop = self.store.population(p.scenario, p.n);
        let outcome = {
            let entry = self.warm.game_entry(p.scenario, p.n, p.kappa);
            let mut warm = entry.lock().expect("game warm entry poisoned");
            let strategy = IspStrategy::new(p.kappa, p.c);
            self.game_point(at, &pop, p.nu, strategy, &mut warm).outcome
        };
        std::hint::black_box((outcome.isp_surplus(&pop), outcome.consumer_surplus(&pop)));
        let m = p.flows as f64;
        let tiers = [
            (outcome.partition.premium_indices(), p.kappa * p.nu * m),
            (
                outcome.partition.ordinary_indices(),
                (1.0 - p.kappa) * p.nu * m,
            ),
        ];
        for (indices, capacity) in tiers {
            if capacity <= 0.0 {
                continue;
            }
            // One flow group per CP with at least one flow, as the
            // endpoint builds them.
            let groups: Vec<FlowGroup> = indices
                .iter()
                .filter_map(|&i| {
                    let cp = &pop.cps()[i];
                    let flows = (cp.alpha * outcome.demands[i] * m).round();
                    (flows >= 1.0).then(|| {
                        FlowGroup::new(format!("cp-{i}"), flows as usize, cp.theta_hat, p.rtt)
                    })
                })
                .collect();
            if groups.is_empty() {
                continue;
            }
            let config = SimConfig {
                capacity,
                warmup: WHATIF_WINDOW_S,
                measure: WHATIF_WINDOW_S,
                ..SimConfig::default()
            };
            let mut sim = ScaledSim::new(groups.clone(), config, p.workers);
            let start = at.t.now_ns();
            let out = at.span("netsim.run", || sim.run());
            let ns = at.t.now_ns() - start;
            std::hint::black_box(compare_report_to_maxmin(&out.report, &groups, capacity));
            let mut e = self.effort();
            e.sim_runs += 1;
            e.sim_classes += out.classes as u64;
            e.sim_updates += out.updates;
            e.sim_ns += ns;
        }
    }

    fn capacity(&self, at: At, p: &CapacityParams) {
        let pop = self.store.population(p.scenario, p.n);
        std::hint::black_box(at.span("core.capacity", || {
            minimum_po_capacity(
                &pop,
                p.nu,
                p.target_fraction,
                p.c_max,
                p.grid_n,
                Tolerance::COARSE,
            )
        }));
    }
}
