//! Named fleet engines for differential tests and benchmarks.
//!
//! [`run_fleet`](crate::run_fleet) chooses its engine from what it can
//! observe: it shards when the spec has no autoscaler, no instrument is
//! attached, and the placement has at least two components to spread
//! over at least two cores. This module lets a caller name the engine
//! instead. Every [`Engine`] reports byte-identically to `run_fleet`;
//! only speed differs.

use crate::engine::{self, FleetRun};
use crate::fleet::{FleetSpec, FleetTenantSpec};
use crate::shard;
use tpu_core::TpuConfig;
use tpu_telemetry::RunTelemetry;

/// A fleet engine, chosen by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The whole fleet as one event loop on the calling thread.
    Single,
    /// The placement components spread over worker threads, whenever
    /// the spec allows sharding (no autoscaler); [`Engine::Single`]
    /// otherwise.
    Sharded {
        /// Worker thread count.
        workers: usize,
    },
    /// [`Engine::Single`] on the reference binary-heap event queue and
    /// the pre-index scan router: the unoptimized hot path that
    /// benchmarks measure speedups against.
    Baseline,
}

/// Run the fleet uninstrumented on `engine`.
///
/// # Panics
///
/// As [`run_fleet`](crate::run_fleet).
pub fn run(
    engine: Engine,
    spec: &FleetSpec,
    tenants: &[FleetTenantSpec],
    cfg: &TpuConfig,
) -> FleetRun {
    let placement = engine::prepare(spec, tenants, cfg);
    let mut tel = RunTelemetry::off();
    match engine {
        Engine::Sharded { workers } if spec.autoscale.is_none() => {
            let scopes = shard::partition(spec, &placement.assignments);
            engine::run_sharded(spec, tenants, cfg, placement, scopes, workers)
        }
        Engine::Baseline => engine::run_single(spec, tenants, cfg, &mut tel, placement, true),
        _ => engine::run_single(spec, tenants, cfg, &mut tel, placement, false),
    }
}
