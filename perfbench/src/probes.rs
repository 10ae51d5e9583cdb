//! Per-layer measurements taken outside a workload's job, each driving
//! one layer's public API alone on inputs shaped like the workload's.

use crate::bench::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use tpu_cluster::OutstandingIndex;
use tpu_serve::host::{HostCore, HostEvent};
use tpu_serve::service::ServiceCurve;
use tpu_serve::sim::{EventQueue, QueueBackend};
use tpu_serve::workload::ArrivalSource;
use tpu_serve::TenantSpec;
use tpu_telemetry::RequestLog;

/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 3;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&xs)
}

/// The event queue on a key stream replayed from request logs.
#[derive(Debug, Clone, Copy)]
pub struct QueueReplay {
    /// Host ns per event (one schedule plus one pop) on the timer wheel.
    pub wheel_ns: f64,
    /// The same on the reference binary heap, in the same run.
    pub heap_ns: f64,
    /// Most events pending at once during the replay.
    pub max_pending: usize,
}

/// Rebuild the engine's own future-event traffic from request logs and
/// replay it through [`EventQueue`] on both backends.
///
/// Each served request contributes its front-end arrival (scheduled
/// when the tenant's previous arrival pops) and, when `hop_ms` of its
/// tenant is positive, its delivery to the host (scheduled at arrival);
/// each batch contributes its die-free event (scheduled at dispatch).
/// Pushes and pops are interleaved in simulated-time order, so the
/// queue holds what the engine's queue held for these event kinds.
pub fn queue_replay(logs: &[&RequestLog], hop_ms: impl Fn(&str) -> f64) -> QueueReplay {
    // (time, order, key). At equal times, pops of events scheduled
    // earlier come first, then pushes, then pops of events scheduled
    // for the instant they were pushed — the engine's own order.
    const POP: u8 = 0;
    const PUSH: u8 = 1;
    const POP_SAME_INSTANT: u8 = 2;
    let mut ops: Vec<(f64, u8, f64)> = Vec::new();
    let event = |ops: &mut Vec<(f64, u8, f64)>, cause: f64, key: f64| {
        ops.push((cause, PUSH, key));
        ops.push((key, if key > cause { POP } else { POP_SAME_INSTANT }, key));
    };
    for log in logs {
        let hops: Vec<f64> = (0..log.tenant_count())
            .map(|t| hop_ms(log.tenant_name(t)))
            .collect();
        let mut arrivals: Vec<(usize, f64)> = log
            .records()
            .iter()
            .map(|r| (r.tenant, r.arrived_ms))
            .collect();
        arrivals.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut prev: Option<(usize, f64)> = None;
        for &(t, at) in &arrivals {
            let cause = match prev {
                Some((pt, p)) if pt == t => p,
                _ => 0.0,
            };
            event(&mut ops, cause, at);
            if hops[t] > 0.0 {
                event(&mut ops, at, at + hops[t]);
            }
            prev = Some((t, at));
        }
        let mut batches: Vec<(u32, u32, u64, u64)> = log
            .records()
            .iter()
            .map(|r| (r.host, r.die, r.dispatch_ms.to_bits(), r.end_ms.to_bits()))
            .collect();
        batches.sort_unstable();
        batches.dedup();
        for (_, _, start, end) in batches {
            event(&mut ops, f64::from_bits(start), f64::from_bits(end));
        }
    }
    ops.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut pending = 0usize;
    let mut max_pending = 0usize;
    let stream: Vec<f64> = ops
        .iter()
        .map(|&(_, order, key)| {
            if order == PUSH {
                pending += 1;
                max_pending = max_pending.max(pending);
                key
            } else {
                pending -= 1;
                -1.0
            }
        })
        .collect();
    drop(ops);
    let events = stream.iter().filter(|k| **k >= 0.0).count().max(1);
    let replay = |backend: QueueBackend| {
        let mut q: EventQueue<u32> = EventQueue::with_backend(backend);
        let t = Instant::now();
        for &k in &stream {
            if k < 0.0 {
                black_box(q.pop());
            } else {
                q.schedule(k, 0);
            }
        }
        assert!(q.is_empty(), "the replay pops every event it schedules");
        t.elapsed().as_secs_f64() * 1e9 / events as f64
    };
    let mut wheel = Vec::new();
    let mut heap = Vec::new();
    for _ in 0..REPS {
        wheel.push(replay(QueueBackend::TimerWheel));
        heap.push(replay(QueueBackend::BinaryHeap));
    }
    QueueReplay {
        wheel_ns: median(&wheel),
        heap_ns: median(&heap),
        max_pending,
    }
}

/// Host ns per least-outstanding pick (`least` plus the `update` that
/// charges the pick, plus one completion's `update`) over `replicas`
/// replicas.
pub fn route_ns_per_pick(replicas: usize, seed: u64) -> f64 {
    const PICKS: usize = 400_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let done: Vec<usize> = (0..PICKS).map(|_| rng.gen_range(0..replicas)).collect();
    median_of(|| {
        let mut idx = OutstandingIndex::new();
        let mut outstanding = vec![0usize; replicas];
        for r in 0..replicas {
            idx.insert(0, r);
        }
        let t = Instant::now();
        for &d in &done {
            let r = idx.least().expect("replicas are indexed");
            idx.update(outstanding[r], outstanding[r] + 1, r);
            outstanding[r] += 1;
            if outstanding[d] > 0 {
                idx.update(outstanding[d], outstanding[d] - 1, d);
                outstanding[d] -= 1;
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / PICKS as f64
    })
}

#[derive(Debug, Clone, Copy)]
enum HostEv {
    Arrival(usize),
    Host(HostEvent),
}

/// Host ns per arrival through one [`HostCore`] (enqueue, timer,
/// batch dispatch, die-free) driven by a one-host event loop over
/// `arrivals_ms`, drawn beforehand.
pub fn host_ns_per_arrival(
    tenant: &TenantSpec,
    curve: &ServiceCurve,
    dies: usize,
    seed: u64,
    arrivals_ms: &[f64],
) -> f64 {
    median_of(|| {
        let mut core = HostCore::new(dies, tpu_serve::Dispatch::LeastLoaded, seed);
        let slot = core.add_slot(tenant.clone(), *curve);
        let mut q: EventQueue<HostEv> = EventQueue::with_backend(QueueBackend::TimerWheel);
        q.schedule(arrivals_ms[0], HostEv::Arrival(0));
        let t = Instant::now();
        while let Some((now, ev)) = q.pop() {
            let dispatch = match ev {
                HostEv::Arrival(i) => {
                    core.enqueue(slot, now);
                    core.after_arrival(slot, now, &mut |at, e| q.schedule(at, HostEv::Host(e)));
                    match arrivals_ms.get(i + 1) {
                        Some(&next) => q.schedule(next, HostEv::Arrival(i + 1)),
                        None => core.set_draining(slot, true),
                    }
                    true
                }
                HostEv::Host(HostEvent::Timer { slot, generation }) => {
                    core.on_timer(slot, generation)
                }
                HostEv::Host(HostEvent::DieFree { die, generation }) => {
                    core.on_die_free(die, generation);
                    true
                }
                HostEv::Host(HostEvent::WeightSwap { die }) => {
                    core.on_weight_swap(die);
                    true
                }
            };
            if dispatch {
                core.try_dispatch(now, &mut |at, e| q.schedule(at, HostEv::Host(e)));
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / arrivals_ms.len() as f64;
        assert_eq!(
            core.latency_count(slot),
            arrivals_ms.len(),
            "every arrival is served"
        );
        ns
    })
}

/// Host ns per arrival drawn from `source` (fresh from construction).
pub fn ns_per_draw(source: &mut dyn ArrivalSource) -> f64 {
    median_of(|| {
        source.reset();
        let n = source.total();
        let t = Instant::now();
        let mut now = 0.0;
        while let Some(at) = source.next_arrival_ms(now) {
            now = at;
        }
        black_box(now);
        t.elapsed().as_secs_f64() * 1e9 / n as f64
    })
}

/// Connected components of the tenant↔host placement graph: the
/// independent sub-simulations the sharded engine can run in parallel.
pub fn components(hosts: usize, assignments: &[Vec<usize>]) -> usize {
    let mut parent: Vec<usize> = (0..hosts).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    for placed in assignments {
        for &h in placed.iter().skip(1) {
            let (a, b) = (find(&mut parent, placed[0]), find(&mut parent, h));
            parent[a] = b;
        }
    }
    let mut used = vec![false; hosts];
    for placed in assignments {
        for &h in placed {
            used[h] = true;
        }
    }
    let mut roots: Vec<usize> = (0..hosts)
        .filter(|&h| used[h])
        .map(|h| find(&mut parent, h))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_telemetry::RequestProbe;

    #[test]
    fn replay_holds_what_the_engine_held() {
        // Three arrivals 0.1 ms apart with a 0.25 ms hop, served as one
        // batch dispatched at 0.5 ms and done at 1.0 ms. Once the second
        // arrival pops at 0.2 ms, the queue holds two deliveries and the
        // third arrival; no instant holds more.
        let mut probe = RequestProbe::new(0);
        probe.batch_complete(0, "MLP0", 7.0, 0.5, 0.0, 1.0, &[0.1, 0.2, 0.3]);
        let mut log = RequestLog::new();
        log.absorb(probe);
        let q = queue_replay(&[&log], |_| 0.25);
        assert_eq!(q.max_pending, 3);
        assert!(q.wheel_ns > 0.0 && q.heap_ns > 0.0);
    }

    #[test]
    fn components_follow_shared_tenants() {
        // Tenant 0 spans hosts 0 and 1, tenant 1 spans 1 and 2, tenant 2
        // sits alone on host 3; host 4 carries nothing.
        let assignments = vec![vec![0, 1], vec![1, 2], vec![3]];
        assert_eq!(components(5, &assignments), 2);
    }
}
