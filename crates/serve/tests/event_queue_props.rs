//! Differential properties of the event core: the hierarchical timer
//! wheel must be observationally identical to the reference
//! `BinaryHeap` future-event list on *arbitrary* schedules — same pop
//! times, same payloads, same `(time, sequence)` ordering — because the
//! engines' bit-identical-per-seed contract rests on the queue.

use proptest::prelude::*;
use tpu_serve::sim::{EventQueue, QueueBackend};

/// One scripted action against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delta_quarters * 0.25` ms (quantized so
    /// exact-time collisions are common, exercising FIFO tie-breaks).
    Schedule { delta_quarters: u32 },
    /// Schedule at `now + delta_ms` with an arbitrary fractional offset
    /// (exercises keys that differ deep in the mantissa).
    ScheduleFine { delta_ms: f64 },
    /// Pop once (no-op on empty queues).
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..64).prop_map(|delta_quarters| Op::Schedule { delta_quarters }),
        (0.0f64..1e7).prop_map(|delta_ms| Op::ScheduleFine { delta_ms }),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    /// Replay an arbitrary schedule/pop interleaving through both
    /// backends in lockstep; every observable must agree at every step.
    #[test]
    fn wheel_matches_reference_heap_on_arbitrary_schedules(
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        for op in ops {
            match op {
                Op::Schedule { delta_quarters } => {
                    let at = wheel.now_ms() + delta_quarters as f64 * 0.25;
                    wheel.schedule(at, payload);
                    heap.schedule(at, payload);
                    payload += 1;
                }
                Op::ScheduleFine { delta_ms } => {
                    let at = wheel.now_ms() + delta_ms;
                    wheel.schedule(at, payload);
                    heap.schedule(at, payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now_ms().to_bits(), heap.now_ms().to_bits());
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Drain both: the full residual order must agree too.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Popped timestamps are nondecreasing and FIFO among equal times,
    /// checked against a straight sort of the scheduled (time, seq)
    /// pairs — the wheel alone, no reference queue in the loop.
    #[test]
    fn wheel_pops_in_time_then_sequence_order(
        deltas in prop::collection::vec((0u32..16, 1usize..6), 1..120),
    ) {
        let mut q: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for (delta, burst) in deltas {
            let at = q.now_ms() + delta as f64 * 0.5;
            for _ in 0..burst {
                q.schedule(at, seq);
                expected.push((at.to_bits(), seq));
                seq += 1;
            }
            // Interleave occasional pops so the hand advances and the
            // wheel re-buckets mid-run.
            if delta % 3 == 0 {
                if let Some((t, p)) = q.pop() {
                    let want = expected.iter().copied().min().expect("queue non-empty");
                    prop_assert_eq!((t.to_bits(), p), want);
                    expected.retain(|&e| e != want);
                }
            }
        }
        expected.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, p)) = q.pop() {
            got.push((t.to_bits(), p));
        }
        prop_assert_eq!(got, expected);
    }

    /// The rung-spill threshold: a single-slot burst — many events at
    /// one identical timestamp, interleaved with pops and stragglers at
    /// nearby times — must (a) never grow the sorted bottom rung past
    /// the spill threshold once the burst lands there, and (b) stay
    /// observationally identical to the reference heap throughout.
    #[test]
    fn single_slot_burst_spills_and_matches_the_heap(
        bursts in prop::collection::vec(
            // (burst length, straggler offset in quarters, pops between)
            (1usize..600, 0u32..8, 0usize..64),
            1..8,
        ),
    ) {
        use tpu_serve::sim::RUNG_SPILL_THRESHOLD;
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        for (len, offset, pops) in bursts {
            // Start each burst from a drained queue: prime the rung
            // with one event and pop it, so the burst's timestamp is
            // exactly the rung's maximum key — the case the spill
            // threshold bounds (inserts *below* the rung max must still
            // grow the rung; they pop first).
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            let at = wheel.now_ms() + 1.0;
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
            prop_assert_eq!(wheel.pop(), heap.pop());
            // The single-slot burst: every event at exactly `at`.
            for _ in 0..len {
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
                prop_assert!(
                    wheel.rung_len() <= RUNG_SPILL_THRESHOLD,
                    "rung grew past the spill threshold: {}",
                    wheel.rung_len()
                );
            }
            // A straggler at (or after) the burst time, then some pops.
            let late = at + offset as f64 * 0.25;
            wheel.schedule(late, payload);
            heap.schedule(late, payload);
            payload += 1;
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fleet-shaped streams, as the fleet engine drives the queue: a
    /// hop-wide window of more than `RUNG_SPILL_THRESHOLD × 64` pending
    /// events, each pop rescheduling its event a constant hop later
    /// (`now + hop`, the delivery pattern), mixed with near-now pushes
    /// (some exactly at `now`) and equal-key bursts. The pending set is
    /// dense enough that oversized slots are re-bucketed down more than
    /// one level, and bursts longer than the threshold descend all the
    /// way to level 0; the wheel must still match the reference heap
    /// at every pop.
    #[test]
    fn wheel_matches_reference_heap_on_fleet_shaped_streams(
        seed in any::<u64>(),
        extra in 1usize..4096,
        hop_ms in 0.05f64..5.0,
        base_ms in 0.0f64..1e4,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tpu_serve::sim::RUNG_SPILL_THRESHOLD;
        let pending = RUNG_SPILL_THRESHOLD * 64 + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut payload = 0usize;
        let mut both = |at: f64, wheel: &mut EventQueue<usize>, heap: &mut EventQueue<usize>| {
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
        };
        for i in 0..pending {
            both(base_ms + hop_ms * (i as f64 / pending as f64), &mut wheel, &mut heap);
        }
        for _ in 0..2 * pending {
            let popped = wheel.pop();
            prop_assert_eq!(popped, heap.pop());
            let now = popped.expect("the stream keeps the queue non-empty").0;
            both(now + hop_ms, &mut wheel, &mut heap);
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < 0.1 {
                let near = rng.gen_range(0u32..4) as f64 * hop_ms / 4096.0;
                both(now + near, &mut wheel, &mut heap);
            } else if roll < 0.102 {
                let at = now + hop_ms * rng.gen_range(0.0..1.0);
                for _ in 0..rng.gen_range(1usize..400) {
                    both(at, &mut wheel, &mut heap);
                }
            }
        }
        prop_assert!(
            wheel.wheel_profile().expect("wheel backend profiles").rebuckets >= 2,
            "the stream must take the ladder step"
        );
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
