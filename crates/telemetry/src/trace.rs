//! Causal request tracing in the Chrome trace-event format.
//!
//! A [`Tracer`] accumulates [`TraceEvent`]s — die activity as complete
//! (`ph:"X"`) slices, per-request span trees as nestable async
//! (`ph:"b"`/`"e"`) events keyed by a per-request id, and fleet-level
//! moments (crashes, retries, scale decisions) as instants — and
//! exports them as one JSON document loadable in Perfetto or
//! `chrome://tracing`. Hosts map to processes (`pid`), dies to threads
//! (`tid`), so the UI shows one track per host/die.
//!
//! All timestamps are **simulated milliseconds**; the export multiplies
//! by 1000 into the microsecond unit the format specifies. Nothing here
//! reads a clock, so two same-seed runs render byte-identical traces.
//!
//! Recording allocates no strings: each tracer interns span names into
//! a table of its own (ids are remapped when a probe is absorbed) and
//! categories are `&'static str`. Names become text again only in
//! [`Tracer::render`], which writes the document straight into one
//! string, and in [`Tracer::summary`].

use serde_json::{write_number, write_str};
use std::collections::HashMap;
use std::fmt::Write;

/// Trace-event phase, mirroring the Chrome `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete slice with a duration (`ph:"X"`).
    Complete,
    /// Begin of a nestable async span (`ph:"b"`).
    AsyncBegin,
    /// End of a nestable async span (`ph:"e"`).
    AsyncEnd,
    /// A zero-duration instant (`ph:"i"`).
    Instant,
}

/// One recorded event. It owns no string: the name is an id into the
/// recording [`Tracer`]'s name table and the category is static, so
/// recording a span allocates nothing.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event phase.
    pub phase: Phase,
    /// Span name (tenant or phase name), interned by
    /// [`Tracer::intern`]; [`Tracer::name`] turns it back.
    pub name: u32,
    /// Category — groups spans in the UI and in [`Tracer::summary`]
    /// (`"service"`, `"swap"`, `"request"`, `"fleet"`, …).
    pub cat: &'static str,
    /// Process id — host index (the fleet front-end uses one past the
    /// last host).
    pub pid: u32,
    /// Thread id — `1 + die` for die tracks, `0` otherwise.
    pub tid: u32,
    /// Start time in simulated milliseconds.
    pub ts_ms: f64,
    /// Duration in simulated milliseconds ([`Phase::Complete`] only).
    pub dur_ms: f64,
    /// Async span id ([`Phase::AsyncBegin`]/[`Phase::AsyncEnd`] only).
    pub id: u64,
    /// Extra `args`, as a `(start, len)` slice of the tracer's argument
    /// table ([`Tracer::args`]).
    args: (u32, u32),
}

/// Aggregated span totals for the compact report summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Span category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Total span duration in simulated milliseconds.
    pub total_ms: f64,
}

/// A process or thread naming record (`ph:"M"`).
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// `"process_name"` or `"thread_name"`.
    kind: &'static str,
    pid: u32,
    tid: u32,
    /// The track's display name, interned like event names.
    name: u32,
}

/// Accumulates trace events and exports them as Chrome trace JSON.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Process/thread naming metadata, kept apart so it leads the
    /// export regardless of timestamps.
    meta: Vec<Meta>,
    events: Vec<TraceEvent>,
    /// Interned names, indexed by id.
    names: Vec<String>,
    ids: HashMap<String, u32>,
    /// Every event's `args`, back to back.
    args: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded (non-metadata) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The id of `name` in this tracer's name table, adding it on first
    /// use. Ids are dense and assigned in first-use order.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The name interned as `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// An event's `args`, in recording order (a repeated key renders
    /// once, with its last value).
    pub fn args(&self, e: &TraceEvent) -> &[(&'static str, f64)] {
        let (start, len) = (e.args.0 as usize, e.args.1 as usize);
        &self.args[start..start + len]
    }

    /// Name the process track `pid` (a host).
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.push_meta("process_name", pid, 0, name);
    }

    /// Name the thread track `(pid, tid)` (a die).
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.push_meta("thread_name", pid, tid, name);
    }

    fn push_meta(&mut self, kind: &'static str, pid: u32, tid: u32, name: &str) {
        let name = self.intern(name);
        self.meta.push(Meta {
            kind,
            pid,
            tid,
            name,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        phase: Phase,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: u32,
        ts_ms: f64,
        dur_ms: f64,
        id: u64,
        args: &[(&'static str, f64)],
    ) {
        let start = self.args.len() as u32;
        self.args.extend_from_slice(args);
        self.events.push(TraceEvent {
            phase,
            name,
            cat,
            pid,
            tid,
            ts_ms,
            dur_ms,
            id,
            args: (start, args.len() as u32),
        });
    }

    /// Record a complete slice named by interned id `name`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: u32,
        ts_ms: f64,
        dur_ms: f64,
        args: &[(&'static str, f64)],
    ) {
        self.push(Phase::Complete, pid, tid, cat, name, ts_ms, dur_ms, 0, args);
    }

    /// Begin a nestable async span.
    pub fn async_begin(&mut self, pid: u32, cat: &'static str, name: u32, id: u64, ts_ms: f64) {
        self.push(Phase::AsyncBegin, pid, 0, cat, name, ts_ms, 0.0, id, &[]);
    }

    /// End a nestable async span.
    pub fn async_end(&mut self, pid: u32, cat: &'static str, name: u32, id: u64, ts_ms: f64) {
        self.push(Phase::AsyncEnd, pid, 0, cat, name, ts_ms, 0.0, id, &[]);
    }

    /// Record an instant.
    pub fn instant(
        &mut self,
        pid: u32,
        cat: &'static str,
        name: u32,
        ts_ms: f64,
        args: &[(&'static str, f64)],
    ) {
        self.push(Phase::Instant, pid, 0, cat, name, ts_ms, 0.0, 0, args);
    }

    /// Merge another tracer's events (e.g. a host probe's) into this
    /// one, remapping its name ids onto this tracer's table.
    pub fn absorb(&mut self, other: Tracer) {
        let remap: Vec<u32> = other.names.iter().map(|n| self.intern(n)).collect();
        let offset = self.args.len() as u32;
        self.args.extend(other.args);
        self.meta.extend(other.meta.into_iter().map(|m| Meta {
            name: remap[m.name as usize],
            ..m
        }));
        self.events
            .extend(other.events.into_iter().map(|e| TraceEvent {
                name: remap[e.name as usize],
                args: (e.args.0 + offset, e.args.1),
                ..e
            }));
    }

    /// Render the Chrome trace document as compact JSON: metadata
    /// first, then events stably sorted by timestamp (insertion order
    /// breaks ties, so the export is deterministic). Each event is
    /// written straight into one pre-sized string, keys in sorted
    /// order (`args, cat, dur, id, name, ph, pid, s, tid, ts`).
    /// Timestamps are exported in microseconds.
    pub fn render(&self) -> String {
        // Sorting (ts bits, index) pairs is the stable sort by ts.
        let mut order: Vec<(u64, u32)> = self
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.ts_ms.to_bits(), i as u32))
            .collect();
        order.sort_unstable();
        let mut out = String::with_capacity(
            64 + 96 * self.meta.len() + 112 * self.events.len() + 32 * self.args.len(),
        );
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, m) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"args\":{\"name\":");
            write_str(&mut out, self.name(m.name));
            out.push_str("},\"name\":");
            write_str(&mut out, m.kind);
            out.push_str(",\"ph\":\"M\",\"pid\":");
            write_number(&mut out, m.pid as f64);
            out.push_str(",\"tid\":");
            write_number(&mut out, m.tid as f64);
            out.push('}');
        }
        for (i, &(_, e)) in order.iter().enumerate() {
            if i > 0 || !self.meta.is_empty() {
                out.push(',');
            }
            self.write_event(&mut out, &self.events[e as usize]);
        }
        out.push_str("]}");
        out
    }

    fn write_event(&self, out: &mut String, e: &TraceEvent) {
        out.push('{');
        let args = self.args(e);
        if !args.is_empty() {
            out.push_str("\"args\":");
            write_args(out, args);
            out.push(',');
        }
        out.push_str("\"cat\":");
        write_str(out, e.cat);
        if e.phase == Phase::Complete {
            out.push_str(",\"dur\":");
            write_number(out, e.dur_ms * 1000.0);
        }
        if matches!(e.phase, Phase::AsyncBegin | Phase::AsyncEnd) {
            // Writing into a `String` cannot fail.
            let _ = write!(out, ",\"id\":\"0x{:x}\"", e.id);
        }
        out.push_str(",\"name\":");
        write_str(out, self.name(e.name));
        out.push_str(match e.phase {
            Phase::Complete => ",\"ph\":\"X\"",
            Phase::AsyncBegin => ",\"ph\":\"b\"",
            Phase::AsyncEnd => ",\"ph\":\"e\"",
            Phase::Instant => ",\"ph\":\"i\"",
        });
        out.push_str(",\"pid\":");
        write_number(out, e.pid as f64);
        if e.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"tid\":");
        write_number(out, e.tid as f64);
        out.push_str(",\"ts\":");
        write_number(out, e.ts_ms * 1000.0);
        out.push('}');
    }

    /// Aggregate spans into `(cat, name)` totals, sorted by category
    /// then name. Complete slices contribute their duration; async
    /// spans are paired begin/end per `(id, cat, name)`.
    pub fn summary(&self) -> Vec<SummaryRow> {
        use std::collections::BTreeMap;
        let mut open: HashMap<(u64, &str, u32), Vec<f64>> = HashMap::new();
        let mut rows: BTreeMap<(&str, &str), (u64, f64)> = BTreeMap::new();
        for e in &self.events {
            let key = (e.cat, self.name(e.name));
            match e.phase {
                Phase::Complete => {
                    let r = rows.entry(key).or_insert((0, 0.0));
                    r.0 += 1;
                    r.1 += e.dur_ms;
                }
                Phase::AsyncBegin => {
                    open.entry((e.id, e.cat, e.name)).or_default().push(e.ts_ms);
                }
                Phase::AsyncEnd => {
                    if let Some(begin) = open.get_mut(&(e.id, e.cat, e.name)).and_then(Vec::pop) {
                        let r = rows.entry(key).or_insert((0, 0.0));
                        r.0 += 1;
                        r.1 += e.ts_ms - begin;
                    }
                }
                Phase::Instant => {
                    let r = rows.entry(key).or_insert((0, 0.0));
                    r.0 += 1;
                }
            }
        }
        rows.into_iter()
            .map(|((cat, name), (count, total_ms))| SummaryRow {
                cat: cat.to_string(),
                name: name.to_string(),
                count,
                total_ms,
            })
            .collect()
    }
}

/// Write `args` as a JSON object with keys in sorted order, a repeated
/// key keeping its last value — what collecting the pairs into a
/// sorted map would render — without allocating: each pass picks the
/// smallest key above the previous one (argument lists are tiny).
fn write_args(out: &mut String, args: &[(&'static str, f64)]) {
    out.push('{');
    let mut prev: Option<&str> = None;
    loop {
        let mut next: Option<(&str, f64)> = None;
        for &(k, v) in args {
            if prev.is_some_and(|p| k <= p) {
                continue;
            }
            match next {
                Some((nk, _)) if k > nk => {}
                _ => next = Some((k, v)),
            }
        }
        let Some((k, v)) = next else { break };
        if prev.is_some() {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        write_number(out, v);
        prev = Some(k);
    }
    out.push('}');
}

/// Records one host's spans: die activity slices plus the per-request
/// async span tree (queue → swap-stall → service), all emitted at
/// batch completion so aborted batches leave no spans.
///
/// The engines hand a probe to each `HostCore`; at end of run the
/// probe's tracer is absorbed into the run's [`Tracer`].
#[derive(Debug)]
pub struct HostProbe {
    pid: u32,
    next_id: u64,
    /// Interned ids of the `queue`, `swap-stall` and `service` phases.
    phases: [u32; 3],
    tracer: Tracer,
}

impl HostProbe {
    /// A probe for host `pid` with named process/die tracks.
    pub fn new(pid: u32, host_name: &str, dies: usize) -> Self {
        let mut tracer = Tracer::new();
        tracer.name_process(pid, host_name);
        for d in 0..dies {
            tracer.name_thread(pid, d as u32 + 1, &format!("die {d}"));
        }
        let phases = ["queue", "swap-stall", "service"].map(|p| tracer.intern(p));
        Self {
            pid,
            next_id: 0,
            phases,
            tracer,
        }
    }

    /// The host index this probe records for.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Record one completed batch: a swap slice (if the die swapped
    /// weights), a service slice on the die track, and a request span
    /// tree per batched arrival.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_complete(
        &mut self,
        die: usize,
        tenant: &str,
        start_ms: f64,
        swap_ms: f64,
        end_ms: f64,
        arrivals: &[f64],
    ) {
        let (pid, tid) = (self.pid, die as u32 + 1);
        let [queue, stall, service] = self.phases;
        let t = &mut self.tracer;
        let tenant = t.intern(tenant);
        let served_at = start_ms + swap_ms;
        if swap_ms > 0.0 {
            t.complete(
                pid,
                tid,
                "swap",
                tenant,
                start_ms,
                swap_ms,
                &[("swap_ms", swap_ms)],
            );
        }
        let batch = arrivals.len() as f64;
        t.complete(
            pid,
            tid,
            "service",
            tenant,
            served_at,
            end_ms - served_at,
            &[("batch", batch)],
        );
        for &arrived in arrivals {
            let id = ((pid as u64) << 32) | self.next_id;
            self.next_id += 1;
            t.async_begin(pid, "request", tenant, id, arrived);
            t.async_begin(pid, "phase", queue, id, arrived);
            t.async_end(pid, "phase", queue, id, start_ms);
            if swap_ms > 0.0 {
                t.async_begin(pid, "phase", stall, id, start_ms);
                t.async_end(pid, "phase", stall, id, served_at);
            }
            t.async_begin(pid, "phase", service, id, served_at);
            t.async_end(pid, "phase", service, id, end_ms);
            t.async_end(pid, "request", tenant, id, end_ms);
        }
    }

    /// Record a host-level instant (crash, recovery, …).
    pub fn instant(&mut self, cat: &'static str, name: &str, ts_ms: f64) {
        let name = self.tracer.intern(name);
        self.tracer.instant(self.pid, cat, name, ts_ms, &[]);
    }

    /// Surrender the recorded events for absorption into the run
    /// tracer.
    pub fn into_tracer(self) -> Tracer {
        self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, STATIC_KEYS};
    use proptest::prelude::*;
    use serde_json::Value;

    /// The trace as the pre-streaming export built it: a `Value` tree
    /// of every event, metadata first, then events stably sorted by
    /// timestamp.
    fn chrome_json(t: &Tracer) -> Value {
        let mut order: Vec<usize> = (0..t.events.len()).collect();
        order.sort_by_key(|&i| t.events[i].ts_ms.to_bits());
        let mut out: Vec<Value> = t
            .meta
            .iter()
            .map(|m| meta_event(m.kind, m.pid, m.tid, t.name(m.name)))
            .collect();
        out.extend(order.into_iter().map(|i| event_json(t, &t.events[i])));
        Value::object([
            ("displayTimeUnit".to_string(), Value::String("ms".into())),
            ("traceEvents".to_string(), Value::Array(out)),
        ])
    }

    fn meta_event(kind: &str, pid: u32, tid: u32, name: &str) -> Value {
        Value::object([
            ("ph".to_string(), Value::String("M".into())),
            ("name".to_string(), Value::String(kind.into())),
            ("pid".to_string(), Value::Number(pid as f64)),
            ("tid".to_string(), Value::Number(tid as f64)),
            (
                "args".to_string(),
                Value::object([("name".to_string(), Value::String(name.into()))]),
            ),
        ])
    }

    fn event_json(t: &Tracer, e: &TraceEvent) -> Value {
        let mut fields = vec![
            (
                "name".to_string(),
                Value::String(t.name(e.name).to_string()),
            ),
            ("cat".to_string(), Value::String(e.cat.to_string())),
            ("pid".to_string(), Value::Number(e.pid as f64)),
            ("tid".to_string(), Value::Number(e.tid as f64)),
            ("ts".to_string(), Value::Number(e.ts_ms * 1000.0)),
        ];
        let ph = match e.phase {
            Phase::Complete => {
                fields.push(("dur".to_string(), Value::Number(e.dur_ms * 1000.0)));
                "X"
            }
            Phase::AsyncBegin => "b",
            Phase::AsyncEnd => "e",
            Phase::Instant => {
                fields.push(("s".to_string(), Value::String("t".into())));
                "i"
            }
        };
        fields.push(("ph".to_string(), Value::String(ph.into())));
        if matches!(e.phase, Phase::AsyncBegin | Phase::AsyncEnd) {
            fields.push(("id".to_string(), Value::String(format!("{:#x}", e.id))));
        }
        let args = t.args(e);
        if !args.is_empty() {
            let pairs = args.iter().map(|&(k, v)| (k.to_string(), Value::Number(v)));
            fields.push(("args".to_string(), Value::object(pairs)));
        }
        Value::object(fields)
    }

    /// One recording step: (kind, target, name, ts, number, args).
    type Step = (u8, usize, String, f64, f64, Vec<(usize, f64)>);

    fn step() -> impl Strategy<Value = Step> {
        (
            0u8..6,
            0usize..3,
            oracle::name(),
            oracle::time(),
            oracle::number(),
            prop::collection::vec((0..STATIC_KEYS.len(), oracle::number()), 0..4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The streaming render equals the `Value`-tree export for run
        /// tracers mixing their own events with absorbed host probes,
        /// whose name ids are remapped on absorb.
        #[test]
        fn streaming_render_matches_the_value_tree(
            steps in prop::collection::vec(step(), 0..24),
            hosts in prop::collection::vec(oracle::name(), 3..4),
        ) {
            let mut run = Tracer::new();
            run.name_process(3, "front end");
            let mut probes: Vec<HostProbe> = hosts
                .iter()
                .enumerate()
                .map(|(h, name)| HostProbe::new(h as u32, name, 2))
                .collect();
            for (kind, target, name, ts, x, args) in &steps {
                let args: Vec<(&'static str, f64)> =
                    args.iter().map(|&(k, v)| (STATIC_KEYS[k], v)).collect();
                let cat = STATIC_KEYS[*target];
                let probe = &mut probes[*target];
                match kind {
                    0 => probe.batch_complete(target % 2, name, *ts, x.abs(), ts + 1.0, &[*ts, *x]),
                    1 => probe.batch_complete(target % 2, name, *ts, 0.0, *ts, &[*ts]),
                    2 => probe.instant(cat, name, *ts),
                    3 => {
                        let id = run.intern(name);
                        run.complete(3, *target as u32, cat, id, *ts, *x, &args);
                    }
                    4 => {
                        let id = run.intern(name);
                        run.instant(3, cat, id, *ts, &args);
                    }
                    _ => {
                        let id = run.intern(name);
                        let span = x.to_bits();
                        run.async_begin(3, cat, id, span, *ts);
                        run.async_end(3, cat, id, span, ts + 0.5);
                    }
                }
            }
            // Absorbing keeps every event's name text, whatever ids the
            // probes and the run assigned it.
            let names = |t: &Tracer| -> Vec<String> {
                t.events().iter().map(|e| t.name(e.name).to_string()).collect()
            };
            let mut expected = names(&run);
            for p in probes {
                let t = p.into_tracer();
                expected.extend(names(&t));
                run.absorb(t);
            }
            prop_assert_eq!(names(&run), expected);
            prop_assert_eq!(run.render(), oracle::to_string(&chrome_json(&run)));
        }
    }

    #[test]
    fn duplicate_args_keep_the_last_value_in_key_order() {
        let mut t = Tracer::new();
        let n = t.intern("n");
        t.instant(
            0,
            "fleet",
            n,
            1.0,
            &[("b", 1.0), ("a", 2.0), ("b", 3.0), ("a", -0.0)],
        );
        assert!(t
            .render()
            .contains(r#"{"args":{"a":0,"b":3},"cat":"fleet","#));
        assert_eq!(t.render(), oracle::to_string(&chrome_json(&t)));
    }

    #[test]
    fn absorb_remaps_name_ids() {
        let mut run = Tracer::new();
        let z = run.intern("zeta");
        run.instant(9, "fleet", z, 0.0, &[]);
        let mut p = HostProbe::new(0, "host 0", 1);
        p.instant("fault", "zeta", 1.0);
        p.instant("fault", "crash", 2.0);
        run.absorb(p.into_tracer());
        let names: Vec<&str> = run.events().iter().map(|e| run.name(e.name)).collect();
        assert_eq!(names, ["zeta", "zeta", "crash"]);
        assert_eq!(run.events()[0].name, run.events()[1].name);
    }

    #[test]
    fn export_is_sorted_and_parses() {
        let mut t = Tracer::new();
        t.name_process(0, "host 0");
        let (mlp0, crash) = (t.intern("MLP0"), t.intern("crash"));
        t.complete(0, 1, "service", mlp0, 5.0, 2.0, &[]);
        t.complete(0, 1, "service", mlp0, 1.0, 1.5, &[]);
        t.instant(0, "fleet", crash, 0.5, &[]);
        let text = t.render();
        let doc = serde_json::from_str(&text).expect("trace JSON parses");
        let Value::Object(map) = doc else {
            panic!("expected an object")
        };
        let Value::Array(events) = &map["traceEvents"] else {
            panic!("expected traceEvents array")
        };
        assert_eq!(events.len(), 4);
        // Metadata first, then events by ascending ts.
        let ts: Vec<f64> = events[1..]
            .iter()
            .map(|e| match e {
                Value::Object(m) => match m["ts"] {
                    Value::Number(n) => n,
                    _ => panic!("ts is a number"),
                },
                _ => panic!("event is an object"),
            })
            .collect();
        assert_eq!(ts, vec![500.0, 1000.0, 5000.0]);
    }

    #[test]
    fn probe_records_swap_service_and_request_spans() {
        let mut p = HostProbe::new(3, "host 3", 2);
        p.batch_complete(1, "CNN0", 10.0, 4.0, 20.0, &[7.0, 9.0]);
        let t = p.into_tracer();
        let rows = t.summary();
        let get = |cat: &str, name: &str| {
            rows.iter()
                .find(|r| r.cat == cat && r.name == name)
                .unwrap_or_else(|| panic!("missing row {cat}/{name}"))
        };
        assert_eq!(get("swap", "CNN0").total_ms, 4.0);
        assert_eq!(get("service", "CNN0").total_ms, 6.0);
        // Two requests: queue waits (10-7)+(10-9)=4, stalls 4+4=8,
        // service 6+6=12, end-to-end (20-7)+(20-9)=24.
        assert_eq!(get("phase", "queue").total_ms, 4.0);
        assert_eq!(get("phase", "swap-stall").total_ms, 8.0);
        assert_eq!(get("phase", "service").total_ms, 12.0);
        let req = get("request", "CNN0");
        assert_eq!((req.count, req.total_ms), (2, 24.0));
    }

    #[test]
    fn same_inputs_render_identical_bytes() {
        let build = || {
            let mut p = HostProbe::new(0, "host 0", 1);
            p.batch_complete(0, "LSTM0", 2.0, 0.0, 5.0, &[1.0]);
            let mut t = Tracer::new();
            t.absorb(p.into_tracer());
            t.render()
        };
        assert_eq!(build(), build());
    }
}
