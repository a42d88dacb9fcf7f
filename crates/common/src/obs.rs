//! qcc-obs: a deterministic, virtual-time observability layer.
//!
//! Two surfaces, one handle:
//!
//! * a **metrics registry** — counters, gauges and histograms keyed by a
//!   static metric name plus a sorted label set, rendered as a stable
//!   `name{k=v,...} value` text snapshot. A series is resolved once to a
//!   handle ([`CounterHandle`], [`GaugeHandle`], [`HistogramHandle`], or
//!   a [`CounterFamily`] for a one-label family); after that a counter
//!   emission is one relaxed atomic add and a histogram emission locks only
//!   its own cell. The named calls (`counter_inc`, `observe`, ...) resolve
//!   and emit in one step, into the same store, for cold paths;
//! * a **structured event journal** — an append-only list of events (and
//!   spans, which are events carrying a duration), rendered as JSONL. Each
//!   event is encoded into fixed-size byte segments that are never copied
//!   once full (≈ 24 bytes an event), and decoded on read. Kinds and field
//!   names are ids into a name table, and a string field is an id into a
//!   string table that holds its `Arc<str>`: the allocation it shares with
//!   its source (a [`ServerId`], a cached statement) or with every other
//!   use of the same text ([`Obs::intern`]). Both tables are keyed by the
//!   address and length of the text, never by the text: an address the
//!   table holds cannot be freed and reused, so a push hashes two words.
//!
//! Determinism is the design constraint, not an afterthought. The layer
//! holds no clock: every event timestamp is an explicit [`SimTime`]
//! supplied by the caller, so journals advance in virtual time only.
//! Under scatter-gather parallelism (DESIGN.md §2 "Scatter-gather and
//! QCC_THREADS") the rules are:
//!
//! * **Counters** are commutative (`u64` additions), so worker threads may
//!   bump them directly — totals are thread-count independent.
//! * **Journal events, gauges and histograms** are order- or
//!   rounding-sensitive; they must be emitted from coordinator-sequential
//!   code, or buffered through a `Deferred` and applied at the gather
//!   barrier in task order.
//!
//! Followed, these rules make [`Obs::metrics_snapshot`] and
//! [`Obs::journal_snapshot`] byte-identical for any `QCC_THREADS`
//! (enforced by `tests/obs_determinism.rs`).
//!
//! A disabled handle ([`Obs::off`]) turns every operation into a cheap
//! no-op, so instrumented code never needs `if` guards.

use crate::ids::ServerId;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bounds (ms) of the fixed histogram buckets; the final implicit
/// bucket is `+inf`. Chosen to straddle the simulated latencies in play:
/// sub-millisecond pings up to multi-second phase queries.
pub const HISTOGRAM_BOUNDS_MS: [f64; 8] = [0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0];

/// Journal event kinds of the mid-query adaptivity machinery (streamed
/// fragment execution: stall detection, remainder re-dispatch, resume,
/// per-slot stream provenance). Shared between the federation (emitter)
/// and the sim oracles (checker) so the two can never drift on a string.
pub mod reroute_events {
    /// Stall detector fired: a fragment's source refused it on arrival
    /// (`reason = "arrival"`), died mid-stream (`reason = "interrupt"`), or
    /// overran `stall_factor ×` its calibrated estimate (`reason =
    /// "slow"`).
    pub const FRAGMENT_STALL: &str = "fragment_stall";
    /// The stalled slot was re-dispatched to another server: its
    /// remainder from the cursor on, or the whole fragment at cursor 0.
    pub const REROUTE_DISPATCH: &str = "reroute_dispatch";
    /// The re-dispatched slot completed and rejoined the merge.
    pub const FRAGMENT_RESUME: &str = "fragment_resume";
    /// Cursor-range provenance of a slot served by more than one source
    /// (`sources` field, e.g. `"S1:0..3+S2:3..7"`): the no-duplicate /
    /// no-loss oracle replays these ranges against `total_chunks`.
    pub const FRAGMENT_STREAM: &str = "fragment_stream";
}

/// One histogram: count/sum/min/max plus fixed cumulative-style buckets
/// (each slot counts observations `<=` the matching bound; the last slot
/// is the overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Per-bucket observation counts (`HISTOGRAM_BOUNDS_MS` + overflow).
    pub buckets: [u64; HISTOGRAM_BOUNDS_MS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BOUNDS_MS.len() + 1],
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let slot = HISTOGRAM_BOUNDS_MS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HISTOGRAM_BOUNDS_MS.len());
        self.buckets[slot] += 1;
    }
}

/// A typed journal field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field, shared with wherever the caller got it from.
    Str(Arc<str>),
    /// An unsigned integer field.
    U64(u64),
    /// A float field (rendered as a JSON number when finite).
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.into())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v.into())
    }
}
impl From<&String> for FieldValue {
    fn from(v: &String) -> Self {
        FieldValue::Str(v.as_str().into())
    }
}
impl From<Arc<str>> for FieldValue {
    fn from(v: Arc<str>) -> Self {
        FieldValue::Str(v)
    }
}
impl From<&Arc<str>> for FieldValue {
    fn from(v: &Arc<str>) -> Self {
        FieldValue::Str(Arc::clone(v))
    }
}
/// The server's name, sharing the id's allocation.
impl From<&ServerId> for FieldValue {
    fn from(v: &ServerId) -> Self {
        FieldValue::Str(v.shared_name())
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One journal field: a static name and its value.
pub type Field = (&'static str, FieldValue);

/// One journal entry: a virtual timestamp, a static kind, and an ordered
/// field list (insertion order is preserved into the JSONL rendering).
/// The journal builds these on read; it does not store them.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time the event happened (span start for spans).
    pub at: SimTime,
    /// Static event kind, e.g. `"probe"` or `"server_down"`.
    pub kind: &'static str,
    /// Ordered payload fields.
    pub fields: Vec<Field>,
}

impl Event {
    /// The value of a field by name, if present.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// A string field by name, if present and a string.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// What a series holds.
#[derive(Debug)]
enum Cell {
    /// Monotone `u64` counter.
    Counter(AtomicU64),
    /// Last-write-wins `f64` gauge, stored as its bits.
    Gauge(AtomicU64),
    /// Fixed-bucket latency histogram.
    Histogram(Mutex<Histogram>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Cell {
    fn new(kind: Kind) -> Cell {
        match kind {
            Kind::Counter => Cell::Counter(AtomicU64::new(0)),
            Kind::Gauge => Cell::Gauge(AtomicU64::new(0)),
            Kind::Histogram => Cell::Histogram(Mutex::new(Histogram::default())),
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Cell::Counter(_) => Kind::Counter,
            Cell::Gauge(_) => Kind::Gauge,
            Cell::Histogram(_) => Kind::Histogram,
        }
    }
}

/// One metric series. It is in the registry from the moment it is
/// resolved, but only in the snapshot once something was emitted into it.
#[derive(Debug)]
struct Series {
    live: AtomicBool,
    cell: Cell,
}

impl Series {
    /// Mark the series emitted-into. Relaxed: the flag publishes nothing,
    /// and snapshots are taken after the emitting threads were joined.
    fn fire(&self) {
        if !self.live.load(Ordering::Relaxed) {
            self.live.store(true, Ordering::Relaxed);
        }
    }

    fn add(&self, delta: u64) {
        self.fire();
        if let Cell::Counter(v) = &self.cell {
            v.fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn observe(&self, value: f64) {
        self.fire();
        if let Cell::Histogram(h) = &self.cell {
            h.lock().observe(value);
        }
    }

    fn set(&self, value: f64) {
        self.fire();
        if let Cell::Gauge(v) = &self.cell {
            v.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// A resolved counter series; a no-op when resolved from a disabled
/// handle. Cloning shares the series.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Series>>);

impl CounterHandle {
    /// Add `delta`. Safe from worker threads (additions commute).
    pub fn add(&self, delta: u64) {
        if let Some(series) = &self.0 {
            series.add(delta);
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A resolved histogram series; a no-op when resolved from a disabled
/// handle. Float sums do not commute, so only emit from
/// coordinator-sequential code (or a `Deferred`).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Series>>);

impl HistogramHandle {
    /// Record one observation.
    pub fn observe(&self, value: f64) {
        if let Some(series) = &self.0 {
            series.observe(value);
        }
    }
}

/// A resolved gauge series; a no-op when resolved from a disabled handle.
/// Last write wins, so only emit from coordinator-sequential code (or a
/// `Deferred`).
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<Series>>);

impl GaugeHandle {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        if let Some(series) = &self.0 {
            series.set(value);
        }
    }
}

/// A counter family keyed by one label (`fragments_total{server}`): each
/// label value is resolved once, and looked up by `&str` after that.
#[derive(Debug, Clone, Default)]
pub struct CounterFamily(Option<Arc<Family>>);

#[derive(Debug)]
struct Family {
    store: Arc<Store>,
    name: &'static str,
    label: &'static str,
    members: Mutex<BTreeMap<Box<str>, Arc<Series>>>,
}

impl CounterFamily {
    /// Add one to the member whose label is `value`. Safe from worker
    /// threads (additions commute).
    pub fn inc(&self, value: &str) {
        let Some(family) = &self.0 else { return };
        let mut members = family.members.lock();
        if let Some(series) = members.get(value) {
            series.add(1);
            return;
        }
        let labels = [(family.label, value)];
        if let Some(series) = family.store.resolve(family.name, &labels, Kind::Counter) {
            series.add(1);
            members.insert(value.into(), series);
        }
    }
}

/// The one metrics store and the journal behind an enabled [`Obs`].
#[derive(Debug, Default)]
struct Store {
    /// Every resolved series, keyed by its rendered name
    /// (`name{k=v,...}`), which is already in snapshot order.
    series: Mutex<BTreeMap<String, Arc<Series>>>,
    journal: Mutex<Journal>,
    /// One copy of each text [`Obs::intern`] was asked for.
    strings: Mutex<HashSet<Arc<str>>>,
}

impl Store {
    /// The series of `name` and `labels`, registered (not yet live) if
    /// new; `None` if it exists as another kind.
    fn resolve(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        kind: Kind,
    ) -> Option<Arc<Series>> {
        let mut series = self.series.lock();
        let found = series.entry(series_key(name, labels)).or_insert_with(|| {
            Arc::new(Series {
                live: AtomicBool::new(false),
                cell: Cell::new(kind),
            })
        });
        if found.cell.kind() != kind {
            debug_assert!(false, "metric {name} is not a {kind:?}");
            return None;
        }
        Some(Arc::clone(found))
    }
}

/// Ids for values the journal keeps for its whole life, keyed by the
/// address and length of their text. The table holds each value, so no
/// address it keys on can be freed and reused for another text while it
/// is a key: a lookup never reads or hashes the text itself.
#[derive(Debug)]
struct Table<T> {
    ids: HashMap<(usize, usize), u32, BuildHasherDefault<AddressHasher>>,
    values: Vec<T>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            ids: HashMap::default(),
            values: Vec::new(),
        }
    }
}

impl<T: Deref<Target = str>> Table<T> {
    /// The id of `value`'s allocation, assigned on first sight. Two equal
    /// texts at two addresses get two ids that decode to the same text.
    fn id(&mut self, value: T) -> u64 {
        let key = (value.as_ptr() as usize, value.len());
        let next = self.values.len() as u32;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.values.push(value);
        }
        u64::from(id)
    }

    fn get(&self, id: u64) -> &T {
        &self.values[id as usize]
    }
}

/// A multiply-rotate hash for the two words of an address key: the keys
/// are not chosen by anyone, so it need not resist collisions.
#[derive(Debug, Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The low bits pick the bucket; the product's best bits are high.
        self.0.rotate_left(26)
    }
}

/// Field tags, the low three bits of a field's key word; a `Bool` is all
/// in its tag.
const TAG_U64: u64 = 0;
const TAG_F64: u64 = 1;
const TAG_FALSE: u64 = 2;
const TAG_TRUE: u64 = 3;
const TAG_STR: u64 = 4;

/// Append `v` as LEB128: seven bits a byte, low first, the high bit set
/// on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// A cursor over encoded journal bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn varint(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let byte = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn bits(&mut self) -> u64 {
        let mut raw = [0; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        u64::from_le_bytes(raw)
    }
}

/// One decoded field value, its string borrowed from the journal.
enum Value<'a> {
    Str(&'a Arc<str>),
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl From<Value<'_>> for FieldValue {
    fn from(value: Value<'_>) -> Self {
        match value {
            Value::Str(s) => FieldValue::Str(Arc::clone(s)),
            Value::U64(n) => FieldValue::U64(n),
            Value::F64(f) => FieldValue::F64(f),
            Value::Bool(b) => FieldValue::Bool(b),
        }
    }
}

/// The fields of one encoded event, decoded as they are read.
struct Fields<'a> {
    strings: &'a Table<Arc<str>>,
    reader: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for Fields<'a> {
    /// A field's name id and its value.
    type Item = (u64, Value<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let word = self.reader.varint();
        let value = match word & 7 {
            TAG_U64 => Value::U64(self.reader.varint()),
            TAG_F64 => Value::F64(f64::from_bits(self.reader.bits())),
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            _ => Value::Str(self.strings.get(self.reader.varint())),
        };
        Some((word >> 3, value))
    }
}

/// Bytes one journal segment holds. An event is encoded before it is
/// placed, and a segment is closed when the next event does not fit, so
/// no segment is grown or copied; an event larger than this gets a
/// segment of its own size.
const SEGMENT_BYTES: usize = 64 * 1024;

/// The journal: segments of encoded events, in emission order, plus the
/// two tables their ids point into. An event is a byte-length varint (so
/// a reader can skip it whole), its kind's name id, the raw bits of `at`,
/// a field count, and its fields; a field is a varint of `name id << 3 |
/// tag`, then a `U64` as a varint, an `F64` as its raw bits, a `Str` as a
/// string id, and a `Bool` as nothing.
#[derive(Debug, Default)]
struct Journal {
    segments: Vec<Vec<u8>>,
    /// Events pushed.
    len: usize,
    /// Kinds and field names.
    names: Table<&'static str>,
    strings: Table<Arc<str>>,
    /// The fields of the event being pushed, before its length is known.
    scratch: Vec<u8>,
}

impl Journal {
    fn push(&mut self, at: SimTime, kind: &'static str, fields: impl Iterator<Item = Field>) {
        let kind = self.names.id(kind);
        let mut body = std::mem::take(&mut self.scratch);
        body.clear();
        let mut count: u64 = 0;
        for (name, value) in fields {
            let word = self.names.id(name) << 3;
            match value {
                FieldValue::U64(n) => {
                    put_varint(&mut body, word | TAG_U64);
                    put_varint(&mut body, n);
                }
                FieldValue::F64(f) => {
                    put_varint(&mut body, word | TAG_F64);
                    body.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                FieldValue::Bool(b) => {
                    put_varint(&mut body, word | if b { TAG_TRUE } else { TAG_FALSE });
                }
                FieldValue::Str(s) => {
                    put_varint(&mut body, word | TAG_STR);
                    put_varint(&mut body, self.strings.id(s));
                }
            }
            count += 1;
        }
        let len = varint_len(kind) + 8 + varint_len(count) + body.len();
        let size = varint_len(len as u64) + len;
        if self
            .segments
            .last()
            .is_none_or(|s| s.capacity() - s.len() < size)
        {
            self.segments
                .push(Vec::with_capacity(SEGMENT_BYTES.max(size)));
        }
        if let Some(open) = self.segments.last_mut() {
            put_varint(open, len as u64);
            put_varint(open, kind);
            open.extend_from_slice(&at.as_millis().to_bits().to_le_bytes());
            put_varint(open, count);
            open.extend_from_slice(&body);
        }
        self.scratch = body;
        self.len += 1;
    }

    /// Every event in order, as its kind id and the bytes after it; the
    /// rest of an event is skipped by its length, not decoded.
    fn encoded(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.segments.iter().flat_map(|segment| {
            let mut reader = Reader {
                bytes: segment,
                pos: 0,
            };
            std::iter::from_fn(move || {
                if reader.pos == reader.bytes.len() {
                    return None;
                }
                let len = reader.varint() as usize;
                let end = reader.pos + len;
                let kind = reader.varint();
                let rest = &reader.bytes[reader.pos..end];
                reader.pos = end;
                Some((kind, rest))
            })
        })
    }

    /// Decode what [`Journal::encoded`] left of an event.
    fn decode<'a>(&'a self, rest: &'a [u8]) -> (SimTime, Fields<'a>) {
        let mut reader = Reader {
            bytes: rest,
            pos: 0,
        };
        let at = SimTime::from_millis(f64::from_bits(reader.bits()));
        let left = reader.varint() as usize;
        let fields = Fields {
            strings: &self.strings,
            reader,
            left,
        };
        (at, fields)
    }

    fn event(&self, kind: u64, rest: &[u8]) -> Event {
        let (at, fields) = self.decode(rest);
        let name = |id| *self.names.get(id);
        // Sized up front: a `collect` of the same fields read ≈ 30 % slower.
        let mut list = Vec::with_capacity(fields.left);
        for (id, value) in fields {
            list.push((name(id), value.into()));
        }
        Event {
            at,
            kind: name(kind),
            fields: list,
        }
    }
}

/// The shared observability handle. Cheap to clone; a disabled handle
/// ([`Obs::off`], also the `Default`) makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Store>>,
}

impl Obs {
    /// An enabled, empty registry + journal.
    pub fn new() -> Self {
        Obs {
            inner: Some(Arc::new(Store::default())),
        }
    }

    /// A disabled handle: every emit is a no-op, every snapshot empty.
    pub fn off() -> Self {
        Obs { inner: None }
    }

    /// Whether emissions are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn resolve(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        kind: Kind,
    ) -> Option<Arc<Series>> {
        self.inner.as_ref()?.resolve(name, labels, kind)
    }

    /// Resolve a counter series to a handle. The series appears in the
    /// snapshot at the handle's first emission, not before.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> CounterHandle {
        CounterHandle(self.resolve(name, labels, Kind::Counter))
    }

    /// Resolve a gauge series to a handle. The series appears in the
    /// snapshot at the handle's first write, not before.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> GaugeHandle {
        GaugeHandle(self.resolve(name, labels, Kind::Gauge))
    }

    /// Resolve a histogram series to a handle. The series appears in the
    /// snapshot at the handle's first observation, not before.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> HistogramHandle {
        HistogramHandle(self.resolve(name, labels, Kind::Histogram))
    }

    /// A counter family over the one label `label`; each member lands in
    /// the series `name{label=value}`, the one the named calls reach.
    pub fn counter_family(&self, name: &'static str, label: &'static str) -> CounterFamily {
        CounterFamily(self.inner.as_ref().map(|store| {
            Arc::new(Family {
                store: Arc::clone(store),
                name,
                label,
                members: Mutex::new(BTreeMap::new()),
            })
        }))
    }

    /// Add `delta` to a counter series. Safe from worker threads: counter
    /// additions commute, so totals are thread-count independent.
    pub fn counter_add(&self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        if let Some(series) = self.resolve(name, labels, Kind::Counter) {
            series.add(delta);
        }
    }

    /// Increment a counter series by one.
    pub fn counter_inc(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Current value of a counter series (0 when absent or disabled).
    pub fn counter_value(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        match inner.series.lock().get(&series_key(name, labels)) {
            Some(series) => match &series.cell {
                Cell::Counter(v) => v.load(Ordering::Relaxed),
                _ => 0,
            },
            None => 0,
        }
    }

    /// Set a gauge series. Last write wins, so only emit from
    /// coordinator-sequential code (or a `Deferred`).
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        if let Some(series) = self.resolve(name, labels, Kind::Gauge) {
            series.set(value);
        }
    }

    /// Record a histogram observation. Float sums do not commute, so only
    /// emit from coordinator-sequential code (or a `Deferred`).
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        if let Some(series) = self.resolve(name, labels, Kind::Histogram) {
            series.observe(value);
        }
    }

    /// One shared copy of `s`: every call with the same text returns the
    /// same allocation, so a journal that repeats a string holds it once.
    pub fn intern(&self, s: &str) -> Arc<str> {
        let Some(inner) = &self.inner else {
            return s.into();
        };
        let mut strings = inner.strings.lock();
        if let Some(shared) = strings.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = s.into();
        strings.insert(Arc::clone(&shared));
        shared
    }

    /// Append a journal event. Journal order is snapshot order, so only
    /// emit from coordinator-sequential code (or a `Deferred`).
    pub fn event(&self, at: SimTime, kind: &'static str, fields: impl IntoIterator<Item = Field>) {
        let Some(inner) = &self.inner else { return };
        inner.journal.lock().push(at, kind, fields.into_iter());
    }

    /// Append a span: an event timestamped at `start` whose fields end
    /// with the elapsed virtual milliseconds.
    pub fn span(
        &self,
        kind: &'static str,
        start: SimTime,
        end: SimTime,
        fields: impl IntoIterator<Item = Field>,
    ) {
        let ms = ("ms", FieldValue::F64((end - start).as_millis()));
        self.event(start, kind, fields.into_iter().chain([ms]));
    }

    /// A copy of the full journal.
    pub fn journal(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let journal = inner.journal.lock();
        let mut events = Vec::with_capacity(journal.len);
        events.extend(
            journal
                .encoded()
                .map(|(kind, rest)| journal.event(kind, rest)),
        );
        events
    }

    /// Number of journal entries.
    pub fn journal_len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.journal.lock().len,
            None => 0,
        }
    }

    /// All journal entries of one kind, in journal order. Events of
    /// other kinds are skipped by their length, not decoded.
    pub fn events_of(&self, kind: &str) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let journal = inner.journal.lock();
        // Every id whose text is `kind`: one per address it was emitted at.
        let ids: Vec<u64> = (0..journal.names.values.len() as u64)
            .filter(|&id| *journal.names.get(id) == kind)
            .collect();
        if ids.is_empty() {
            return Vec::new();
        }
        journal
            .encoded()
            .filter(|(id, _)| ids.contains(id))
            .map(|(id, rest)| journal.event(id, rest))
            .collect()
    }

    /// The metrics registry as sorted `name{k=v,...} value` lines.
    pub fn metrics_snapshot(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let series = inner.series.lock();
        let mut out = String::new();
        for (key, series) in series.iter() {
            if !series.live.load(Ordering::Relaxed) {
                continue;
            }
            out.push_str(key);
            out.push(' ');
            match &series.cell {
                Cell::Counter(v) => {
                    let _ = write!(out, "{}", v.load(Ordering::Relaxed));
                }
                Cell::Gauge(v) => write_f64(&mut out, f64::from_bits(v.load(Ordering::Relaxed))),
                Cell::Histogram(h) => {
                    let h = h.lock();
                    let _ = write!(out, "count={} sum=", h.count);
                    write_f64(&mut out, h.sum);
                    out.push_str(" min=");
                    write_f64(&mut out, h.min);
                    out.push_str(" max=");
                    write_f64(&mut out, h.max);
                    for (i, n) in h.buckets.iter().enumerate() {
                        match HISTOGRAM_BOUNDS_MS.get(i) {
                            Some(b) => {
                                out.push_str(" le");
                                write_f64(&mut out, *b);
                                let _ = write!(out, "={n}");
                            }
                            None => {
                                let _ = write!(out, " inf={n}");
                            }
                        }
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// The journal as JSONL: one `{"at":..,"kind":..,<fields>}` object per
    /// line, fields in emission order.
    pub fn journal_snapshot(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let journal = inner.journal.lock();
        // Each kind and field name is escaped once, not once per use.
        let names: Vec<String> = (journal.names.values.iter())
            .map(|name| {
                let mut json = String::new();
                write_json_string(&mut json, name);
                json
            })
            .collect();
        let mut out = String::new();
        for (kind, rest) in journal.encoded() {
            let (at, fields) = journal.decode(rest);
            out.push_str("{\"at\":");
            write_f64(&mut out, at.as_millis());
            out.push_str(",\"kind\":");
            out.push_str(&names[kind as usize]);
            for (name, v) in fields {
                out.push(',');
                out.push_str(&names[name as usize]);
                out.push(':');
                match v {
                    Value::Str(s) => write_json_string(&mut out, s),
                    Value::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    Value::F64(f) => write_f64(&mut out, f),
                    Value::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Render a series key: labels sorted by name so any emission order maps
/// to the same series.
fn series_key(name: &str, labels: &[(&'static str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted: Vec<(&str, &str)> = labels.iter().map(|&(k, v)| (k, v)).collect();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
        debug_assert!(
            !k.contains(['{', '}', ',', '=']) && !v.contains(['{', '}', ',', '=']),
            "label chars would make the series key ambiguous"
        );
    }
    key.push('}');
    key
}

/// Deterministic float rendering into `out`: shortest round-trip form for
/// finite values (Rust's `{}` for f64), quoted names for non-finite ones
/// so the JSONL stays parseable.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) into
/// `out`; runs that need no escape are copied whole.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(escape);
        }
        clean = i + c.len_utf8();
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_noop() {
        let obs = Obs::off();
        obs.counter_inc("c_total", &[]);
        obs.gauge_set("g", &[], 1.0);
        obs.observe("h_ms", &[], 2.0);
        obs.counter("c_total", &[]).inc();
        obs.gauge("g", &[]).set(1.0);
        obs.histogram("h_ms", &[]).observe(2.0);
        obs.counter_family("f_total", "server").inc("S1");
        obs.event(SimTime::from_millis(1.0), "e", []);
        assert!(!obs.is_enabled());
        assert_eq!(obs.counter_value("c_total", &[]), 0);
        assert_eq!(obs.journal_len(), 0);
        assert_eq!(obs.metrics_snapshot(), "");
        assert_eq!(obs.journal_snapshot(), "");
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let obs = Obs::new();
        obs.counter_inc("probes_total", &[("server", "S1"), ("outcome", "up")]);
        obs.counter_add("probes_total", &[("outcome", "up"), ("server", "S1")], 2);
        obs.counter_inc("probes_total", &[("server", "S2"), ("outcome", "down")]);
        assert_eq!(
            obs.counter_value("probes_total", &[("server", "S1"), ("outcome", "up")]),
            3,
            "label order must not split the series"
        );
        assert_eq!(
            obs.metrics_snapshot(),
            "probes_total{outcome=down,server=S2} 1\nprobes_total{outcome=up,server=S1} 3\n"
        );
    }

    #[test]
    fn a_handle_that_never_fires_leaves_no_series() {
        let obs = Obs::new();
        let hits = obs.counter("hits_total", &[]);
        let wait = obs.histogram("wait_ms", &[]);
        let family = obs.counter_family("fragments_total", "server");
        assert_eq!(obs.metrics_snapshot(), "", "resolved, never fired");
        // A zero add is an emission, as a named zero add always was.
        hits.add(0);
        assert_eq!(obs.metrics_snapshot(), "hits_total 0\n");
        wait.observe(0.25);
        family.inc("S1");
        let snap = obs.metrics_snapshot();
        assert!(snap.starts_with("fragments_total{server=S1} 1\nhits_total 0\n"));
        assert!(snap.contains("wait_ms count=1 sum=0.25"), "{snap}");
    }

    #[test]
    fn a_one_label_family_and_the_named_call_land_in_one_series() {
        let obs = Obs::new();
        let family = obs.counter_family("fragments_total", "server");
        family.inc("S1");
        obs.counter_inc("fragments_total", &[("server", "S1")]);
        family.inc("S1");
        family.inc("S2");
        obs.counter("fragments_total", &[("server", "S2")]).add(3);
        assert_eq!(obs.counter_value("fragments_total", &[("server", "S1")]), 3);
        assert_eq!(
            obs.metrics_snapshot(),
            "fragments_total{server=S1} 3\nfragments_total{server=S2} 4\n"
        );
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let obs = Obs::new();
        let entries = obs.gauge("plan_cache_entries", &[]);
        assert_eq!(obs.metrics_snapshot(), "");
        obs.gauge_set("plan_cache_entries", &[], 5.0);
        entries.set(3.5);
        assert_eq!(obs.metrics_snapshot(), "plan_cache_entries 3.5\n");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let obs = Obs::new();
        for v in [0.25, 0.75, 7.0, 5000.0] {
            obs.observe("query_response_ms", &[], v);
        }
        let snap = obs.metrics_snapshot();
        assert!(snap.starts_with("query_response_ms count=4 sum=5008 min=0.25 max=5000"));
        assert!(snap.contains(" le0.5=1 "), "{snap}");
        assert!(snap.contains(" le1=1 "), "{snap}");
        assert!(snap.contains(" le10=1 "), "{snap}");
        assert!(snap.trim_end().ends_with("inf=1"), "{snap}");
    }

    #[test]
    fn journal_renders_jsonl_in_order() {
        let obs = Obs::new();
        obs.event(
            SimTime::from_millis(1.5),
            "probe",
            [("server", "S1".into()), ("ok", true.into())],
        );
        obs.span(
            "compile",
            SimTime::from_millis(2.0),
            SimTime::from_millis(3.25),
            [("query", 7u64.into())],
        );
        assert_eq!(
            obs.journal_snapshot(),
            "{\"at\":1.5,\"kind\":\"probe\",\"server\":\"S1\",\"ok\":true}\n\
             {\"at\":2,\"kind\":\"compile\",\"query\":7,\"ms\":1.25}\n"
        );
        assert_eq!(obs.events_of("probe").len(), 1);
        let compile = &obs.events_of("compile")[0];
        assert_eq!(compile.field("ms"), Some(&FieldValue::F64(1.25)));
    }

    /// Read the journal behind an enabled handle.
    fn with_journal<R>(obs: &Obs, read: impl FnOnce(&Journal) -> R) -> Option<R> {
        obs.inner.as_ref().map(|inner| read(&inner.journal.lock()))
    }

    /// The segments' capacities, in order.
    fn segment_capacities(obs: &Obs) -> Vec<usize> {
        with_journal(obs, |j| j.segments.iter().map(Vec::capacity).collect()).unwrap_or_default()
    }

    #[test]
    fn events_and_snapshot_are_whole_across_segment_boundaries() {
        let obs = Obs::new();
        // Events of 0, 2 and 11 fields until three segments are open; a
        // segment is closed when the next event's bytes do not fit.
        let width = |i: usize| [0, 2, 11][i % 3];
        let mut expected = String::new();
        let mut n = 0;
        while segment_capacities(&obs).len() < 3 || n % 3 != 0 {
            let fields = (0..width(n)).map(|j| match j {
                0 => ("i", FieldValue::from(n)),
                _ => ("s", FieldValue::from("x")),
            });
            obs.event(SimTime::from_millis(n as f64), "e", fields.clone());
            let _ = write!(expected, "{{\"at\":{n},\"kind\":\"e\"");
            for (k, v) in fields {
                let v = match v {
                    FieldValue::U64(n) => n.to_string(),
                    _ => "\"x\"".to_owned(),
                };
                let _ = write!(expected, ",\"{k}\":{v}");
            }
            expected.push_str("}\n");
            n += 1;
        }
        assert_eq!(
            segment_capacities(&obs),
            [SEGMENT_BYTES; 3],
            "no segment grew"
        );
        assert_eq!(obs.journal_len(), n);
        assert_eq!(obs.journal_snapshot(), expected);
        let events = obs.events_of("e");
        assert_eq!(events, obs.journal());
        assert_eq!(events.len(), n);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.at, SimTime::from_millis(i as f64));
            assert_eq!(e.fields.len(), width(i));
            if width(i) > 0 {
                assert_eq!(e.field("i"), Some(&FieldValue::U64(i as u64)));
            }
        }
        assert!(obs.events_of("other").is_empty());
    }

    /// A field value's bits, so a NaN payload and -0.0 compare exactly.
    fn bits(v: &FieldValue) -> (u8, u64, &str) {
        match v {
            FieldValue::Str(s) => (0, 0, s),
            FieldValue::U64(n) => (1, *n, ""),
            FieldValue::F64(f) => (2, f.to_bits(), ""),
            FieldValue::Bool(b) => (3, u64::from(*b), ""),
        }
    }

    #[test]
    fn every_value_round_trips_bit_exact_at_its_edges() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let subnormal = f64::from_bits(1);
        let fields: Vec<Field> = vec![
            ("u0", 0u64.into()),
            ("u127", 127u64.into()),
            ("u128", 128u64.into()),
            ("umax", u64::MAX.into()),
            ("neg_zero", (-0.0f64).into()),
            ("nan", nan.into()),
            ("inf", f64::INFINITY.into()),
            ("neg_inf", f64::NEG_INFINITY.into()),
            ("subnormal", subnormal.into()),
            ("yes", true.into()),
            ("no", false.into()),
            ("empty", "".into()),
            ("text", "Zürich ☃ 𝄞".into()),
        ];
        let obs = Obs::new();
        let at = SimTime::from_millis(f64::from_bits(0x4000_0000_0000_0001));
        obs.event(at, "edges", fields.iter().cloned());
        let journal = obs.journal();
        assert_eq!(journal.len(), 1);
        let event = &journal[0];
        assert_eq!(event.at.as_millis().to_bits(), at.as_millis().to_bits());
        assert_eq!(event.kind, "edges");
        let got: Vec<_> = event.fields.iter().map(|(k, v)| (*k, bits(v))).collect();
        let want: Vec<_> = fields.iter().map(|(k, v)| (*k, bits(v))).collect();
        assert_eq!(got, want);
        let mut expected = String::from("{\"at\":");
        write_f64(&mut expected, at.as_millis());
        expected.push_str(
            ",\"kind\":\"edges\",\"u0\":0,\"u127\":127,\"u128\":128,\
             \"umax\":18446744073709551615,\"neg_zero\":-0,\"nan\":\"NaN\",\
             \"inf\":\"inf\",\"neg_inf\":\"-inf\",\"subnormal\":",
        );
        write_f64(&mut expected, subnormal);
        expected.push_str(",\"yes\":true,\"no\":false,\"empty\":\"\",\"text\":\"Zürich ☃ 𝄞\"}\n");
        assert_eq!(obs.journal_snapshot(), expected);
    }

    #[test]
    fn events_of_no_fields_and_of_hundreds_round_trip() {
        let obs = Obs::new();
        // 300 distinct names: field counts and name ids past one varint byte.
        let names: Vec<&'static str> = (0..300)
            .map(|i| &*Box::leak(format!("f{i}").into_boxed_str()))
            .collect();
        let wide: Vec<Field> = names
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, FieldValue::from(i * 1000)))
            .collect();
        obs.event(SimTime::ZERO, "empty", []);
        obs.event(SimTime::from_millis(1.0), "wide", wide.iter().cloned());
        obs.event(SimTime::from_millis(2.0), "empty", []);
        let journal = obs.journal();
        assert_eq!(journal.len(), 3);
        assert!(journal[0].fields.is_empty() && journal[2].fields.is_empty());
        assert_eq!(journal[1].fields, wide);
        let snap = obs.journal_snapshot();
        assert!(snap
            .starts_with("{\"at\":0,\"kind\":\"empty\"}\n{\"at\":1,\"kind\":\"wide\",\"f0\":0,"));
        assert!(snap.ends_with(",\"f299\":299000}\n{\"at\":2,\"kind\":\"empty\"}\n"));
    }

    #[test]
    fn an_under_reporting_iterator_and_an_oversized_event_round_trip() {
        let obs = Obs::new();
        let fields = |n: u64| {
            let mut i = 0;
            // `from_fn` reports a size of 0.
            std::iter::from_fn(move || {
                i += 1;
                (i <= n).then(|| ("n", FieldValue::U64(u64::MAX - i)))
            })
        };
        obs.event(SimTime::ZERO, "few", fields(50));
        // 11 bytes a field: more than a whole segment.
        let big = (SEGMENT_BYTES / 11 + 100) as u64;
        obs.event(SimTime::ZERO, "many", fields(big));
        obs.event(SimTime::ZERO, "few", fields(50));
        let capacities = segment_capacities(&obs);
        assert_eq!(capacities.len(), 3);
        assert_eq!(capacities[0], SEGMENT_BYTES);
        assert!(
            capacities[1] > SEGMENT_BYTES,
            "the big event has a segment of its size"
        );
        assert_eq!(capacities[2], SEGMENT_BYTES);
        let journal = obs.journal();
        let lens: Vec<usize> = journal.iter().map(|e| e.fields.len()).collect();
        assert_eq!(lens, [50, big as usize, 50]);
        assert_eq!(journal[1].fields, fields(big).collect::<Vec<_>>());
        assert_eq!(journal[2].fields, fields(50).collect::<Vec<_>>());
    }

    #[test]
    fn equal_strings_from_distinct_allocations_render_the_same() {
        let shared = Obs::new();
        let distinct = Obs::new();
        let s1: Arc<str> = "S1".into();
        for i in 0..3 {
            let at = SimTime::from_millis(i as f64);
            shared.event(at, "probe", [("server", FieldValue::from(&s1))]);
            let fresh: Arc<str> = String::from("S1").into();
            distinct.event(at, "probe", [("server", fresh.into())]);
        }
        let tables = |obs: &Obs| with_journal(obs, |j| j.strings.values.len());
        assert_eq!((tables(&shared), tables(&distinct)), (Some(1), Some(3)));
        assert_eq!(shared.journal_snapshot(), distinct.journal_snapshot());
        assert_eq!(shared.journal(), distinct.journal());
    }

    #[test]
    fn events_of_matches_kinds_by_text_not_address() {
        let obs = Obs::new();
        // The same kind text at a second address gets a second id.
        let other: &'static str = Box::leak(String::from("probe").into_boxed_str());
        obs.event(SimTime::from_millis(1.0), "probe", [("n", 1u64.into())]);
        obs.event(SimTime::from_millis(2.0), "server_down", []);
        obs.event(SimTime::from_millis(3.0), other, [("n", 3u64.into())]);
        let asked = String::from("probe");
        let probes = obs.events_of(&asked);
        let ns: Vec<_> = probes.iter().map(|e| e.field("n").cloned()).collect();
        assert_eq!(ns, [Some(FieldValue::U64(1)), Some(FieldValue::U64(3))]);
        assert_eq!(obs.events_of("server_down").len(), 1);
        assert!(obs.events_of("prob").is_empty());
    }

    #[test]
    fn interned_strings_share_one_allocation() {
        let obs = Obs::new();
        let a = obs.intern("seqscan(t)");
        let b = obs.intern(&String::from("seqscan(t)"));
        assert!(Arc::ptr_eq(&a, &b));
        let server = ServerId::new("S1");
        let (FieldValue::Str(x), FieldValue::Str(y)) =
            (FieldValue::from(&server), FieldValue::from(&server))
        else {
            panic!("server fields are strings");
        };
        assert!(Arc::ptr_eq(&x, &y), "server fields share the id's name");
    }

    #[test]
    fn json_strings_are_escaped() {
        let obs = Obs::new();
        obs.event(
            SimTime::ZERO,
            "query_failed",
            [("error", "bad \"sql\"\nline\\2\u{1}é".into())],
        );
        assert_eq!(
            obs.journal_snapshot(),
            "{\"at\":0,\"kind\":\"query_failed\",\"error\":\"bad \\\"sql\\\"\\nline\\\\2\\u0001é\"}\n"
        );
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let other = obs.clone();
        other.counter_inc("c_total", &[]);
        assert_eq!(obs.counter_value("c_total", &[]), 1);
    }

    #[test]
    fn non_finite_floats_render_as_strings() {
        let obs = Obs::new();
        obs.gauge_set("g", &[], f64::INFINITY);
        assert_eq!(obs.metrics_snapshot(), "g \"inf\"\n");
    }
}
