//! The staged access pipeline and its observer plane.
//!
//! Every L1 data reference walks an explicit pipeline of short stages:
//!
//! ```text
//! Lookup ──hit──▶ Hit ──decayed──▶ DecayRefetch
//!    │
//!   miss─▶ MissClassify ─▶ VictimProbe ──vc hit──▶ swap fill
//!                              │
//!                             miss ─▶ MissIssue ─▶ Coherence ─▶ Fill / Evict
//! ```
//!
//! Each stage moves data between the caches, MSHRs and buses (the
//! *timing* model), and announces what happened by emitting a typed
//! event — [`LookupEvent`], [`HitEvent`], [`MissEvent`], [`FillEvent`],
//! [`EvictEvent`]. Everything that is bookkeeping rather than timing —
//! generation tracking, metric collection, predictor training,
//! victim-cache admission, and the lockstep-oracle tap — lives in
//! observers implementing [`MemObserver`] that react to those events.
//!
//! Observers run in a fixed order for every event: generation plane →
//! metrics → predictors → victim admission → oracle tap. Data flows
//! between them through a per-event [`Reactions`] scratchpad: the
//! generation plane publishes the closed
//! [`GenerationRecord`], the victim
//! filter reads it to make its admission call, and the oracle tap
//! records the decision for the lockstep checker. The order is part of
//! the behavioral contract — reordering observers changes which state a
//! later observer sees and breaks bit-exactness with the golden runs.
//!
//! Every stage runs for one core of the machine, on that core's L1 and
//! observers. The Coherence stage ([`crate::multicore`]) runs only at
//! N > 1, at every demand fill: the fetch's L1↔L2 bus slot is its
//! BusRd or BusRdX, and a store hit on a Shared line takes a bus slot
//! for its upgrade.
//!
//! The prefetch machinery (queue, issue, in-flight heap, arrival fills)
//! also lives here: a prefetch arrival is just another Fill/Evict event
//! pair, emitted from [`MemorySystem::advance`] instead of a demand
//! access.

use std::cmp::Reverse;

use timekeeping::{
    AdaptiveDeadTimeFilter, CacheGeometry, CollinsFilter, CorrelationStats, Cycle, Dbcp, DbcpStats,
    DeadTimeFilter, EvictCause, EvictionInfo, GenerationRecord, GlobalTicker, LineAddr, LineMeta,
    LinePlane, MissKind, NoFilter, PrefetchRequest, ReloadIntervalFilter, TimekeepingPrefetcher,
    Timeliness, VictimCache, VictimFilter,
};
use timekeeping::{MetricsCollector, Pc};

use crate::cache::ProbeResult;
use crate::config::{L1Mode, MachineConfig, PrefetchMode, SystemConfig, VictimMode};
use crate::hierarchy::{AccessOutcome, CoreSlice, MemorySystem};
use crate::obs::{self, ProfStage, TraceKind, TraceObserver};
use crate::oracle::{SimLevel, SimObservation};
use crate::trace::MemRef;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Emitted at the top of every access, before the L1 probe. Predictors
/// that train on the full reference stream (the stride table) react
/// here.
#[derive(Debug, Clone, Copy)]
pub struct LookupEvent {
    /// The referenced address.
    pub addr: timekeeping::Addr,
    /// The referencing instruction.
    pub pc: Pc,
    /// Access cycle.
    pub now: Cycle,
}

/// An L1 hit.
#[derive(Debug, Clone, Copy)]
pub struct HitEvent {
    /// The referenced line.
    pub line: LineAddr,
    /// The frame that hit.
    pub frame: usize,
    /// The referencing instruction.
    pub pc: Pc,
    /// Access cycle.
    pub now: Cycle,
}

/// An L1 miss, after ground-truth classification and before service.
#[derive(Debug, Clone, Copy)]
pub struct MissEvent {
    /// The missing line.
    pub line: LineAddr,
    /// The referenced address.
    pub addr: timekeeping::Addr,
    /// Ground-truth classification from the fully-associative shadow.
    pub kind: MissKind,
    /// Access cycle.
    pub now: Cycle,
}

/// A line entering an L1 frame — a generation start.
#[derive(Debug, Clone, Copy)]
pub struct FillEvent {
    /// The filled line.
    pub line: LineAddr,
    /// Destination frame.
    pub frame: usize,
    /// L1 set index of the line.
    pub set: u64,
    /// L1 tag of the line.
    pub tag: u64,
    /// Referencing instruction, for demand fills; prefetch fills carry
    /// no PC.
    pub pc: Option<Pc>,
    /// Whether this is a demand fill (false = prefetch arrival).
    pub demand: bool,
    /// The line this fill displaced, if any.
    pub evicted: Option<LineAddr>,
    /// Fill cycle.
    pub now: Cycle,
}

/// A line leaving an L1 frame — a generation end. Emitted *before* the
/// corresponding [`FillEvent`] of the displacing line.
#[derive(Debug, Clone, Copy)]
pub struct EvictEvent {
    /// The evicted line.
    pub line: LineAddr,
    /// The frame it leaves.
    pub frame: usize,
    /// Why the generation ended.
    pub cause: EvictCause,
    /// L1 tag of the replacing line (None for prefetch fills, where
    /// Collins conflict detection does not apply).
    pub incoming_tag: Option<u64>,
    /// L1 set index of the evicted line.
    pub set_index: u64,
    /// L1 tag of the evicted line.
    pub tag: u64,
    /// When the generation ended (for decay this is the switch-off
    /// point, which precedes the access that discovers it).
    pub at: Cycle,
}

impl EvictEvent {
    /// The event closing the generation of `line` in `frame` of an L1
    /// shaped `geom`.
    pub(crate) fn new(
        geom: &CacheGeometry,
        frame: usize,
        line: LineAddr,
        at: Cycle,
        cause: EvictCause,
        incoming_tag: Option<u64>,
    ) -> Self {
        EvictEvent {
            line,
            frame,
            cause,
            incoming_tag,
            set_index: geom.index_of_line(line),
            tag: geom.tag_of_line(line),
            at,
        }
    }
}

/// The bus transaction class a snoop carries (multi-core runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceKind {
    /// A read miss requesting a shared copy.
    BusRd,
    /// A write miss requesting an exclusive copy (invalidates sharers).
    BusRdX,
    /// A write hit on a shared copy claiming ownership without a data
    /// transfer (invalidates the other sharers).
    Upgrade,
}

impl CoherenceKind {
    /// A stable numeric code for trace records (0 BusRd, 1 BusRdX,
    /// 2 upgrade).
    pub fn code(self) -> u64 {
        match self {
            CoherenceKind::BusRd => 0,
            CoherenceKind::BusRdX => 1,
            CoherenceKind::Upgrade => 2,
        }
    }
}

/// A coherence bus transaction observed by every core (multi-core runs).
#[derive(Debug, Clone, Copy)]
pub struct SnoopEvent {
    /// The line the transaction names.
    pub line: LineAddr,
    /// The requesting core.
    pub requester: u32,
    /// The transaction class.
    pub kind: CoherenceKind,
    /// The cycle the bus granted the transaction.
    pub at: Cycle,
}

/// A line copy killed by coherence (a [`SnoopEvent`] claiming exclusive
/// ownership, or an inclusive-L2 back-invalidation).
#[derive(Debug, Clone, Copy)]
pub struct InvalidateEvent {
    /// The invalidated line.
    pub line: LineAddr,
    /// The core that lost its copy.
    pub owner: u32,
    /// The L1 frame the copy occupied (`None` when the copy lived in the
    /// victim cache).
    pub frame: Option<usize>,
    /// When the copy died.
    pub at: Cycle,
}

/// A cache-to-cache transfer: a modified line supplied directly by its
/// owning core instead of the L2/memory (multi-core runs).
#[derive(Debug, Clone, Copy)]
pub struct C2cEvent {
    /// The transferred line.
    pub line: LineAddr,
    /// The core supplying its modified copy.
    pub from: u32,
    /// The requesting core.
    pub to: u32,
    /// The cycle the bus granted the transfer.
    pub at: Cycle,
}

/// Per-event scratchpad through which observers hand results to each
/// other and back to the emitting stage.
#[derive(Debug, Default)]
pub struct Reactions {
    /// Access interval of a hit, published by the generation plane.
    pub access_interval: Option<u64>,
    /// The missing line's last-generation metadata at miss time.
    pub line_meta: Option<LineMeta>,
    /// Reload interval at miss time (now minus last generation start).
    pub reload_interval: Option<u64>,
    /// The generation record closed by an evict event.
    pub generation: Option<GenerationRecord>,
    /// Victim-filter admission decision, if an eviction was offered.
    pub vc_admitted: Option<bool>,
    /// Address-prediction outcome scored at a fill (was the predicted
    /// tag correct?).
    pub addr_scored: Option<bool>,
    /// Prefetch requests produced by predictors; the emitting stage
    /// enqueues them in order.
    pub prefetches: Vec<PrefetchRequest>,
}

/// A consumer of pipeline events.
///
/// All non-timing bookkeeping in the memory system flows through this
/// trait: the generation plane, the metrics collector, the prefetch
/// predictors, victim-cache admission and the lockstep-oracle tap each
/// implement it and are dispatched in that fixed order for every event.
pub trait MemObserver {
    /// A reference is about to probe the L1.
    fn on_lookup(&mut self, _ev: &LookupEvent, _rx: &mut Reactions) {}
    /// The reference hit.
    fn on_hit(&mut self, _ev: &HitEvent, _rx: &mut Reactions) {}
    /// The reference missed.
    fn on_miss(&mut self, _ev: &MissEvent, _rx: &mut Reactions) {}
    /// A line entered a frame.
    fn on_fill(&mut self, _ev: &FillEvent, _rx: &mut Reactions) {}
    /// A line left a frame.
    fn on_evict(&mut self, _ev: &EvictEvent, _rx: &mut Reactions) {}
    /// The hierarchy level that serviced an L1 miss was determined.
    fn on_service(&mut self, _level: SimLevel) {}
    /// A coherence bus transaction was granted (multi-core runs only;
    /// the coherence stage never runs at one core).
    fn on_snoop(&mut self, _ev: &SnoopEvent, _rx: &mut Reactions) {}
    /// A line copy was killed by coherence (multi-core runs only).
    fn on_invalidate(&mut self, _ev: &InvalidateEvent, _rx: &mut Reactions) {}
    /// A modified line was supplied cache-to-cache (multi-core runs
    /// only).
    fn on_c2c(&mut self, _ev: &C2cEvent, _rx: &mut Reactions) {}
}

// ---------------------------------------------------------------------------
// Observer implementations
// ---------------------------------------------------------------------------

/// The unified per-line/per-frame timekeeping plane (generation
/// tracking + line metadata), as an observer.
#[derive(Debug)]
pub(crate) struct GenObserver {
    pub(crate) plane: LinePlane,
}

impl MemObserver for GenObserver {
    fn on_hit(&mut self, ev: &HitEvent, rx: &mut Reactions) {
        rx.access_interval = Some(self.plane.hit(ev.frame, ev.now));
    }

    fn on_miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        let meta = self.plane.line_meta(ev.line).copied();
        rx.reload_interval = meta.map(|h| ev.now.since(h.last_start));
        rx.line_meta = meta;
    }

    fn on_fill(&mut self, ev: &FillEvent, _rx: &mut Reactions) {
        self.plane.fill(ev.frame, ev.line, ev.now);
    }

    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        rx.generation = self.plane.evict(ev.frame, ev.at, ev.cause);
    }

    fn on_invalidate(&mut self, ev: &InvalidateEvent, rx: &mut Reactions) {
        if let Some(frame) = ev.frame {
            rx.generation = self.plane.evict(frame, ev.at, EvictCause::Invalidate);
        }
    }
}

/// Metric distributions, as an observer.
#[derive(Debug)]
pub(crate) struct MetricsObserver {
    pub(crate) collector: MetricsCollector,
}

impl MemObserver for MetricsObserver {
    fn on_hit(&mut self, _ev: &HitEvent, rx: &mut Reactions) {
        if let Some(interval) = rx.access_interval {
            self.collector.on_access_interval(interval);
        }
    }

    fn on_miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        self.collector
            .on_miss(ev.kind, rx.line_meta.as_ref(), rx.reload_interval);
    }

    fn on_evict(&mut self, _ev: &EvictEvent, rx: &mut Reactions) {
        self.on_close(rx.generation.as_ref());
    }

    fn on_invalidate(&mut self, _ev: &InvalidateEvent, rx: &mut Reactions) {
        self.on_close(rx.generation.as_ref());
    }
}

impl MetricsObserver {
    /// Records a generation the plane closed (by eviction, invalidation
    /// or the end-of-run flush).
    fn on_close(&mut self, rec: Option<&GenerationRecord>) {
        if let Some(rec) = rec {
            self.collector.on_generation(rec);
        }
    }
}

/// The configured prefetcher / address predictor.
#[derive(Debug)]
pub(crate) enum PrefetcherImpl {
    None,
    Tk(TimekeepingPrefetcher),
    Dbcp(Dbcp),
    Markov(timekeeping::Markov),
    Stride(timekeeping::StridePrefetcher),
}

/// Predictor training and address-prediction scoring, as an observer.
/// Prefetch targets surface through [`Reactions::prefetches`]; the
/// emitting stage enqueues them.
#[derive(Debug)]
pub(crate) struct PredictorObserver {
    pub(crate) prefetcher: PrefetcherImpl,
    /// Per-frame predicted next tag, scored against the next fill
    /// (Figure 20).
    pub(crate) addr_pred: Vec<Option<u64>>,
    pub(crate) geom: CacheGeometry,
}

impl PredictorObserver {
    /// The predictor `cfg.prefetch` selects, with an empty address-
    /// prediction slot per L1 frame.
    pub(crate) fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Self {
        let m = &cfg.machine;
        let num_frames = m.l1d.num_frames() as usize;
        let prefetcher = match cfg.prefetch {
            PrefetchMode::None => PrefetcherImpl::None,
            PrefetchMode::Timekeeping(tcfg) => {
                PrefetcherImpl::Tk(TimekeepingPrefetcher::new(m.l1d, tcfg, ticker))
            }
            PrefetchMode::Dbcp(dcfg) => PrefetcherImpl::Dbcp(Dbcp::new(dcfg, num_frames)),
            PrefetchMode::Markov(mcfg) => PrefetcherImpl::Markov(timekeeping::Markov::new(mcfg)),
            PrefetchMode::Stride(scfg) => {
                PrefetcherImpl::Stride(timekeeping::StridePrefetcher::new(scfg, m.l1d))
            }
        };
        PredictorObserver {
            prefetcher,
            addr_pred: vec![None; num_frames],
            geom: m.l1d,
        }
    }

    /// Correlation-table statistics, for the timekeeping prefetcher.
    pub(crate) fn correlation_stats(&self) -> Option<CorrelationStats> {
        match &self.prefetcher {
            PrefetcherImpl::Tk(p) => Some(p.table_stats()),
            _ => None,
        }
    }

    /// DBCP statistics, for the DBCP prefetcher.
    pub(crate) fn dbcp_stats(&self) -> Option<DbcpStats> {
        match &self.prefetcher {
            PrefetcherImpl::Dbcp(d) => Some(d.stats()),
            _ => None,
        }
    }

    fn request(&self, line: LineAddr) -> PrefetchRequest {
        PrefetchRequest {
            line,
            frame: (self.geom.index_of_line(line) * self.geom.assoc() as u64) as usize,
            need_in_ticks: None,
        }
    }
}

impl MemObserver for PredictorObserver {
    fn on_lookup(&mut self, ev: &LookupEvent, rx: &mut Reactions) {
        // The stride table trains on every reference, hit or miss.
        if let PrefetcherImpl::Stride(sp) = &mut self.prefetcher {
            let targets = sp.on_access(ev.addr, ev.pc);
            for t in targets {
                rx.prefetches.push(self.request(t));
            }
        }
    }

    fn on_hit(&mut self, ev: &HitEvent, rx: &mut Reactions) {
        let target = match &mut self.prefetcher {
            PrefetcherImpl::Tk(p) => {
                p.on_hit(ev.frame);
                None
            }
            PrefetcherImpl::Dbcp(d) => d.on_access(ev.frame, ev.pc),
            PrefetcherImpl::None | PrefetcherImpl::Markov(_) | PrefetcherImpl::Stride(_) => None,
        };
        if let Some(t) = target {
            rx.prefetches.push(self.request(t));
        }
    }

    fn on_miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        // The Markov predictor correlates the global miss stream.
        if let PrefetcherImpl::Markov(mk) = &mut self.prefetcher {
            let targets = mk.on_miss(ev.line);
            for t in targets {
                rx.prefetches.push(self.request(t));
            }
        }
    }

    fn on_fill(&mut self, ev: &FillEvent, rx: &mut Reactions) {
        // Score the previous address prediction for this frame.
        if let Some(pred) = self.addr_pred[ev.frame].take() {
            rx.addr_scored = Some(pred == ev.tag);
        }
        let target = match &mut self.prefetcher {
            PrefetcherImpl::Tk(p) => {
                if ev.demand {
                    p.on_fill(ev.frame, ev.set, ev.tag);
                } else {
                    p.on_prefetch_fill(ev.frame, ev.set, ev.tag);
                }
                self.addr_pred[ev.frame] = p.predicted_next(ev.frame);
                None
            }
            PrefetcherImpl::Dbcp(d) => {
                d.on_replace(ev.frame, ev.line);
                match ev.pc {
                    Some(pc) => d.on_access(ev.frame, pc),
                    None => None,
                }
            }
            PrefetcherImpl::None | PrefetcherImpl::Markov(_) | PrefetcherImpl::Stride(_) => None,
        };
        if let Some(t) = target {
            rx.prefetches.push(self.request(t));
        }
    }
}

/// The victim cache and its admission filter.
#[derive(Debug)]
pub(crate) struct VictimUnit {
    pub(crate) cache: VictimCache,
    pub(crate) filter: Box<dyn VictimFilter>,
    /// Blocks entered by L1↔VC swaps, each inserted whatever the filter
    /// says. The swapped-out generation is offered to the filter first,
    /// like every other close, so a swap the filter admits counts in
    /// `admitted` as well.
    pub(crate) swap_fills: u64,
}

impl VictimUnit {
    /// The victim cache `cfg.victim` selects, if any, with its admission
    /// filter.
    pub(crate) fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Option<Self> {
        let m = &cfg.machine;
        let filter: Box<dyn VictimFilter> = match cfg.victim {
            VictimMode::None => return None,
            VictimMode::Unfiltered => Box::new(NoFilter),
            VictimMode::Collins => Box::new(CollinsFilter::new(m.l1d.num_sets() as usize)),
            VictimMode::DeadTime { threshold } => Box::new(DeadTimeFilter::new(threshold, ticker)),
            VictimMode::AdaptiveDeadTime => {
                Box::new(AdaptiveDeadTimeFilter::new(ticker, m.victim_entries))
            }
            VictimMode::ReloadInterval { threshold } => {
                Box::new(ReloadIntervalFilter::new(threshold))
            }
        };
        Some(VictimUnit {
            cache: VictimCache::new(m.victim_entries),
            filter,
            swap_fills: 0,
        })
    }
}

/// Victim-cache admission, as an observer: offers each generation an
/// Evict event closes to the filter and publishes the decision.
/// Generations killed by coherence ([`InvalidateEvent`]) are never
/// offered.
#[derive(Debug)]
pub(crate) struct VictimObserver {
    pub(crate) unit: Option<VictimUnit>,
}

impl MemObserver for VictimObserver {
    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        let Some(rec) = &rx.generation else {
            return;
        };
        if let Some(v) = self.unit.as_mut() {
            let info = EvictionInfo {
                line: ev.line,
                set_index: ev.set_index,
                tag: ev.tag,
                dead_time: rec.dead_time,
                live_time: rec.live_time,
                cause: ev.cause,
                reload_interval: rec.reload_interval,
                incoming_tag: ev.incoming_tag.unwrap_or(u64::MAX),
            };
            let admitted = v.cache.offer(v.filter.as_mut(), &info);
            rx.vc_admitted = Some(admitted);
        }
    }
}

/// Per-access scratch recorded for the lockstep checker (see
/// [`crate::oracle`]). Reset before each checked access; the writes are
/// unconditional because they are cheaper than branching on whether a
/// checker is installed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TapEvent {
    /// Level that serviced an L1 miss (`None` until the miss path runs).
    pub(crate) level: Option<SimLevel>,
    /// Line evicted from the L1 by this event, if any.
    pub(crate) evicted: Option<LineAddr>,
    /// Whether a generation-boundary event (plane evict) fired.
    pub(crate) closed: bool,
    /// Whether this was a decay refetch.
    pub(crate) decay: bool,
    /// Victim-filter admission decision, if an eviction was offered.
    pub(crate) vc_admitted: Option<bool>,
    /// L2 line evicted by the demand fill from memory, if any.
    pub(crate) l2_evicted: Option<LineAddr>,
    /// Other cores whose copy a coherence transaction killed, one bit
    /// per core.
    pub(crate) invalidated: u32,
}

impl TapEvent {
    /// The observation of `core`'s demand access that this scratch
    /// recorded, for the lockstep checker. The caller knows whether the
    /// access hit; a miss's level was recorded by the service event.
    pub(crate) fn observation(
        &self,
        core: usize,
        addr: timekeeping::Addr,
        is_store: bool,
        l1_hit: bool,
        vc_hit: bool,
    ) -> SimObservation {
        let level = if l1_hit {
            SimLevel::L1
        } else if vc_hit {
            SimLevel::Victim
        } else {
            self.level.expect("miss path records the serving level")
        };
        SimObservation {
            core,
            addr,
            is_store,
            level,
            evicted: self.evicted,
            l2_evicted: self.l2_evicted,
            invalidated: self.invalidated,
            closed_generation: self.closed,
            decay_refetch: self.decay,
            vc_admitted: self.vc_admitted,
        }
    }
}

/// The lockstep-oracle tap, as an observer: mirrors event outcomes into
/// the [`TapEvent`] scratch the checker compares against.
#[derive(Debug, Default)]
pub(crate) struct OracleTap {
    pub(crate) evt: TapEvent,
}

impl MemObserver for OracleTap {
    fn on_fill(&mut self, ev: &FillEvent, _rx: &mut Reactions) {
        if ev.demand {
            self.evt.evicted = ev.evicted;
        }
    }

    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        if rx.generation.is_some() {
            self.evt.closed = true;
            // During an access, a Flush-cause close only happens on a
            // decay refetch.
            if ev.cause == EvictCause::Flush {
                self.evt.decay = true;
            }
            if let Some(admitted) = rx.vc_admitted {
                self.evt.vc_admitted = Some(admitted);
            }
        }
    }

    fn on_service(&mut self, level: SimLevel) {
        self.evt.level = Some(level);
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Dispatches one event to every observer, in the canonical order. The
/// trace observer, when installed, runs *last*: it sees the fully
/// populated [`Reactions`] (e.g. the closed generation record) and
/// writes nothing back, so its presence cannot change simulation
/// results.
macro_rules! dispatch_all {
    ($obs:expr, $method:ident, $ev:expr, $rx:expr) => {{
        MemObserver::$method(&mut $obs.gens, $ev, $rx);
        MemObserver::$method(&mut $obs.metrics, $ev, $rx);
        MemObserver::$method(&mut $obs.predictors, $ev, $rx);
        MemObserver::$method(&mut $obs.victim, $ev, $rx);
        MemObserver::$method(&mut $obs.oracle, $ev, $rx);
        if let Some(t) = $obs.trace.as_deref_mut() {
            MemObserver::$method(t, $ev, $rx);
        }
    }};
}

/// The fixed set of observers, dispatched in declaration order: one per
/// L1, so each core of a [`MemorySystem`] holds its own.
#[derive(Debug)]
pub(crate) struct Observers {
    pub(crate) gens: GenObserver,
    pub(crate) metrics: MetricsObserver,
    pub(crate) predictors: PredictorObserver,
    pub(crate) victim: VictimObserver,
    pub(crate) oracle: OracleTap,
    /// The optional sixth observer: event tracing (`--trace`). Boxed so
    /// the disabled path carries one pointer-sized `None`.
    pub(crate) trace: Option<Box<TraceObserver>>,
}

impl Observers {
    /// The observer plane `cfg` selects, for one L1, traced as the
    /// process-global observability configuration asks (`--trace`): one
    /// trace per L1.
    pub(crate) fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Self {
        let m = &cfg.machine;
        Observers {
            gens: GenObserver {
                plane: LinePlane::new(m.l1d.num_frames() as usize),
            },
            metrics: MetricsObserver {
                collector: MetricsCollector::new(),
            },
            predictors: PredictorObserver::new(cfg, ticker),
            victim: VictimObserver {
                unit: VictimUnit::new(cfg, ticker),
            },
            oracle: OracleTap::default(),
            trace: obs::trace_from_global(m.l1d),
        }
    }

    pub(crate) fn lookup(&mut self, ev: &LookupEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_lookup, ev, rx)
    }
    pub(crate) fn hit(&mut self, ev: &HitEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_hit, ev, rx)
    }
    pub(crate) fn miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_miss, ev, rx)
    }
    pub(crate) fn fill(&mut self, ev: &FillEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_fill, ev, rx)
    }
    pub(crate) fn evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_evict, ev, rx)
    }
    pub(crate) fn invalidate(&mut self, ev: &InvalidateEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_invalidate, ev, rx)
    }
    pub(crate) fn snoop(&mut self, ev: &SnoopEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_snoop, ev, rx)
    }
    pub(crate) fn c2c(&mut self, ev: &C2cEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_c2c, ev, rx)
    }
    pub(crate) fn service(&mut self, level: SimLevel) {
        self.gens.on_service(level);
        self.metrics.on_service(level);
        self.predictors.on_service(level);
        self.victim.on_service(level);
        self.oracle.on_service(level);
        if let Some(t) = self.trace.as_deref_mut() {
            t.on_service(level);
        }
    }

    /// Closes every open generation at `now` (end of run) into the
    /// metrics.
    pub(crate) fn flush(&mut self, now: Cycle) {
        for rec in self.gens.plane.flush(now) {
            self.metrics.on_close(Some(&rec));
        }
    }
}

// ---------------------------------------------------------------------------
// Prefetch lifecycle state
// ---------------------------------------------------------------------------

/// Per-set pending-prefetch lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PfState {
    /// Waiting in the prefetch request queue.
    Queued,
    /// Dropped from the queue by overflow; kept for classification.
    Discarded,
    /// Issued to the lower hierarchy; data arrives at the given cycle.
    Issued(Cycle),
    /// Arrived in the L1; remembers which line it displaced and whether
    /// that line has since been demand-missed (the "early" signature).
    Arrived {
        displaced: Option<LineAddr>,
        displaced_missed: bool,
    },
}

/// The pending prefetch for one L1 set (at most one at a time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingPf {
    pub(crate) line: LineAddr,
    pub(crate) state: PfState,
    /// Predicted cycle by which the line will be demanded (for slack
    /// scheduling), when the predictor supplied one.
    pub(crate) deadline: Option<Cycle>,
}

/// Backlog allowances and the slack-urgency window governing prefetch
/// issue, derived from the machine latencies. Shared between the issue
/// gates themselves and the event computation that predicts when they
/// open ([`MemorySystem::next_event`]) — one source of truth, so the two
/// cannot drift.
#[allow(deprecated)] // nominal gate limits stay backend-independent by design
fn pf_gate_limits(m: &MachineConfig) -> (u64, u64, u64) {
    (
        // L1/L2 bus: one L2 round-trip of backlog is tolerated.
        m.l2_latency + 2 * m.l1l2_bus_occupancy,
        // L2/memory bus: a few transfers of backlog.
        4 * m.l2mem_bus_occupancy,
        // A prefetch is "urgent" once its predicted need time is within a
        // worst-case fetch latency of now.
        m.l2_latency + m.mem_latency + 2 * m.l2mem_bus_occupancy,
    )
}

/// Looks up the pending deadline recorded for a queued request.
fn geom_deadline(
    pending: &[Option<PendingPf>],
    geom: CacheGeometry,
    req: &PrefetchRequest,
) -> Option<Cycle> {
    pending[geom.index_of_line(req.line) as usize].and_then(|p| p.deadline)
}

// ---------------------------------------------------------------------------
// The pipeline stages
// ---------------------------------------------------------------------------

/// What a block fetch entering at the L2 is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetch {
    /// A demand load (at N > 1 its bus slot is a BusRd).
    Load,
    /// A demand store (at N > 1 its bus slot is a BusRdX).
    Store,
    /// A hardware prefetch.
    Prefetch,
}

impl MemorySystem {
    // -- event emission -----------------------------------------------------

    fn emit_lookup(&mut self, c: usize, ev: &LookupEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.cores[c].obs.lookup(ev, &mut rx);
        self.prof_rec(ProfStage::ObsLookup, t0);
        rx
    }

    fn emit_hit(&mut self, c: usize, ev: &HitEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.cores[c].obs.hit(ev, &mut rx);
        self.prof_rec(ProfStage::ObsHit, t0);
        rx
    }

    fn emit_miss(&mut self, c: usize, ev: &MissEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.cores[c].obs.miss(ev, &mut rx);
        self.prof_rec(ProfStage::ObsMiss, t0);
        rx
    }

    fn emit_fill(&mut self, c: usize, ev: &FillEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.cores[c].obs.fill(ev, &mut rx);
        self.prof_rec(ProfStage::ObsFill, t0);
        rx
    }

    /// Emits an Evict event; at N > 1 the closed generation also counts
    /// in the coherence plane's death split.
    fn emit_evict(&mut self, c: usize, ev: &EvictEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.cores[c].obs.evict(ev, &mut rx);
        self.prof_rec(ProfStage::ObsEvict, t0);
        if self.coherent() {
            self.coh.record_death(rx.generation.as_ref());
        }
        rx
    }

    /// Records one prefetch-lifecycle trace record (fire / arrival /
    /// discard) in core `c`'s trace when tracing is installed; free
    /// otherwise.
    #[inline]
    fn trace_pf(&mut self, c: usize, kind: TraceKind, line: LineAddr, at: Cycle, aux: u64) {
        if let Some(t) = self.cores[c].obs.trace.as_deref_mut() {
            t.push(kind, at, line, aux);
        }
    }

    /// Records one DRAM access record when tracing is installed AND the
    /// backend models row buffers (`row` is `Some`); the fixed-latency
    /// default therefore emits nothing and existing trace goldens are
    /// unchanged. The aux payload is the
    /// [`RowOutcome`](crate::dram::RowOutcome) code.
    #[inline]
    fn trace_dram(
        &mut self,
        c: usize,
        kind: TraceKind,
        addr: timekeeping::Addr,
        at: Cycle,
        row: Option<crate::dram::RowOutcome>,
    ) {
        if let Some(row) = row {
            let line = self.cfg.machine.l1d.line_of(addr);
            self.trace_pf(c, kind, line, at, row.code());
        }
    }

    /// Enqueues the prefetch targets the observers produced, in order.
    fn drain_prefetches(&mut self, c: usize, rx: Reactions, now: Cycle) {
        for req in rx.prefetches {
            self.enqueue_prefetch(c, req, now);
        }
    }

    /// Emits the Fill event for `line` entering `frame` and applies the
    /// reactions (address-prediction scoring, chained prefetch targets).
    #[allow(clippy::too_many_arguments)]
    fn fill_event(
        &mut self,
        c: usize,
        frame: usize,
        line: LineAddr,
        pc: Option<Pc>,
        demand: bool,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) {
        let geom = self.cfg.machine.l1d;
        let ev = FillEvent {
            line,
            frame,
            set: geom.index_of_line(line),
            tag: geom.tag_of_line(line),
            pc,
            demand,
            evicted,
            now,
        };
        let rx = self.emit_fill(c, &ev);
        self.cores[c].stats.score_addr(rx.addr_scored);
        self.drain_prefetches(c, rx, now);
    }

    // -- stages -------------------------------------------------------------

    /// Stage 1 — Lookup: train stream predictors, probe the L1, and
    /// route to the hit or miss stages.
    pub(crate) fn stage_lookup(
        &mut self,
        c: usize,
        mref: &MemRef,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        let addr = mref.addr;
        let line = self.cfg.machine.l1d.line_of(addr);
        let core = &mut self.cores[c];
        core.stats.l1_accesses += 1;
        // Capture the raw reference stream (`--trace=ref`) ahead of the
        // ColdOnly early-return so every demand reference is recorded —
        // exactly one Access record per l1_access.
        if let Some(t) = core.obs.trace.as_deref_mut() {
            t.ref_event(now, line, mref.pc.get(), is_store);
        }
        if self.cfg.l1_mode == L1Mode::ColdOnly {
            return self.access_cold_only(c, mref, now);
        }
        let rx = self.emit_lookup(
            c,
            &LookupEvent {
                addr,
                pc: mref.pc,
                now,
            },
        );
        self.drain_prefetches(c, rx, now);
        match self.cores[c].l1d.probe(addr) {
            ProbeResult::Hit(frame) => self.stage_hit(c, mref, line, frame, is_store, now),
            ProbeResult::Miss {
                victim_frame,
                evicted,
            } => {
                let miss = Miss {
                    mref,
                    line,
                    is_store,
                };
                let out = self.stage_miss(c, &miss, victim_frame, evicted, now);
                if is_store {
                    let core = &mut self.cores[c];
                    if let Some(f) = core.l1d.peek(addr) {
                        core.l1d.mark_dirty(f);
                    }
                }
                if self.coherent() {
                    self.settle_fill(c, line, addr, is_store, now);
                }
                out
            }
        }
    }

    /// Hit stage: decay check, hit bookkeeping via the observers,
    /// prefetch-timeliness resolution, and hit-under-miss timing.
    fn stage_hit(
        &mut self,
        c: usize,
        mref: &MemRef,
        line: LineAddr,
        frame: usize,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        if is_store {
            self.cores[c].l1d.mark_dirty(frame);
            if self.coherent() {
                self.store_hit(c, frame, line, mref.addr, now);
            }
        }
        // Cache decay: a line idle past the decay interval was switched
        // off; its data must be refetched from the L2.
        if let Some(interval) = self.cfg.decay_interval {
            if let Some(last_use) = self.cores[c].obs.gens.plane.last_use(frame) {
                if now.since(last_use) >= interval {
                    return self.stage_decay_refetch(c, mref, line, frame, last_use, interval, now);
                }
            }
        }
        let core = &mut self.cores[c];
        core.stats.l1_hits += 1;
        core.shadow.on_access(line);
        let rx = self.emit_hit(
            c,
            &HitEvent {
                line,
                frame,
                pc: mref.pc,
                now,
            },
        );
        self.drain_prefetches(c, rx, now);
        // A hit on a prefetched block resolves its timeliness.
        let core = &mut self.cores[c];
        let set = core.l1d.geometry().index_of_line(line) as usize;
        if let Some(p) = core.pending_pf[set] {
            if p.line == line {
                if let PfState::Arrived {
                    displaced_missed, ..
                } = p.state
                {
                    core.pending_pf[set] = None;
                    let class = if displaced_missed {
                        Timeliness::Early
                    } else {
                        Timeliness::Timely
                    };
                    self.timeliness.record(true, class);
                }
            }
        }
        // Hit under miss: data may still be in flight.
        let core = &self.cores[c];
        let mut ready = now + self.cfg.machine.l1_hit_latency;
        if let Some(r) = core.demand_mshrs.ready_time(line) {
            ready = ready.max(r);
        }
        if let Some(r) = core.prefetch_mshrs.ready_time(line) {
            ready = ready.max(r);
        }
        AccessOutcome {
            ready_at: ready,
            l1_hit: true,
            vc_hit: false,
        }
    }

    /// Miss macro-stage: classification, victim-cache probe, then issue.
    fn stage_miss(
        &mut self,
        c: usize,
        miss: &Miss,
        victim_frame: usize,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) -> AccessOutcome {
        let set = self.cfg.machine.l1d.index_of_line(miss.line);
        self.stage_miss_classify(c, miss.mref, miss.line, now);
        if self.coherent() && self.cores[c].inval_lost.remove(&miss.line.get()) {
            self.coh.inval_refetches += 1;
        }
        // Resolve / annotate pending prefetch state for this set.
        self.resolve_pending_on_miss(c, set, miss.line, now);
        if let Some(out) = self.stage_victim_probe(c, miss, victim_frame, evicted, now) {
            return out;
        }
        self.stage_miss_issue(c, miss, now)
    }

    /// Miss-classify stage: ground-truth classification and the Miss
    /// event (metrics, L2 monitor, Markov training).
    fn stage_miss_classify(&mut self, c: usize, mref: &MemRef, line: LineAddr, now: Cycle) {
        let kind = self.cores[c].shadow.classify_miss(line);
        let rx = self.emit_miss(
            c,
            &MissEvent {
                line,
                addr: mref.addr,
                kind,
                now,
            },
        );
        self.drain_prefetches(c, rx, now);
    }

    /// VictimProbe stage: if the victim cache holds the line, swap it
    /// with the displaced resident and finish in one extra cycle.
    fn stage_victim_probe(
        &mut self,
        c: usize,
        miss: &Miss,
        victim_frame: usize,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) -> Option<AccessOutcome> {
        let unit = self.cores[c].obs.victim.unit.as_mut()?;
        if !unit.cache.take(miss.line) {
            return None;
        }
        self.cores[c].stats.vc_hits += 1;
        // Swap: close the displaced generation, then move the block into
        // the victim cache unconditionally. The close is an ordinary
        // Evict event, so the victim observer also offers the generation
        // to the admission filter: the filter trains on it, `offered`
        // counts it, and `admitted` does too if the filter says yes.
        if let Some(ev) = evicted {
            let geom = self.cfg.machine.l1d;
            let close = EvictEvent::new(&geom, victim_frame, ev, now, EvictCause::Demand, None);
            self.emit_evict(c, &close);
            self.writeback_if_dirty(c, victim_frame, now);
            let v = self.cores[c]
                .obs
                .victim
                .unit
                .as_mut()
                .expect("checked above");
            v.cache.insert(ev);
            v.swap_fills += 1;
        }
        self.cores[c].l1d.fill_frame(victim_frame, miss.mref.addr);
        self.fill_event(
            c,
            victim_frame,
            miss.line,
            Some(miss.mref.pc),
            true,
            evicted,
            now,
        );
        Some(AccessOutcome {
            ready_at: now + self.cfg.machine.l1_hit_latency + 1,
            l1_hit: false,
            vc_hit: true,
        })
    }

    /// MissIssue stage: merge with outstanding fetches (demand MSHRs,
    /// in-flight prefetches) or issue a fresh fetch, then fill.
    fn stage_miss_issue(&mut self, c: usize, miss: &Miss, now: Cycle) -> AccessOutcome {
        let (mref, line) = (miss.mref, miss.line);
        // Merge with an outstanding demand miss for the same line.
        if let Some(mut ready) = self.cores[c].demand_mshrs.lookup(line) {
            self.cores[c].obs.service(SimLevel::InFlight);
            if self.coherent() {
                // The merge still snoops, on a bus slot of its own: other
                // cores may have taken the line since the first miss.
                let grant = self.l1l2_bus.schedule(now);
                if let Some(c2c) = self.stage_coherence(c, mref.addr, miss.is_store, grant) {
                    ready = c2c;
                }
            }
            // The tag was filled by the first miss unless it was evicted
            // in between; refill if needed.
            if self.cores[c].l1d.peek(mref.addr).is_none() {
                self.stage_fill(c, mref, line, now);
            }
            return AccessOutcome {
                ready_at: ready,
                l1_hit: false,
                vc_hit: false,
            };
        }
        // A prefetch already in flight for this line: the demand takes
        // ownership of it.
        if let Some(pf_ready) = self.cores[c].prefetch_mshrs.remove(line) {
            self.cores[c].obs.service(SimLevel::InFlight);
            self.cores[c].pf_queue.cancel_line(line);
            self.stage_fill(c, mref, line, now);
            let ready = pf_ready.max(now + 1);
            self.alloc_demand(c, line, ready, now);
            return AccessOutcome {
                ready_at: ready,
                l1_hit: false,
                vc_hit: false,
            };
        }
        // Still queued (never issued): fetch normally.
        self.cores[c].pf_queue.cancel_line(line);
        let fetch = if miss.is_store {
            Fetch::Store
        } else {
            Fetch::Load
        };
        let ready = self.fetch_from_l2(c, mref.addr, now, fetch);
        self.alloc_demand(c, line, ready, now);
        self.stage_fill(c, mref, line, now);
        AccessOutcome {
            ready_at: ready,
            l1_hit: false,
            vc_hit: false,
        }
    }

    /// Fill/Evict stage (demand): write back the displaced resident,
    /// fill the frame, and emit the Evict + Fill event pair.
    fn stage_fill(&mut self, c: usize, mref: &MemRef, line: LineAddr, now: Cycle) {
        let geom = self.cfg.machine.l1d;
        let (victim_frame, resident) = self.cores[c].l1d.peek_victim(mref.addr);
        if resident.is_some() {
            if self.cfg.decay_interval.is_some() {
                self.bank_decay_off_time(c, victim_frame, now);
            }
            self.writeback_if_dirty(c, victim_frame, now);
        }
        let (frame, evicted) = self.cores[c].l1d.fill(mref.addr);
        if let Some(ev) = evicted {
            let incoming = Some(geom.tag_of_line(line));
            let close = EvictEvent::new(&geom, frame, ev, now, EvictCause::Demand, incoming);
            self.emit_evict(c, &close);
        }
        self.fill_event(c, frame, line, Some(mref.pc), true, evicted, now);
    }

    /// DecayRefetch stage: a reference to a decayed (switched-off) line
    /// ends the generation at the decay point, refetches the block from
    /// the L2 and starts a fresh generation. The interval between
    /// switch-off and this access is banked as leakage saving.
    #[allow(clippy::too_many_arguments)]
    fn stage_decay_refetch(
        &mut self,
        c: usize,
        mref: &MemRef,
        line: LineAddr,
        frame: usize,
        last_use: Cycle,
        interval: u64,
        now: Cycle,
    ) -> AccessOutcome {
        let off_at = last_use + interval;
        let stats = &mut self.cores[c].stats;
        stats.decay_misses += 1;
        stats.decay_off_cycles += now.since(off_at);
        // The decayed generation ended when the line switched off.
        let geom = self.cfg.machine.l1d;
        let close = EvictEvent::new(&geom, frame, line, off_at, EvictCause::Flush, None);
        self.emit_evict(c, &close);
        // Refetch: the shadow still sees a reference (decay is invisible
        // to the fully-associative model — these are not program misses).
        self.cores[c].shadow.on_access(line);
        let ready = self.fetch_from_l2(c, mref.addr, now, Fetch::Load);
        self.alloc_demand(c, line, ready, now);
        self.cores[c].l1d.fill_frame(frame, mref.addr);
        self.fill_event(c, frame, line, Some(mref.pc), true, None, now);
        AccessOutcome {
            ready_at: ready,
            l1_hit: false,
            vc_hit: false,
        }
    }

    /// The cold-miss-only study L1 (§6 sizing bound): every line hits
    /// forever after its first reference.
    fn access_cold_only(&mut self, c: usize, mref: &MemRef, now: Cycle) -> AccessOutcome {
        let line = self.cfg.machine.l1d.line_of(mref.addr);
        let core = &mut self.cores[c];
        if core.cold_seen.contains(&line.get()) {
            core.stats.l1_hits += 1;
            return AccessOutcome {
                ready_at: now + self.cfg.machine.l1_hit_latency,
                l1_hit: true,
                vc_hit: false,
            };
        }
        core.cold_seen.insert(line.get());
        if let Some(ready) = core.demand_mshrs.lookup(line) {
            return AccessOutcome {
                ready_at: ready,
                l1_hit: false,
                vc_hit: false,
            };
        }
        let ready = self.fetch_from_l2(c, mref.addr, now, Fetch::Load);
        self.alloc_demand(c, line, ready, now);
        AccessOutcome {
            ready_at: ready,
            l1_hit: false,
            vc_hit: false,
        }
    }

    // -- timing helpers -----------------------------------------------------

    /// Allocates a demand MSHR, modeling queueing delay when full.
    pub(crate) fn alloc_demand(&mut self, c: usize, line: LineAddr, ready: Cycle, now: Cycle) {
        // `fetch_from_l2` already folded MSHR queuing into `ready` via
        // `demand_base`; here we only record occupancy.
        let mshrs = &mut self.cores[c].demand_mshrs;
        if mshrs.next_free(now).is_none() {
            mshrs.allocate(line, ready);
        }
        // When full the request queued behind the earliest entry; that
        // entry's register is reused, so no separate allocation is needed.
    }

    /// Computes the completion time of a block fetch by core `c`
    /// entering at the L2, updating L2 state, buses and counters. Demand
    /// fetches start once a demand MSHR is free (priority scheduling);
    /// at N > 1 their L1↔L2 bus slot is the coherence transaction.
    pub(crate) fn fetch_from_l2(
        &mut self,
        c: usize,
        addr: timekeeping::Addr,
        now: Cycle,
        fetch: Fetch,
    ) -> Cycle {
        let m = self.cfg.machine;
        let demand = fetch != Fetch::Prefetch;
        let base = if demand {
            // Start time accounting for MSHR availability.
            let core = &mut self.cores[c];
            core.stats.l2_accesses += 1;
            core.demand_mshrs.next_free(now).unwrap_or(now)
        } else {
            now
        };
        // Bus occupancy is charged at request time (the response slot is
        // reserved when the request enters): latency pipelines around the
        // occupancy, so the backlog reflects genuine congestion rather
        // than in-flight latency.
        let start = self.l1l2_bus.schedule(base);
        if demand && self.coherent() {
            if let Some(c2c) = self.stage_coherence(c, addr, fetch == Fetch::Store, start) {
                return c2c;
            }
        }
        match self.l2.probe(addr) {
            ProbeResult::Hit(_) => {
                if demand {
                    self.cores[c].stats.l2_hits += 1;
                    self.cores[c].obs.service(SimLevel::L2);
                } else {
                    self.notify_prefetch_l2(addr, true);
                }
                self.l1l2_bus.done_at(start) + m.l2_latency
            }
            ProbeResult::Miss { .. } => {
                if demand {
                    self.cores[c].stats.mem_accesses += 1;
                    self.cores[c].obs.service(SimLevel::Mem);
                } else {
                    self.notify_prefetch_l2(addr, false);
                }
                let at_l2 = self.l1l2_bus.done_at(start) + m.l2_latency;
                let start2 = self.l2mem_bus.schedule(at_l2);
                // The read reaches the memory device once it has crossed
                // the L2/memory bus; the backend owns everything after
                // that (a constant under FixedLatency, bank/row/channel
                // timing under BankedDram).
                let at_mem = self.l2mem_bus.done_at(start2);
                let reply = self.backend.issue(addr, at_mem);
                self.trace_dram(c, TraceKind::DramRead, addr, at_mem, reply.row);
                let (l2_victim, l2_resident) = self.l2.peek_victim(addr);
                if let (Some(gone), true) = (l2_resident, self.coherent()) {
                    // The inclusive L2 recalls every copy of the line it
                    // evicts before the line leaves.
                    self.recall(gone, l2_victim, start);
                }
                // An L2 fill may evict a dirty L2 line: write it to memory.
                if l2_resident.is_some() && self.l2.frame_dirty(l2_victim) {
                    self.cores[c].stats.l2_writebacks += 1;
                    let wb_addr = self.l2.geometry().addr_of_line(
                        self.l2
                            .line_in_frame(l2_victim)
                            .expect("dirty frame is valid"),
                    );
                    let wb_start = self.l2mem_bus.schedule(at_l2);
                    let wb_at_mem = self.l2mem_bus.done_at(wb_start);
                    let wb_row = self.backend.write(wb_addr, wb_at_mem);
                    self.trace_dram(c, TraceKind::DramWrite, wb_addr, wb_at_mem, wb_row);
                }
                let (_, l2_evicted) = self.l2.fill(addr);
                if demand {
                    self.cores[c].obs.oracle.evt.l2_evicted = l2_evicted;
                }
                reply.done
            }
        }
    }

    /// Writes a dirty evicted L1 line of core `c` back toward the L2: the
    /// transfer occupies the L1/L2 bus (write-backs contend with demand
    /// fills). If the line is no longer L2-resident (the single-core
    /// hierarchy is not inclusive), the write continues to memory over
    /// the L2/memory bus.
    fn writeback_if_dirty(&mut self, c: usize, frame: usize, now: Cycle) {
        let core = &mut self.cores[c];
        if !core.l1d.frame_dirty(frame) {
            return;
        }
        core.stats.l1_writebacks += 1;
        self.l1l2_bus.schedule(now);
        let line = core.l1d.line_in_frame(frame).expect("dirty frame is valid");
        let addr = core.l1d.geometry().addr_of_line(line);
        match self.l2.peek(addr) {
            Some(l2_frame) => self.l2.mark_dirty(l2_frame),
            None => {
                // Not L2-resident: the write-back continues to memory.
                core.stats.l2_writebacks += 1;
                let start = self.l2mem_bus.schedule(now);
                let at_mem = self.l2mem_bus.done_at(start);
                let row = self.backend.write(addr, at_mem);
                self.trace_dram(c, TraceKind::DramWrite, addr, at_mem, row);
            }
        }
    }

    /// Banks leakage savings for a frame being evicted while decayed.
    pub(crate) fn bank_decay_off_time(&mut self, c: usize, frame: usize, now: Cycle) {
        if let Some(interval) = self.cfg.decay_interval {
            let core = &mut self.cores[c];
            if let Some(last_use) = core.obs.gens.plane.last_use(frame) {
                let off_at = last_use + interval;
                core.stats.decay_off_cycles += now.since(off_at);
            }
        }
    }

    /// Forwards a prefetch's L2 probe outcome to the lockstep checker.
    fn notify_prefetch_l2(&mut self, addr: timekeeping::Addr, hit: bool) {
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.check_prefetch_l2(addr, hit);
        }
    }

    // -- prefetch lifecycle -------------------------------------------------

    /// Advances background machinery to `now`: global ticks (prefetch
    /// counters), prefetch issue, and prefetch arrivals.
    ///
    /// Correct under arbitrary forward jumps: every intermediate event
    /// between the previous call and `now` — tick boundary, prefetch
    /// arrival, issue-gate opening — is replayed at its true timestamp
    /// (via [`next_event`](Self::next_event)), so one jump is
    /// bit-identical to calling `advance` every cycle.
    pub fn advance(&mut self, now: Cycle) {
        let t0 = self.prof_t0();
        if now <= self.last_advance {
            // Re-advancing within the present: the per-cycle body is
            // idempotent at a fixed timestamp.
            self.advance_cycle(now);
            self.prof_rec(ProfStage::Advance, t0);
            return;
        }
        if let Some(p) = self.prof.as_deref_mut() {
            p.record_hop(now.since(self.last_advance));
        }
        while let Some(e) = self.next_event(self.last_advance) {
            if e >= now {
                break;
            }
            self.advance_cycle(e);
        }
        self.advance_cycle(now);
        self.prof_rec(ProfStage::Advance, t0);
    }

    /// Runs one cycle's worth of background machinery at timestamp `now`:
    /// tick catch-up (with enqueue deadlines anchored at `now`), then
    /// arrivals, then issue — the same order the per-cycle loop used.
    fn advance_cycle(&mut self, now: Cycle) {
        let cur_tick = self.ticker.tick_of(now);
        if self.last_tick < cur_tick {
            let mut fired = std::mem::take(&mut self.tick_scratch);
            while self.last_tick < cur_tick {
                self.last_tick += 1;
                for c in 0..self.cores.len() {
                    fired.clear();
                    if let PrefetcherImpl::Tk(p) = &mut self.cores[c].obs.predictors.prefetcher {
                        // When the prefetcher is active, every tick
                        // boundary is an event (next_event reports it), so
                        // this loop runs exactly once per boundary and
                        // `now` is the boundary cycle itself — deadlines
                        // come out exact.
                        p.tick_into(&mut fired);
                    }
                    for req in fired.iter().copied() {
                        self.enqueue_prefetch(c, req, now);
                    }
                }
            }
            fired.clear();
            self.tick_scratch = fired;
        }
        for c in 0..self.cores.len() {
            self.stage_prefetch_arrival(c, now);
            self.issue_prefetches(c, now);
        }
        self.last_advance = self.last_advance.max(now);
    }

    /// The earliest cycle strictly after `now` at which the memory system
    /// can change state *on its own* (without a new demand access):
    ///
    /// - the next global tick boundary, when the timekeeping prefetcher's
    ///   per-frame counters are clocked by it (for other configurations a
    ///   tick mutates nothing and is not an event);
    /// - the earliest in-flight prefetch arrival of any core (which also
    ///   covers prefetch-MSHR registers freeing up — they drain at
    ///   arrivals);
    /// - the first cycle the prefetch-issue gates (bus backlog, slack
    ///   urgency/idleness, MSHR availability) can open for a core's
    ///   queued head.
    ///
    /// Returns `None` when the system is quiescent: nothing will change
    /// until the next access. Every gate is monotone in time against
    /// otherwise-static state, so the returned cycle is exact — advancing
    /// to any earlier cycle is a no-op, which is what makes clock hopping
    /// bit-identical to per-cycle stepping.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now && next.is_none_or(|n| c < n) {
                next = Some(c);
            }
        };
        if matches!(self.cfg.prefetch, PrefetchMode::Timekeeping(_)) {
            consider(self.ticker.cycle_of_tick(self.last_tick + 1));
        }
        for core in &self.cores {
            if let Some(&Reverse((arrive, _, _))) = core.inflight_pf.peek() {
                consider(Cycle::new(arrive));
            }
            if let Some(e) = self.next_issue_opportunity(core, now) {
                consider(e);
            }
        }
        next
    }

    /// The first cycle strictly after `now` at which
    /// [`issue_prefetches`](Self::issue_prefetches) could make progress
    /// for `core`, given that no other event intervenes. Mirrors the
    /// issue gates exactly: each gate condition is monotone in the probe
    /// cycle (bus backlogs only drain, deadlines only get nearer), so
    /// solving each threshold inequality for the probe cycle gives the
    /// precise opening time.
    fn next_issue_opportunity(&self, core: &CoreSlice, now: Cycle) -> Option<Cycle> {
        if core.pf_queue.is_empty() {
            return None;
        }
        // A full file drains only at an arrival, which is already an
        // event; no separate wake-up needed.
        if !core.prefetch_mshrs.has_free_at(now) {
            return None;
        }
        let (max_backlog, max_mem_backlog, urgency_window) = pf_gate_limits(&self.cfg.machine);
        let nf1 = self.l1l2_bus.next_free().get();
        let nf2 = self.l2mem_bus.next_free().get();
        // backlog(c) = next_free - c <= max  ⇔  c >= next_free - max.
        let mut open = nf1
            .saturating_sub(max_backlog)
            .max(nf2.saturating_sub(max_mem_backlog));
        if self.cfg.slack_prefetch {
            let geom = self.cfg.machine.l1d;
            let head_deadline = core
                .pf_queue
                .peek()
                .and_then(|r| geom_deadline(&core.pending_pf, geom, r));
            // urgent(c) ⇔ deadline - c <= window ⇔ c >= deadline - window;
            // an unknown deadline is always urgent.
            let urgent_at = head_deadline.map_or(0, |d| d.get().saturating_sub(urgency_window));
            // idle(c) ⇔ both backlogs are zero ⇔ c >= max(next_free).
            let idle_at = nf1.max(nf2);
            // The slack gate passes once the head is urgent OR the buses
            // are fully idle, whichever comes first.
            open = open.max(urgent_at.min(idle_at));
        }
        Some(Cycle::new(open).max(now + 1))
    }

    /// Resolves or annotates core `c`'s pending prefetch for `set` when a
    /// demand miss to `miss_line` occurs there.
    fn resolve_pending_on_miss(&mut self, c: usize, set: u64, miss_line: LineAddr, now: Cycle) {
        let core = &mut self.cores[c];
        let Some(p) = core.pending_pf[set as usize] else {
            return;
        };
        let correct = p.line == miss_line;
        let class = match p.state {
            PfState::Queued => {
                core.pf_queue.cancel_line(p.line);
                Timeliness::NotStarted
            }
            PfState::Discarded => Timeliness::Discarded,
            PfState::Issued(arrive) => {
                if arrive > now {
                    Timeliness::StartedNotTimely
                } else {
                    // Arrival pending processing this very cycle; treat as
                    // arrived-in-time.
                    Timeliness::Timely
                }
            }
            PfState::Arrived {
                displaced,
                displaced_missed,
            } => {
                if displaced == Some(miss_line) || displaced_missed {
                    Timeliness::Early
                } else {
                    Timeliness::Timely
                }
            }
        };
        core.pending_pf[set as usize] = None;
        self.timeliness.record(correct, class);
    }

    /// Accepts a prefetch request from one of core `c`'s predictors.
    fn enqueue_prefetch(&mut self, c: usize, req: PrefetchRequest, now: Cycle) {
        if self.cfg.predict_only {
            return;
        }
        let geom = self.cfg.machine.l1d;
        let addr = geom.addr_of_line(req.line);
        let core = &mut self.cores[c];
        // Drop if already cached or already being fetched.
        if core.l1d.peek(addr).is_some()
            || core.demand_mshrs.contains(req.line)
            || core.prefetch_mshrs.contains(req.line)
        {
            core.stats.pf_redundant += 1;
            return;
        }
        let set = geom.index_of_line(req.line) as usize;
        // One pending prefetch per set: keep the older one.
        if core.pending_pf[set].is_some() {
            core.stats.pf_redundant += 1;
            return;
        }
        core.stats.pf_enqueued += 1;
        let deadline = req
            .need_in_ticks
            .map(|t| now + self.ticker.cycles(t as u64));
        core.pending_pf[set] = Some(PendingPf {
            line: req.line,
            state: PfState::Queued,
            deadline,
        });
        if let Some(dropped) = core.pf_queue.push(req) {
            let dset = geom.index_of_line(dropped.line) as usize;
            if let Some(dp) = core.pending_pf[dset].as_mut() {
                if dp.line == dropped.line && dp.state == PfState::Queued {
                    dp.state = PfState::Discarded;
                }
            }
            self.trace_pf(c, TraceKind::PfDiscard, dropped.line, now, 0);
        }
    }

    /// Issues core `c`'s queued prefetches while the L1/L2 bus backlog is
    /// low and prefetch MSHRs are available (demand priority). The
    /// backlog bound is one L2 round-trip: beyond that, demand traffic
    /// owns the bus.
    fn issue_prefetches(&mut self, c: usize, now: Cycle) {
        let geom = self.cfg.machine.l1d;
        let (max_backlog, max_mem_backlog, urgency_window) = pf_gate_limits(&self.cfg.machine);
        loop {
            let core = &mut self.cores[c];
            if core.pf_queue.is_empty() {
                return;
            }
            if self.l1l2_bus.backlog(now) > max_backlog
                || self.l2mem_bus.backlog(now) > max_mem_backlog
            {
                return;
            }
            // Slack scheduling (§5.2.2): while the bus is doing anything at
            // all, hold back prefetches whose deadline is still far out;
            // they will go out in a genuinely idle window instead of
            // queueing in front of near-future demand.
            if self.cfg.slack_prefetch {
                let head_deadline = core
                    .pf_queue
                    .peek()
                    .and_then(|r| geom_deadline(&core.pending_pf, geom, r));
                let urgent = match head_deadline {
                    Some(d) => d.since(now) <= urgency_window,
                    None => true, // unknown deadline: treat as urgent
                };
                if !urgent && (self.l1l2_bus.backlog(now) > 0 || self.l2mem_bus.backlog(now) > 0) {
                    return;
                }
            }
            if core.prefetch_mshrs.next_free(now).is_some() {
                return; // file full
            }
            let Some(req) = core.pf_queue.pop() else {
                return;
            };
            let set = geom.index_of_line(req.line);
            // Stale request (superseded or resolved)?
            let valid = core.pending_pf[set as usize]
                .map(|p| p.line == req.line && p.state == PfState::Queued)
                .unwrap_or(false);
            if !valid {
                continue;
            }
            let addr = geom.addr_of_line(req.line);
            let arrive = self.fetch_from_l2(c, addr, now, Fetch::Prefetch);
            let core = &mut self.cores[c];
            core.prefetch_mshrs.allocate(req.line, arrive);
            core.inflight_pf
                .push(Reverse((arrive.get(), req.line.get(), set)));
            let deadline = core.pending_pf[set as usize].and_then(|p| p.deadline);
            core.pending_pf[set as usize] = Some(PendingPf {
                line: req.line,
                state: PfState::Issued(arrive),
                deadline,
            });
            core.stats.pf_issued += 1;
            self.trace_pf(c, TraceKind::PfFire, req.line, now, arrive.get());
        }
    }

    /// Arrival stage: fills core `c`'s prefetches whose data has arrived
    /// by `now`. Each accepted arrival is an Evict/Fill event pair with
    /// `demand: false`; arrivals that would displace a likely-live
    /// resident (§5.1) are dropped instead.
    fn stage_prefetch_arrival(&mut self, c: usize, now: Cycle) {
        let geom = self.cfg.machine.l1d;
        while let Some(&Reverse((arrive, line_raw, set))) = self.cores[c].inflight_pf.peek() {
            if arrive > now.get() {
                break;
            }
            let core = &mut self.cores[c];
            core.inflight_pf.pop();
            let line = LineAddr::new(line_raw);
            let at = Cycle::new(arrive);
            core.prefetch_mshrs.remove(line);
            // Superseded by a demand fetch (tag already present) or pending
            // state cleared: nothing to fill.
            let addr = geom.addr_of_line(line);
            if core.l1d.peek(addr).is_some() {
                continue;
            }
            // §5.1: "prefetches that arrive into the cache before the
            // resident block is dead will induce extra cache misses."
            // The arrival consults the paper's own live-time dead-block
            // prediction: the resident is presumed dead once its
            // generation age exceeds twice its previous live time; an
            // earlier arrival is dropped rather than displacing a
            // likely-live block. (Single-use blocks — previous live time
            // zero — are dead the moment they are filled.)
            let set0 = geom.index_of_line(line) as usize;
            // The frame the fill will actually use (LRU way for
            // associative L1s).
            let (target_frame, _) = core.l1d.peek_victim(addr);
            let plane = &core.obs.gens.plane;
            if let (Some(resident), Some(start)) = (
                plane.resident(target_frame),
                plane.generation_start(target_frame),
            ) {
                let prev_lt = plane
                    .line_meta(resident)
                    .filter(|h| h.completed)
                    .map(|h| h.last_live_time)
                    .unwrap_or(0);
                let dead_point = 2 * prev_lt;
                if at.since(start) < dead_point {
                    core.stats.pf_dropped_live += 1;
                    if core.pending_pf[set0]
                        .map(|p| p.line == line)
                        .unwrap_or(false)
                    {
                        core.pending_pf[set0] = None;
                    }
                    self.trace_pf(c, TraceKind::PfDiscard, line, at, 1);
                    continue;
                }
            }
            let still_pending = core.pending_pf[set as usize]
                .map(|p| p.line == line && matches!(p.state, PfState::Issued(_)))
                .unwrap_or(false);
            let (victim_frame, resident) = core.l1d.peek_victim(addr);
            if resident.is_some() {
                self.writeback_if_dirty(c, victim_frame, at);
            }
            if self.checker.is_some() {
                self.cores[c].obs.oracle.evt = TapEvent::default();
            }
            let (frame, evicted) = self.cores[c].l1d.fill(addr);
            if let Some(ev) = evicted {
                let close = EvictEvent::new(&geom, frame, ev, at, EvictCause::Prefetch, None);
                self.emit_evict(c, &close);
            }
            if let Some(chk) = self.checker.as_deref_mut() {
                let core = &self.cores[c];
                let evt = &core.obs.oracle.evt;
                chk.check_prefetch_fill(c, &core.l1d, line, evicted, evt.closed, evt.vc_admitted);
            }
            self.cores[c].stats.pf_fills += 1;
            self.trace_pf(c, TraceKind::PfArrival, line, at, frame as u64);
            // A prefetch fill is a generation start, and trains the
            // prefetcher exactly like a demand fill (enabling chained
            // prefetches), but carries no referencing PC.
            self.fill_event(c, frame, line, None, false, evicted, at);
            if still_pending {
                let pending = &mut self.cores[c].pending_pf[set as usize];
                let deadline = pending.and_then(|p| p.deadline);
                *pending = Some(PendingPf {
                    line,
                    deadline,
                    state: PfState::Arrived {
                        displaced: evicted,
                        displaced_missed: false,
                    },
                });
            }
        }
        // Early detection: a demand miss to a displaced line is recorded in
        // `resolve_pending_on_miss`; nothing to do here.
    }
}

/// The facts of one demand miss that its stages share.
struct Miss<'a> {
    mref: &'a MemRef,
    line: LineAddr,
    is_store: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchMode, SystemConfig, VictimMode};
    use crate::obs::{evict_cause_code, miss_kind_code, TraceCategories, TraceRecord};
    use timekeeping::{Addr, StrideConfig};

    fn mref(addr: u64) -> MemRef {
        MemRef::new(Addr::new(addr), Pc::new(0x1000 + addr % 97))
    }

    fn line_of(sys: &MemorySystem, addr: u64) -> u64 {
        sys.config().machine.l1d.line_of(Addr::new(addr)).get()
    }

    /// A machine of `cfg` recording every event category in memory.
    fn traced(cfg: SystemConfig) -> MemorySystem {
        let mut sys = MemorySystem::new(cfg);
        sys.install_trace(TraceCategories::all(), 1);
        sys
    }

    /// Core 0's Hit, Miss, Fill, Evict and GenClose records, from the
    /// `from`-th record of its trace on.
    fn events(sys: &mut MemorySystem, from: usize) -> Vec<TraceRecord> {
        let recs = sys.trace_records().expect("trace installed");
        recs[from..]
            .iter()
            .filter(|r| {
                matches!(
                    r.kind,
                    TraceKind::Hit
                        | TraceKind::Miss
                        | TraceKind::Fill
                        | TraceKind::Evict
                        | TraceKind::GenClose
                )
            })
            .copied()
            .collect()
    }

    /// How many records core 0's trace holds so far.
    fn mark(sys: &mut MemorySystem) -> usize {
        sys.trace_records().expect("trace installed").len()
    }

    /// The (frame, demand) of a Fill record.
    fn fill_of(r: &TraceRecord) -> (u64, bool) {
        assert_eq!(r.kind, TraceKind::Fill, "{r:?}");
        (r.aux / 2, r.aux % 2 == 1)
    }

    /// A demand miss to an empty set emits exactly Miss then Fill.
    #[test]
    fn cold_miss_emits_miss_then_demand_fill() {
        let mut sys = traced(SystemConfig::base());
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a = line_of(&sys, 0x1000);
        let events = events(&mut sys, 0);
        assert_eq!(events.len(), 2, "unexpected stream: {events:?}");
        assert_eq!(
            (events[0].kind, events[0].line, events[0].aux),
            (TraceKind::Miss, a, miss_kind_code(MissKind::Cold))
        );
        assert_eq!(events[1].line, a, "unexpected stream: {events:?}");
        assert!(fill_of(&events[1]).1, "unexpected stream: {events:?}");
    }

    /// A conflict miss closes the displaced generation *before* the new
    /// fill, and names the evicted line correctly.
    #[test]
    fn conflict_miss_emits_evict_before_fill_with_victim_identity() {
        let mut sys = traced(SystemConfig::base());
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a = line_of(&sys, 0x1000);
        let a_frame = fill_of(&events(&mut sys, 0)[1]).0;
        // Same set, different tag: one L1 size (32 KB) away in a
        // direct-mapped cache.
        let conflicting = 0x1000 + 32 * 1024;
        let from = mark(&mut sys);
        sys.access(&mref(conflicting), false, Cycle::new(100));
        let b = line_of(&sys, conflicting);
        let events = events(&mut sys, from);
        assert_eq!(events.len(), 4, "unexpected stream: {events:?}");
        assert_eq!((events[0].kind, events[0].line), (TraceKind::Miss, b));
        let evict = events[1];
        assert_eq!(
            evict.kind,
            TraceKind::Evict,
            "expected Evict second: {events:?}"
        );
        assert_eq!(evict.line, a, "evicted-line identity");
        assert_eq!(evict.aux, evict_cause_code(EvictCause::Demand));
        assert_eq!(
            (events[2].kind, events[2].line),
            (TraceKind::GenClose, a),
            "the eviction closes a's generation: {events:?}"
        );
        assert_eq!(events[3].line, b, "expected b's Fill last: {events:?}");
        let (frame, demand) = fill_of(&events[3]);
        assert_eq!(frame, a_frame, "fill lands in the vacated frame");
        assert!(demand);
    }

    /// A hit emits exactly one Hit event naming the resident frame.
    #[test]
    fn hit_emits_single_hit_event() {
        let mut sys = traced(SystemConfig::base());
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a_frame = fill_of(&events(&mut sys, 0)[1]).0;
        let from = mark(&mut sys);
        sys.access(&mref(0x1000), false, Cycle::new(50));
        let a = line_of(&sys, 0x1000);
        let events = events(&mut sys, from);
        assert_eq!(events.len(), 1, "unexpected stream: {events:?}");
        assert_eq!(
            (events[0].kind, events[0].line, events[0].aux),
            (TraceKind::Hit, a, a_frame)
        );
    }

    /// A decay refetch is a Flush-cause Evict (at the switch-off point)
    /// followed by a demand Fill of the same line — with no Miss event,
    /// because decay misses are invisible to the program-level model.
    #[test]
    fn decay_refetch_emits_flush_evict_then_refill() {
        let mut sys = traced(SystemConfig::with_decay(8_192));
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a = line_of(&sys, 0x1000);
        let from = mark(&mut sys);
        sys.access(&mref(0x1000), false, Cycle::new(50_000));
        let events = events(&mut sys, from);
        assert_eq!(events.len(), 3, "unexpected stream: {events:?}");
        assert_eq!(
            (events[0].kind, events[0].line, events[0].aux),
            (TraceKind::Evict, a, evict_cause_code(EvictCause::Flush)),
            "decay must close the generation with Flush cause: {events:?}"
        );
        assert_eq!((events[1].kind, events[1].line), (TraceKind::GenClose, a));
        assert_eq!(
            events[2].line, a,
            "decay must refill the same line: {events:?}"
        );
        assert!(fill_of(&events[2]).1, "the refill is a demand fill");
        assert_eq!(sys.stats().decay_misses, 1);
    }

    /// A prefetch arrival appears in the stream as a non-demand Fill
    /// (with a Prefetch-cause Evict first when it displaces a line).
    #[test]
    fn prefetch_arrival_emits_non_demand_fill() {
        let mut sys = traced(SystemConfig::with_prefetch(PrefetchMode::Stride(
            StrideConfig::CLASSIC,
        )));
        let mut now = 0u64;
        // A steady one-line stride from a single PC trains the table and
        // triggers prefetches; generous spacing lets them arrive.
        for i in 0..32u64 {
            sys.advance(Cycle::new(now));
            let r = MemRef::new(Addr::new(0x4_0000 + i * 32), Pc::new(0x42));
            sys.access(&r, false, Cycle::new(now));
            now += 400;
        }
        sys.advance(Cycle::new(now));
        assert!(sys.stats().pf_fills > 0, "stride prefetches never landed");
        let pf_fills = sys.stats().pf_fills;
        let events = events(&mut sys, 0);
        let is_pf_fill = |r: &TraceRecord| r.kind == TraceKind::Fill && !fill_of(r).1;
        assert_eq!(
            events.iter().filter(|r| is_pf_fill(r)).count() as u64,
            pf_fills,
            "every prefetch fill must be announced as a non-demand Fill"
        );
        // Prefetched lines are ahead of the demand stream: each
        // prefetch-filled line must not have been demand-missed before.
        for (i, e) in events.iter().enumerate().filter(|(_, e)| is_pf_fill(e)) {
            let demanded_before = events[..i]
                .iter()
                .any(|x| x.kind == TraceKind::Miss && x.line == e.line);
            assert!(!demanded_before, "prefetch fill for an already-missed line");
        }
    }

    /// The observer scratchpad hands the closed generation to the
    /// victim filter: a swap-free eviction with a victim cache
    /// configured publishes an admission decision.
    #[test]
    fn evict_event_reaches_victim_admission() {
        let mut sys = MemorySystem::new(SystemConfig::with_victim(VictimMode::Unfiltered));
        sys.access(&mref(0x1000), false, Cycle::new(0));
        sys.access(&mref(0x1000 + 32 * 1024), false, Cycle::new(100));
        let stats = sys.victim_stats().expect("victim configured");
        assert_eq!(stats.offered, 1, "eviction must be offered to the VC");
        assert_eq!(stats.admitted, 1, "unfiltered VC admits everything");
    }

    /// Pins the swap accounting, one rule at every core count: a
    /// victim-cache hit closes the displaced generation through the
    /// ordinary Evict event, so the admission filter is offered that
    /// generation (and, unfiltered, admits it) before the swap inserts
    /// the block anyway.
    fn assert_swap_closes_offered(cores: u32) {
        let cfg = SystemConfig::builder()
            .cores(cores)
            .victim(VictimMode::Unfiltered)
            .build()
            .unwrap();
        let mut sys = MemorySystem::new(cfg);
        assert!(sys.enable_lockstep_check());
        // Three lines conflicting in one direct-mapped set, in
        // rotation, on core 0.
        let rounds = 10u64;
        for i in 0..3 * rounds {
            let a = 0x1000 + (i % 3) * 32 * 1024;
            sys.access(&mref(a), false, Cycle::new(i * 200));
        }
        // Three cold misses, then every access swaps through the
        // buffer.
        let swaps = sys.victim_swap_fills().expect("victim configured");
        assert_eq!(swaps, 3 * rounds - 3, "{cores} cores");
        assert_eq!(sys.stats().vc_hits, swaps, "{cores} cores");
        // Every close is offered: the two full-miss evictions and
        // every swap.
        let stats = sys.victim_stats().expect("victim configured");
        assert_eq!(stats.offered, 2 + swaps, "{cores} cores");
        assert_eq!(stats.admitted, 2 + swaps, "{cores} cores");
    }

    #[test]
    fn swap_closes_are_offered_at_one_core() {
        assert_swap_closes_offered(1);
    }

    #[test]
    fn swap_closes_are_offered_at_two_cores() {
        assert_swap_closes_offered(2);
    }
}
