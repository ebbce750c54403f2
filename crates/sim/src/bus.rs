//! Occupancy-based bus contention model.
//!
//! Each block transfer occupies the bus for a fixed number of core cycles
//! (width and clock ratio folded into the occupancy constant). Transfers
//! serialize: a request issued while the bus is busy starts when it frees.
//! Demand traffic always schedules; prefetch traffic is only granted when
//! the bus is idle (the "busses always give processor memory requests
//! priority over hardware prefetch requests" rule of §2.1).

use timekeeping::Cycle;

/// A shared bus with fixed per-transfer occupancy.
///
/// # Examples
///
/// ```
/// use tk_sim::bus::Bus;
/// use timekeeping::Cycle;
///
/// let mut bus = Bus::new(5);
/// // Two back-to-back transfers serialize.
/// assert_eq!(bus.schedule(Cycle::new(100)), Cycle::new(100)); // done at 105
/// assert_eq!(bus.schedule(Cycle::new(100)), Cycle::new(105)); // done at 110
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Bus {
    occupancy: u64,
    next_free: Cycle,
    transfers: u64,
    busy_cycles: u64,
    /// End of the most recently scheduled busy interval, kept only to
    /// assert that intervals never overlap.
    #[cfg(feature = "check-invariants")]
    last_end: Cycle,
}

impl Bus {
    /// Creates a bus whose transfers occupy `occupancy` core cycles.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is zero.
    pub fn new(occupancy: u64) -> Self {
        assert!(occupancy > 0, "bus occupancy must be nonzero");
        Bus {
            occupancy,
            next_free: Cycle::ZERO,
            transfers: 0,
            busy_cycles: 0,
            #[cfg(feature = "check-invariants")]
            last_end: Cycle::ZERO,
        }
    }

    /// Per-transfer occupancy in cycles.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Completed or scheduled transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total cycles of scheduled occupancy (utilization numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// True if a transfer requested at `now` would start immediately.
    pub fn idle_at(&self, now: Cycle) -> bool {
        self.next_free <= now
    }

    /// Schedules a demand transfer requested at `now`; returns its start
    /// time (the data is across the bus at `start + occupancy`).
    pub fn schedule(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.next_free);
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                start >= self.last_end,
                "bus busy intervals overlap: transfer at {start} starts \
                 before the previous one ends at {}",
                self.last_end
            );
            self.last_end = start + self.occupancy;
        }
        self.next_free = start + self.occupancy;
        self.transfers += 1;
        self.busy_cycles += self.occupancy;
        start
    }

    /// Current reservation backlog: how far beyond `now` the bus is booked.
    pub fn backlog(&self, now: Cycle) -> u64 {
        self.next_free.since(now)
    }

    /// The cycle at which every current reservation has drained. The bus
    /// state is static between transfers, so `backlog(c)` for any future
    /// `c` is fully determined by this value — which makes it the bus's
    /// contribution to event-driven wake-up computation.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Schedules a prefetch transfer requested at `now` only if the demand
    /// backlog is below `max_backlog` cycles; demand traffic has priority,
    /// so prefetches yield whenever the bus is meaningfully congested.
    /// (Demand reservations are booked at data-return time, so a small
    /// backlog is normal even on an uncongested bus — a strict idle check
    /// would starve prefetches entirely.)
    pub fn try_schedule_prefetch(&mut self, now: Cycle, max_backlog: u64) -> Option<Cycle> {
        if self.backlog(now) <= max_backlog {
            Some(self.schedule(now))
        } else {
            None
        }
    }

    /// Completion time of a transfer that starts at `start`.
    pub fn done_at(&self, start: Cycle) -> Cycle {
        start + self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_serialize() {
        let mut b = Bus::new(5);
        let s1 = b.schedule(Cycle::new(0));
        let s2 = b.schedule(Cycle::new(0));
        let s3 = b.schedule(Cycle::new(0));
        assert_eq!(s1, Cycle::new(0));
        assert_eq!(s2, Cycle::new(5));
        assert_eq!(s3, Cycle::new(10));
        assert_eq!(b.transfers(), 3);
        assert_eq!(b.busy_cycles(), 15);
    }

    #[test]
    fn idle_gap_is_not_reserved() {
        let mut b = Bus::new(5);
        b.schedule(Cycle::new(0)); // busy 0..5
        let s = b.schedule(Cycle::new(100)); // long idle gap
        assert_eq!(s, Cycle::new(100));
    }

    #[test]
    fn prefetch_yields_to_backlog() {
        let mut b = Bus::new(5);
        b.schedule(Cycle::new(0)); // booked 0..5
        assert_eq!(b.backlog(Cycle::new(3)), 2);
        // Backlog 2 exceeds a zero allowance but fits a 2-cycle allowance.
        assert_eq!(b.try_schedule_prefetch(Cycle::new(3), 0), None);
        assert_eq!(
            b.try_schedule_prefetch(Cycle::new(3), 2),
            Some(Cycle::new(5))
        );
        // After that, the backlog has grown past the allowance again.
        assert_eq!(b.try_schedule_prefetch(Cycle::new(3), 2), None);
        assert_eq!(
            b.try_schedule_prefetch(Cycle::new(10), 2),
            Some(Cycle::new(10))
        );
    }

    #[test]
    fn done_at_adds_occupancy() {
        let b = Bus::new(7);
        assert_eq!(b.done_at(Cycle::new(10)), Cycle::new(17));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_occupancy_rejected() {
        let _ = Bus::new(0);
    }
}
