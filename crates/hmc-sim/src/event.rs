//! Request-level (event-driven) vault simulator.
//!
//! Used to validate the phase engine's deterministic queueing: individual
//! block requests from PEs are issued against per-bank FCFS queues with
//! row-buffer state, and the makespan is compared against
//! [`crate::PhaseEngine`]'s aggregate estimate in integration tests.
//!
//! This simulator is intentionally small-scale (one vault at a time) — the
//! phase engine handles full-size workloads; this one establishes its
//! trustworthiness.

use crate::dram::DramTiming;
use crate::geometry::HmcConfig;

/// One block-granularity memory request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Issuing PE index.
    pub pe: usize,
    /// Target bank.
    pub bank: usize,
    /// Target row (for row-hit modeling).
    pub row: u64,
    /// Issue cycle (PE clock domain).
    pub issue_cycle: u64,
}

/// Result of an event simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventResult {
    /// Total makespan in seconds.
    pub time_s: f64,
    /// Total bank-busy seconds summed over banks.
    pub bank_busy_s: f64,
    /// Observed row-hit rate.
    pub row_hit_rate: f64,
    /// Maximum queue depth observed at any bank.
    pub max_queue_depth: usize,
}

/// Event-driven single-vault simulator.
#[derive(Debug, Clone)]
pub struct EventSim {
    cfg: HmcConfig,
    dram: DramTiming,
}

impl EventSim {
    /// Creates the simulator.
    pub fn new(cfg: HmcConfig) -> Self {
        EventSim {
            cfg,
            dram: DramTiming::default(),
        }
    }

    /// Simulates a request stream against one vault's banks.
    ///
    /// Requests must be sorted by `issue_cycle`; each bank serves FCFS with
    /// open-row policy.
    ///
    /// # Panics
    ///
    /// Panics if a request names a bank outside the configuration.
    pub fn run(&self, requests: &[Request]) -> EventResult {
        let banks = self.cfg.banks_per_vault;
        let mut bank_free_at = vec![0.0f64; banks];
        let mut open_row: Vec<Option<u64>> = vec![None; banks];
        let mut bank_busy = 0.0f64;
        let mut hits = 0usize;
        let mut queue_depth = vec![0usize; banks];
        let mut max_depth = 0usize;
        let mut end = 0.0f64;
        let cycle_s = 1.0 / (self.cfg.pe_clock_ghz * 1e9);

        // Track in-flight completion times per bank to estimate queue depth.
        let mut completions: Vec<Vec<f64>> = vec![Vec::new(); banks];

        for req in requests {
            assert!(req.bank < banks, "bank {} out of range", req.bank);
            let arrival = req.issue_cycle as f64 * cycle_s;
            let hit = open_row[req.bank] == Some(req.row);
            if hit {
                hits += 1;
            }
            let service = if hit {
                self.dram.t_row_hit_ns
            } else {
                self.dram.t_row_miss_ns
            } * 1e-9;
            let start = bank_free_at[req.bank].max(arrival);
            let finish = start + service;
            bank_free_at[req.bank] = finish;
            open_row[req.bank] = Some(req.row);
            bank_busy += service;
            end = end.max(finish);

            // Queue depth accounting: requests arrived but not finished.
            completions[req.bank].retain(|&c| c > arrival);
            completions[req.bank].push(finish);
            queue_depth[req.bank] = completions[req.bank].len();
            max_depth = max_depth.max(queue_depth[req.bank]);
        }

        EventResult {
            time_s: end,
            bank_busy_s: bank_busy,
            row_hit_rate: if requests.is_empty() {
                0.0
            } else {
                hits as f64 / requests.len() as f64
            },
            max_queue_depth: max_depth,
        }
    }

    /// Generates the request stream of `pes` PEs each streaming
    /// `blocks_per_pe` consecutive blocks from a shared tensor, under a
    /// given (vault-local) bank layout.
    ///
    /// `bank_of` maps a global block index to a bank/row; PEs issue one
    /// request per `issue_interval` cycles, interleaved round-robin — the
    /// access pattern of §5.3.1's concurrent-PE discussion.
    // LINT-ALLOW(R6): model-checking helper: the conformance tests generate the PE streams they validate the phase model with.
    pub fn pe_stream(
        &self,
        pes: usize,
        blocks_per_pe: usize,
        issue_interval: u64,
        bank_of: impl Fn(u64) -> (usize, u64),
    ) -> Vec<Request> {
        let mut reqs = Vec::with_capacity(pes * blocks_per_pe);
        for step in 0..blocks_per_pe {
            for pe in 0..pes {
                let block = (pe * blocks_per_pe + step) as u64;
                let (bank, row) = bank_of(block);
                reqs.push(Request {
                    pe,
                    bank,
                    row,
                    issue_cycle: step as u64 * issue_interval,
                });
            }
        }
        reqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> EventSim {
        EventSim::new(HmcConfig::gen3())
    }

    #[test]
    fn empty_stream() {
        let r = sim().run(&[]);
        assert_eq!(r.time_s, 0.0);
        assert_eq!(r.row_hit_rate, 0.0);
    }

    #[test]
    fn sequential_same_row_hits() {
        let s = sim();
        let reqs: Vec<Request> = (0..100)
            .map(|i| Request {
                pe: 0,
                bank: 0,
                row: 0,
                issue_cycle: i,
            })
            .collect();
        let r = s.run(&reqs);
        // First access misses, the rest hit.
        assert!((r.row_hit_rate - 0.99).abs() < 1e-9);
    }

    #[test]
    fn row_thrash_when_pes_interleave_on_one_bank() {
        let s = sim();
        // Two PEs alternate rows on the same bank → every access misses.
        let reqs: Vec<Request> = (0..100)
            .map(|i| Request {
                pe: i % 2,
                bank: 0,
                row: (i % 2) as u64 + (i / 2) as u64 * 100,
                issue_cycle: i as u64,
            })
            .collect();
        let r = s.run(&reqs);
        assert!(
            r.row_hit_rate < 0.05,
            "thrash should kill hits: {}",
            r.row_hit_rate
        );
    }

    #[test]
    fn spreading_banks_reduces_makespan() {
        let s = sim();
        // 16 PEs × 64 blocks each. Concentrated: every PE's region lives in
        // bank 0 but in its own rows, so interleaved issue thrashes the row
        // buffer (§5.3.1's conflict scenario).
        let concentrated = s.pe_stream(16, 64, 1, |b| (0, b / 64));
        let spread = s.pe_stream(16, 64, 1, |b| ((b as usize) % 16, b / 16));
        let t_conc = s.run(&concentrated).time_s;
        let t_spread = s.run(&spread).time_s;
        assert!(
            t_conc > 5.0 * t_spread,
            "concentrated {} vs spread {}",
            t_conc,
            t_spread
        );
    }

    #[test]
    fn makespan_bounded_by_busy_time() {
        let s = sim();
        let reqs = s.pe_stream(16, 32, 2, |b| ((b as usize) % 16, b / 128));
        let r = s.run(&reqs);
        // Makespan can't beat (total busy / banks) nor exceed total busy.
        assert!(r.time_s * 16.0 + 1e-12 >= r.bank_busy_s / 1.0001);
        assert!(r.time_s <= r.bank_busy_s + 1e-6);
    }
}
