//! The parallel experiment engine.
//!
//! Every experiment expands into a flat list of [`Cell`]s — fully specified
//! simulation runs (protocol, client count, repetition, seed). A
//! [`SweepRunner`] fans the cells out across a pool of OS threads and hands
//! the results back **in declaration order**, so reports and CSVs are
//! byte-identical no matter how many workers ran or how the scheduler
//! interleaved them: each cell owns its own virtual clock and RNG seed, so
//! cells are embarrassingly parallel by construction.
//!
//! The same property makes a cell's result a function of the cell alone, so
//! a runner simulates each distinct cell once: it keeps every cell it ran
//! with its [`RunResult`], and a later [`SweepRunner::run_cells`] that
//! declares an equal cell is handed that result (Figure 3 reads Figure
//! 10d's Paxos_LBR leader cell this way, and fig7, fig8 and fig9b the IDEM
//! RT = 50 cells fig6 already ran).
//!
//! ```no_run
//! use std::time::Duration;
//! use idem_harness::sweep::{Cell, SweepRunner};
//! use idem_harness::{Protocol, Scenario};
//!
//! let runner = SweepRunner::new(4);
//! let cells = vec![
//!     Cell::timed(Scenario::new(Protocol::idem(), 50, Duration::from_secs(3))),
//!     Cell::timed(Scenario::new(Protocol::paxos(), 50, Duration::from_secs(3))),
//! ];
//! let results = runner.run_cells(cells); // results[i] belongs to cells[i]
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use idem_simnet::EventStats;

use crate::scenario::{RunResult, Scenario};

/// How a cell's simulation terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Run for the scenario's configured warmup + duration.
    Timed,
    /// Run until `target` successful operations completed (not counting
    /// warmup), advancing in `step`-sized chunks — the Table 1 mode.
    UntilSuccesses {
        /// Successful operations to reach.
        target: u64,
        /// Virtual-time chunk between progress checks.
        step: Duration,
    },
}

/// One schedulable unit of experiment work: a scenario plus its run mode.
/// Equal cells simulate equal runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The fully specified run.
    pub scenario: Scenario,
    /// Termination condition.
    pub mode: RunMode,
}

impl Cell {
    /// A cell that runs for the scenario's configured duration.
    pub fn timed(scenario: Scenario) -> Cell {
        Cell {
            scenario,
            mode: RunMode::Timed,
        }
    }

    /// A cell that runs until `target` successes, checking every `step`.
    pub fn until_successes(scenario: Scenario, target: u64, step: Duration) -> Cell {
        Cell {
            scenario,
            mode: RunMode::UntilSuccesses { target, step },
        }
    }

    /// Executes the cell to completion.
    pub fn run(&self) -> RunResult {
        match self.mode {
            RunMode::Timed => self.scenario.run(),
            RunMode::UntilSuccesses { target, step } => {
                self.scenario.run_until_successes(target, step)
            }
        }
    }
}

/// Aggregate execution statistics of the cells a runner has executed since
/// the last [`SweepRunner::take_stats`] call. A cell served from an earlier
/// simulation counts nowhere: its events belong to the call that ran it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells executed.
    pub cells: u64,
    /// Simulator events processed, summed over cells.
    pub events: u64,
    /// Wall-clock time spent inside cell runs, summed over workers (with
    /// `jobs > 1` this exceeds elapsed wall time).
    pub busy: Duration,
    /// Per-kind dispatch breakdown summed over cells, with
    /// `queue_high_water` the max over any single cell.
    pub events_by_kind: EventStats,
}

impl SweepStats {
    /// Simulator events per second of *elapsed* wall time — the aggregate
    /// simulation speed across all workers.
    pub fn events_per_sec(&self, elapsed: Duration) -> f64 {
        self.events as f64 / elapsed.as_secs_f64().max(1e-9)
    }
}

/// Executes batches of [`Cell`]s on a worker pool, preserving declaration
/// order in the returned results.
#[derive(Debug)]
pub struct SweepRunner {
    jobs: usize,
    /// Locked once or twice per finished task, never while one runs.
    stats: Mutex<SweepStats>,
    /// Every cell simulated so far, with its result, in the order the
    /// batches declared them. Locked for a whole `run_cells` call; its
    /// workers never take it.
    simulated: Mutex<Vec<(Cell, RunResult)>>,
}

impl Default for SweepRunner {
    fn default() -> SweepRunner {
        SweepRunner::from_available_parallelism()
    }
}

impl SweepRunner {
    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn new(jobs: usize) -> SweepRunner {
        SweepRunner {
            jobs: jobs.max(1),
            stats: Mutex::default(),
            simulated: Mutex::default(),
        }
    }

    /// A single-worker runner (identical to running cells inline).
    pub fn sequential() -> SweepRunner {
        SweepRunner::new(1)
    }

    /// A runner sized to the host's available parallelism.
    pub fn from_available_parallelism() -> SweepRunner {
        let jobs = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepRunner::new(jobs)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    fn stats(&self) -> MutexGuard<'_, SweepStats> {
        self.stats.lock().expect("sweep stats lock poisoned")
    }

    /// Runs all cells and returns their results in declaration order:
    /// `results[i]` corresponds to `cells[i]`, regardless of worker count
    /// or scheduling. A cell equal to one this runner already simulated, in
    /// this call or an earlier one, is not simulated again: it gets a copy
    /// of that result. Panics in a cell propagate to the caller.
    pub fn run_cells(&self, cells: Vec<Cell>) -> Vec<RunResult> {
        let mut simulated = self.simulated.lock().expect("sweep memo lock poisoned");
        let mut fresh: Vec<Cell> = Vec::new();
        for cell in &cells {
            if !fresh.contains(cell) && !simulated.iter().any(|(c, _)| c == cell) {
                fresh.push(cell.clone());
            }
        }
        let ran = self.run_tasks(fresh, |cell| {
            let result = cell.run();
            self.note_events(result.events_processed);
            self.note_event_stats(&result.event_stats);
            (cell.clone(), result)
        });
        // Kept as copies made here: a worker's own result sits among the
        // freed blocks of its simulation and would keep the allocator from
        // returning them.
        simulated.extend(ran.into_iter().map(|(cell, result)| (cell, result.clone())));
        let served = |cell| simulated.iter().find(|(c, _)| c == cell).expect("ran");
        cells.iter().map(|cell| served(cell).1.clone()).collect()
    }

    /// Runs arbitrary independent tasks on the worker pool, returning the
    /// results in declaration order — the same guarantee as
    /// [`run_cells`](Self::run_cells), for work that is not a [`Cell`]
    /// (e.g. the chaos campaign's seeded fault-injection runs). Each task
    /// is counted in [`SweepStats::cells`] and its wall time in
    /// [`SweepStats::busy`]; tasks report simulator events themselves via
    /// [`note_events`](Self::note_events).
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, run: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = tasks.len();
        let workers = self.jobs.min(n);
        let timed = |task: &T| {
            let start = Instant::now();
            let result = run(task);
            let busy = start.elapsed();
            let mut stats = self.stats();
            stats.cells += 1;
            stats.busy += busy;
            result
        };
        if workers <= 1 {
            return tasks.iter().map(timed).collect();
        }
        // Work-stealing over a shared index: each worker claims the next
        // unclaimed task, runs it, and keeps the (index, result) pair
        // locally; the pairs are merged back into declaration order after
        // the scope joins. Tasks carry their own seed and virtual clock, so
        // results are independent of which worker ran them.
        let next = AtomicUsize::new(0);
        let tasks = &tasks;
        let timed = &timed;
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, timed(&tasks[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("sweep worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every task produced a result"))
            .collect()
    }

    /// Adds simulator events to the accumulated statistics, for tasks run
    /// via [`run_tasks`](Self::run_tasks) (thread-safe).
    pub fn note_events(&self, events: u64) {
        self.stats().events += events;
    }

    /// Adds one run's per-kind dispatch breakdown to the accumulated
    /// statistics, for tasks run via [`run_tasks`](Self::run_tasks)
    /// (thread-safe).
    pub fn note_event_stats(&self, stats: &EventStats) {
        self.stats().events_by_kind.merge(stats);
    }

    /// Returns the statistics accumulated since the previous call and
    /// resets them — call once per experiment to attribute events and
    /// wall time to it.
    pub fn take_stats(&self) -> SweepStats {
        std::mem::take(&mut *self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    fn tiny_cells(n: u64) -> Vec<Cell> {
        (0..n)
            .map(|i| {
                let mut s = Scenario::new(Protocol::idem(), 4, Duration::from_millis(300))
                    .with_seed(100 + i);
                s.warmup = Duration::from_millis(100);
                Cell::timed(s)
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_declaration_order() {
        let runner = SweepRunner::new(4);
        let mut cells = tiny_cells(3);
        // Make the cells distinguishable by client count.
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.scenario.clients = 2 + i as u32;
        }
        let expected: Vec<u32> = cells.iter().map(|c| c.scenario.clients).collect();
        let got: Vec<u32> = runner.run_cells(cells).iter().map(|r| r.clients).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_and_sequential_agree_exactly() {
        let sequential = SweepRunner::sequential().run_cells(tiny_cells(4));
        let parallel = SweepRunner::new(4).run_cells(tiny_cells(4));
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.metrics.successes, p.metrics.successes);
            assert_eq!(s.metrics.rejections, p.metrics.rejections);
            assert_eq!(s.total_traffic_bytes(), p.total_traffic_bytes());
            assert_eq!(s.events_processed, p.events_processed);
            assert_eq!(s.total_messages, p.total_messages);
        }
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let runner = SweepRunner::new(2);
        let results = runner.run_cells(tiny_cells(2));
        let stats = runner.take_stats();
        assert_eq!(stats.cells, 2);
        assert_eq!(
            stats.events,
            results.iter().map(|r| r.events_processed).sum::<u64>()
        );
        assert!(stats.events > 0);
        assert!(stats.busy > Duration::ZERO);
        assert_eq!(
            stats.events_by_kind.delivers,
            results.iter().map(|r| r.event_stats.delivers).sum::<u64>()
        );
        assert!(stats.events_by_kind.queue_high_water > 0);
        assert_eq!(runner.take_stats(), SweepStats::default());
    }

    #[test]
    fn an_equal_cell_is_simulated_once_per_runner() {
        let runner = SweepRunner::new(2);
        let cell = tiny_cells(1).remove(0);
        let first = runner.run_cells(vec![cell.clone(), cell.clone()]);
        assert_eq!(runner.take_stats().cells, 1);
        let again = runner.run_cells(vec![cell.clone()]).remove(0);
        assert_eq!(runner.take_stats(), SweepStats::default());
        for r in [&first[1], &again] {
            assert_eq!(r.metrics.successes, first[0].metrics.successes);
            assert_eq!(r.metrics.latency_mean_ms, first[0].metrics.latency_mean_ms);
            assert_eq!(r.events_processed, first[0].events_processed);
            assert_eq!(r.event_stats, first[0].event_stats);
            assert_eq!(r.reply_series, first[0].reply_series);
        }
        // A cell that differs only in its seed is another simulation.
        let reseeded = Cell::timed(cell.scenario.with_seed(99));
        let other = runner.run_cells(vec![reseeded]).remove(0);
        let stats = runner.take_stats();
        assert_eq!((stats.cells, stats.events), (1, other.events_processed));
        assert_ne!(other.events_processed, first[0].events_processed);
    }

    #[test]
    fn jobs_are_clamped_to_at_least_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
        assert!(SweepRunner::from_available_parallelism().jobs() >= 1);
    }

    #[test]
    fn until_successes_mode_reaches_target() {
        let mut s = Scenario::new(Protocol::idem(), 4, Duration::from_secs(3600));
        s.warmup = Duration::ZERO;
        let cell = Cell::until_successes(s, 200, Duration::from_millis(100));
        let result = SweepRunner::sequential().run_cells(vec![cell]);
        assert!(result[0].metrics.successes >= 200);
    }
}
