//! One read request, untraced and traced, and the per-layer accumulators.
//!
//! The untraced request is what a user of the engine runs: open a `Rows`
//! cursor (from a prepared query or from text) and drain it.  The traced
//! request performs the same work as a sequence of public calls into the
//! crates, each timed from here:
//!
//! | step | public call | layer |
//! |---|---|---|
//! | pin | `Database::snapshot` | `catalog` |
//! | parse (text only) | `pascalr_parser::parse_selection` | `parser` |
//! | plan lookup | `Session::prepare_selection`, `PreparedQuery::rows` | `core` (plans on a miss) |
//! | start | `ExecutionCursor::start` | `exec` (collection, combination) |
//! | drain | `ExecutionCursor::next_tuple` | `exec` (construction) |
//!
//! The time of the request not covered by these steps is
//! `core.unattributed_share`.  Two splits need the same call repeated
//! after the request, outside its timed interval: on a plan-cache miss,
//! `pascalr_analysis::simplify` and `pascalr_planner::plan` are run again
//! on the same selection and snapshot (the planner calls `simplify`
//! itself, so its self time is the difference), and the cursor's
//! effective plan is run again through `run_collection` and, when the
//! combination is not streamed, `run_combination`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pascalr::exec::collection::run_collection;
use pascalr::exec::combine::run_combination;
use pascalr::exec::ExecutionCursor;
use pascalr::storage::{Counters, Metrics, Phase};
use pascalr::{CacheStats, Database, PreparedQuery, Session, StrategyLevel, Tuple};

use crate::check::Expect;
use crate::report::Measured;
use crate::stats::{per, timed, Samples, Total};

/// Where a read's plan comes from.
pub(crate) enum Source<'a> {
    Prepared(&'a PreparedQuery),
    Text(&'a str),
}

/// One completed read.
pub(crate) struct Read {
    pub(crate) tuples: Vec<Tuple>,
    /// Open to first row (to the end for an empty result).
    pub(crate) ttft: Duration,
    /// Open to last row.
    pub(crate) total: Duration,
}

/// The untraced request: open the engine's own cursor and drain it.
fn read(session: &Session, source: &Source<'_>) -> Result<Read, String> {
    let start = Instant::now();
    let rows = match source {
        Source::Prepared(p) => p.rows(),
        Source::Text(text) => session.rows(text),
    }
    .map_err(|e| e.to_string())?;
    let mut tuples = Vec::new();
    let mut ttft = None;
    for row in rows {
        tuples.push(row.map_err(|e| e.to_string())?);
        ttft.get_or_insert_with(|| start.elapsed());
    }
    let total = start.elapsed();
    Ok(Read {
        tuples,
        ttft: ttft.unwrap_or(total),
        total,
    })
}

/// Runs one read request of request class `class` and checks its result
/// against `want`, which is called after the request.  Untraced latencies
/// go to `m`; a traced request's go to `layers`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn checked_read(
    db: &Database,
    session: &Session,
    source: &Source<'_>,
    class: u32,
    want: impl FnOnce() -> Result<Expect, String>,
    m: &mut Measured,
    layers: Option<&mut Layers>,
    corrupt: &mut bool,
) -> Result<(), String> {
    m.attempted += 1;
    let traced = layers.is_some();
    let result = match layers {
        Some(l) => traced_read(db, session, source, l),
        None => read(session, source),
    };
    let good = match result {
        Ok(mut got) => {
            if !traced {
                let f = m.gauge.factor();
                m.reads.push(class, got.total, f);
                m.ttft.push(class, got.ttft, f);
            }
            crate::check::matches(&mut got.tuples, want()?, corrupt)
        }
        Err(_) => false,
    };
    m.failed += u64::from(!good);
    Ok(())
}

/// Layer timings and counts of a traced run.  Times are summed per request
/// and reported as means, so that the layers of one request add up.
#[derive(Debug, Default)]
pub(crate) struct Layers {
    pub(crate) requests: u64,
    pub(crate) request: Total,
    /// Open-to-last-row latency of each traced request.
    pub(crate) traced: Samples,
    pub(crate) snapshot_pin: Total,
    pub(crate) parse: Total,
    /// Plan-cache lookup through the prepared-query API, planning on a miss.
    pub(crate) core: Total,
    /// `ExecutionCursor::start`: runtime checks, collection, and the
    /// combination when it is not streamed.
    pub(crate) exec_start: Total,
    /// Draining the started cursor: construction (and a streamed
    /// combination).
    pub(crate) construction: Total,
    pub(crate) simplify: Total,
    pub(crate) plan_self: Total,
    pub(crate) diagnostics: u64,
    pub(crate) collection: Total,
    pub(crate) combination: Total,
    pub(crate) chose: [u64; 5],
    pub(crate) fallbacks: u64,
    pub(crate) q_errors: Samples,
    /// Work counters of the collection, combination and construction
    /// phases, summed over requests.
    pub(crate) counters: [Counters; 3],
    pub(crate) cache: CacheDelta,
    pub(crate) writes: WriteLayers,
}

/// Plan-cache behaviour of the traced requests.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CacheDelta {
    pub(crate) requests: u64,
    /// Requests that missed the plan cache and planned.
    pub(crate) missed: u64,
    pub(crate) evictions: u64,
}

impl CacheDelta {
    fn add(&mut self, before: CacheStats, after: CacheStats) {
        self.requests += 1;
        self.missed += u64::from(after.misses > before.misses);
        self.evictions += after.evictions - before.evictions;
    }

    pub(crate) fn hit_ratio(&self) -> f64 {
        1.0 - per(self.missed as f64, self.requests)
    }
}

/// Storage and catalog numbers of the traced write path.
#[derive(Debug, Default)]
pub(crate) struct WriteLayers {
    pub(crate) inserts: u64,
    /// `Database::insert` on the persistent database.
    pub(crate) durable_insert: Total,
    /// `Database::insert` of the identical tuple on an in-memory twin.
    pub(crate) twin_insert: Total,
    pub(crate) wal_appends: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) fsyncs: u64,
    pub(crate) checkpoints: u64,
    pub(crate) checkpoint_bytes: u64,
    pub(crate) checkpoint_pages: u64,
    pub(crate) user_bytes_inserted: u64,
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
    pub(crate) recoveries: u64,
    pub(crate) replays: u64,
}

const PHASES: [Phase; 3] = [Phase::Collection, Phase::Combination, Phase::Construction];

fn level_index(level: StrategyLevel) -> Option<usize> {
    StrategyLevel::ALL.iter().position(|&l| l == level)
}

/// The traced request (see the module docs).  Returns the same [`Read`]
/// as the untraced one, with `total` covering only the timed steps and
/// the glue between them.
fn traced_read(
    db: &Database,
    session: &Session,
    source: &Source<'_>,
    layers: &mut Layers,
) -> Result<Read, String> {
    let before = db.plan_cache_stats();
    let start = Instant::now();
    let (snapshot, d) = timed(|| db.snapshot());
    layers.snapshot_pin.add(d);
    let mut lookup = Duration::ZERO;
    let owned;
    let prepared = match source {
        Source::Prepared(p) => *p,
        Source::Text(text) => {
            let (parsed, d) = timed(|| pascalr::parser::parse_selection(text, &snapshot));
            layers.parse.add(d);
            let selection = parsed.map_err(|e| e.to_string())?;
            let (p, d) = timed(|| session.prepare_selection(selection));
            lookup += d;
            owned = p;
            &owned
        }
    };
    let (rows, d) = timed(|| prepared.rows());
    let plan = Arc::clone(rows.map_err(|e| e.to_string())?.plan());
    layers.core.add(lookup + d);
    let mut cursor = ExecutionCursor::new(Arc::clone(&plan), snapshot.clone(), Metrics::new());
    let (started, d) = timed(|| cursor.start());
    layers.exec_start.add(d);
    started.map_err(|e| e.to_string())?;
    let drain = Instant::now();
    let mut tuples = Vec::new();
    let mut ttft = None;
    while let Some(row) = cursor.next_tuple() {
        tuples.push(row.map_err(|e| e.to_string())?);
        ttft.get_or_insert_with(|| start.elapsed());
    }
    layers.construction.add(drain.elapsed());
    let total = start.elapsed();
    layers.request.add(total);
    layers.traced.push(total);
    layers.requests += 1;
    let after = db.plan_cache_stats();
    layers.cache.add(before, after);

    // Splits that need a repeated call, outside the request's interval.
    if after.misses > before.misses {
        let selection = prepared.selection();
        let (simplified, ds) = timed(|| pascalr::analysis::simplify(selection, &snapshot));
        let (_, dp) = timed(|| {
            pascalr::planner::plan(
                selection,
                &snapshot,
                prepared.strategy(),
                prepared.plan_options(),
            )
        });
        layers.simplify.add(ds);
        layers.plan_self.add(dp.saturating_sub(ds));
        layers.diagnostics += simplified.diagnostics.len() as u64;
    }
    let effective = cursor.query_plan();
    let metrics = Metrics::new();
    let (collected, d) = timed(|| run_collection(effective, &snapshot, &metrics));
    layers.collection.add(d);
    if !effective.combination_streams() {
        let collected = collected.map_err(|e| e.to_string())?;
        let (_, d) = timed(|| run_combination(effective, &collected, &snapshot, &metrics));
        layers.combination.add(d);
    }

    if let Some(i) = level_index(plan.strategy) {
        layers.chose[i] += 1;
    }
    layers.fallbacks += u64::from(cursor.fallback().is_some());
    if let Some(estimates) = &plan.estimates {
        let estimated = estimates.result_rows.max(1.0);
        let actual = (tuples.len() as f64).max(1.0);
        layers
            .q_errors
            .push_value((estimated / actual).max(actual / estimated));
    }
    let work = cursor.metrics().snapshot();
    for (sum, phase) in layers.counters.iter_mut().zip(PHASES) {
        *sum = sum.add(&work.phase(phase));
    }
    Ok(Read {
        tuples,
        ttft: ttft.unwrap_or(total),
        total,
    })
}

impl Layers {
    /// The per-request layer split, as shares of the mean traced request,
    /// printed with the traced run.
    pub(crate) fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.request.sum.as_secs_f64().max(f64::MIN_POSITIVE);
        let share = |d: Duration| d.as_secs_f64() / total;
        let planning = self.simplify.sum + self.plan_self.sum;
        let shadow_exec = self.collection.sum + self.combination.sum;
        vec![
            ("catalog.snapshot_pin", share(self.snapshot_pin.sum)),
            ("parser.parse", share(self.parse.sum)),
            ("analysis.simplify", share(self.simplify.sum)),
            ("planner.plan", share(self.plan_self.sum)),
            (
                "core.plan_lookup",
                share(self.core.sum.saturating_sub(planning)),
            ),
            ("exec.collection", share(self.collection.sum)),
            ("exec.combination", share(self.combination.sum)),
            (
                "exec.start_other",
                share(self.exec_start.sum.saturating_sub(shadow_exec)),
            ),
            ("exec.construction", share(self.construction.sum)),
            ("unattributed", self.unattributed_share()),
        ]
    }

    /// Share of the traced requests' time that no timed step covers.
    pub(crate) fn unattributed_share(&self) -> f64 {
        let attributed = self.snapshot_pin.sum
            + self.parse.sum
            + self.core.sum
            + self.exec_start.sum
            + self.construction.sum;
        let total = self.request.sum.as_secs_f64().max(f64::MIN_POSITIVE);
        (total - attributed.as_secs_f64()) / total
    }
}
