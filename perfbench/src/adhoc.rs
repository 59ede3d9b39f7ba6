//! `adhoc_text`: the Figure 1 sample instance queried by text at `Auto`
//! through `Session::rows`, the streaming form of `Database::query_with`
//! (parse, plan-cache lookup, planning on a miss, execution).
//!
//! Texts are workload templates with constants drawn from the declared
//! domains, so analysis never folds them to `false`.  [`REPEAT_LAST`] of
//! the requests repeat the previous text verbatim and [`REPEAT_RECENT`]
//! repeat one of the last [`RECENT`] fresh texts: all of them are parsed,
//! and they can be answered from the plan cache.  The rest are fresh draws
//! from about 23 000 distinct texts, far more than the 1024 plans the
//! cache holds, so they miss, plan, and make the cache evict.  A repeat of
//! the previous text always finds its plan (nothing was planned in
//! between), which keeps the hit share, and with it the median, steady;
//! whether a recent text is still cached is up to the cache's eviction.
//! A request's class (see `stats::Timings`) is its template and whether it
//! was fresh, a repeat of the previous text or of a recent one.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use pascalr::{Database, StrategyLevel};
use pascalr_workload::{figure1_sample_database, oracle_eval, query_by_id};

use crate::check::{Expect, Rng};
use crate::layers::{checked_read, Layers, Source};
use crate::report::{Measured, Report};
use crate::stats::{timed, Samples};
use crate::{ingest, repeat_setup, Config};

/// Share of requests that repeat the previous text.
const REPEAT_LAST: f64 = 0.6;
/// Share of requests that repeat one of the [`RECENT`] last fresh texts.
const REPEAT_RECENT: f64 = 0.1;
/// How many recent fresh texts a repeat chooses from.
const RECENT: usize = 32;

/// Query templates over the Figure 1 schema.  `{year}` is drawn from
/// 1900..1999, `{enr}` and `{cnr}` from 1..99, `{status}` and `{level}`
/// from the enum labels.
const TEMPLATES: [&str; 8] = [
    // Example 2.1.
    "enames := [<e.ename> OF EACH e IN employees: (e.estatus = {status}) AND \
     (ALL p IN papers ((p.pyear <> {year}) OR (e.enr <> p.penr)) OR \
     SOME c IN courses ((c.clevel <= {level}) AND \
     SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]",
    // q01.
    "profs := [<e.enr, e.ename> OF EACH e IN employees: \
     (e.estatus = {status}) AND (e.enr <= {enr})]",
    // q03.
    "only := [<e.ename> OF EACH e IN employees: (e.enr <= {enr}) AND \
     ALL p IN papers ((p.penr <> e.enr) OR (p.pyear = {year}))]",
    // q04.
    "early := [<e.ename> OF EACH e IN employees: (e.enr >= {enr}) AND \
     SOME p IN papers ((p.penr = e.enr) AND (p.pyear <= {year}))]",
    // q05.
    "notnewest := [<p.ptitle> OF EACH p IN papers: (p.pyear >= {year}) AND \
     SOME q IN papers (p.pyear < q.pyear)]",
    // q09.
    "mixed := [<e.ename> OF EACH e IN employees: (e.estatus = {status}) OR \
     SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = {cnr}))]",
    // q11.
    "teaches := [<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses: \
     (e.estatus = {status}) AND (c.cnr >= {cnr}) AND \
     SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr))]",
    // q12.
    "covers := [<e.ename> OF EACH e IN employees: (e.enr <= {enr}) AND \
     ALL c IN [EACH c IN courses: c.clevel <= {level}] \
     SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr))]",
];

const STATUS: [&str; 4] = ["student", "technician", "assistant", "professor"];
const LEVEL: [&str; 4] = ["freshman", "sophomore", "junior", "senior"];

/// A text with the index of its template.
type Text = (String, usize);

/// The seeded request stream.
struct Texts {
    rng: Rng,
    last: Option<Text>,
    recent: VecDeque<Text>,
}

/// How a request's text was chosen; with the template, its request class.
#[derive(Clone, Copy)]
enum Kind {
    Fresh,
    RepeatLast,
    RepeatRecent,
}

impl Texts {
    fn fresh(&mut self) -> Text {
        let rng = &mut self.rng;
        let t = rng.range(0, TEMPLATES.len() as i64 - 1) as usize;
        let status = STATUS[rng.range(0, 3) as usize];
        let level = LEVEL[rng.range(0, 3) as usize];
        let text = TEMPLATES[t]
            .replace("{year}", &rng.range(1900, 1999).to_string())
            .replace("{enr}", &rng.range(1, 99).to_string())
            .replace("{cnr}", &rng.range(1, 99).to_string())
            .replace("{status}", status)
            .replace("{level}", level);
        (text, t)
    }

    /// The next text and its request class (template and [`Kind`]).
    fn next(&mut self) -> (String, u32) {
        let draw = self.rng.unit();
        let (text, kind) = match &self.last {
            Some(last) if draw < REPEAT_LAST => (last.clone(), Kind::RepeatLast),
            _ if !self.recent.is_empty() && draw < REPEAT_LAST + REPEAT_RECENT => {
                let i = self.rng.range(0, self.recent.len() as i64 - 1) as usize;
                (self.recent[i].clone(), Kind::RepeatRecent)
            }
            _ => {
                let text = self.fresh();
                if self.recent.len() == RECENT {
                    self.recent.pop_front();
                }
                self.recent.push_back(text.clone());
                (text, Kind::Fresh)
            }
        };
        self.last = Some(text.clone());
        let (text, t) = text;
        (text, t as u32 * 3 + kind as u32)
    }
}

fn setup() -> Result<Database, String> {
    let db = Database::from_catalog(figure1_sample_database().map_err(|e| e.to_string())?);
    db.analyze().map_err(|e| e.to_string())?;
    Ok(db)
}

/// Sends texts until `run_for` has passed (and, untraced, until
/// `min_reads` reads were measured).  Each distinct text is checked
/// against the oracle once.
#[allow(clippy::too_many_arguments)]
fn drive(
    db: &Database,
    texts: &mut Texts,
    expected: &mut HashMap<String, Expect>,
    run_for: Duration,
    min_reads: usize,
    m: &mut Measured,
    mut layers: Option<&mut Layers>,
    corrupt: &mut bool,
) -> Result<(), String> {
    let session = db.session();
    let start = Instant::now();
    while start.elapsed() < run_for || m.reads.len() < min_reads {
        let (text, class) = texts.next();
        let want = || match expected.get(&text) {
            Some(want) => Ok(*want),
            None => {
                let snapshot = db.snapshot();
                let selection = pascalr::parser::parse_selection(&text, &snapshot)
                    .map_err(|e| format!("{e} in {text}"))?;
                let oracle = oracle_eval(&selection, &snapshot).map_err(|e| e.to_string())?;
                let want = Expect::of(oracle.tuples());
                expected.insert(text.clone(), want);
                Ok(want)
            }
        };
        checked_read(
            db,
            &session,
            &Source::Text(&text),
            class,
            want,
            m,
            layers.as_deref_mut(),
            corrupt,
        )?;
    }
    Ok(())
}

/// Planning time of Example 2.1 at Strategy 4 on the Figure 1 instance,
/// the number the replan question of the roadmap compares against.
fn ex21_s4_plan_us(db: &Database) -> Result<f64, String> {
    let spec = query_by_id("ex2.1").ok_or("ex2.1 is in the workload")?;
    let snapshot = db.snapshot();
    let selection = spec.parse(&snapshot).map_err(|e| e.to_string())?;
    let mut samples = Samples::default();
    for _ in 0..2000 {
        let (_, d) = timed(|| {
            pascalr::planner::plan(
                &selection,
                &snapshot,
                StrategyLevel::S4CollectionQuantifiers,
                db.plan_options(),
            )
        });
        samples.push(d);
    }
    Ok(samples.median())
}

pub(crate) fn run(config: &Config) -> Result<Report, String> {
    let mut m = Measured::default();
    let db = repeat_setup(config, &mut m, setup)?;
    let mut texts = Texts {
        rng: Rng::new(config.seed),
        last: None,
        recent: VecDeque::new(),
    };
    let mut expected = HashMap::new();
    let mut corrupt = config.corrupt_first_result;
    let layers = ingest::read_only_phases(
        config,
        &db.snapshot(),
        &mut m,
        |run_for, min_reads, m, layers| {
            drive(
                &db,
                &mut texts,
                &mut expected,
                run_for,
                min_reads,
                m,
                layers,
                &mut corrupt,
            )
        },
    )?;
    let mut notes = Vec::new();
    if config.trace {
        notes.push(format!(
            "planner.plan_us for ex2.1 at S4 (median of 2000 plans): {:.1}",
            ex21_s4_plan_us(&db)?
        ));
    }
    let distinct = expected.len();
    let cache = db.plan_cache_stats();
    Ok(Report {
        measured: m,
        layers,
        record: vec![
            ("instance", "figure1_sample".to_string()),
            ("repeat_last", REPEAT_LAST.to_string()),
            ("repeat_recent", REPEAT_RECENT.to_string()),
            ("distinct_texts", distinct.to_string()),
            ("plan_cache_hits", cache.hits.to_string()),
            ("plan_cache_misses", cache.misses.to_string()),
            ("plan_cache_evictions", cache.evictions.to_string()),
            ("probe_inserts", config.probe_inserts.to_string()),
        ],
        notes,
    })
}
