//! `ingest_durable`, and the write probe that ends the read-only workloads.
//!
//! A round starts from a durable base image on `MemFs` and inserts its
//! tuples into `papers` one `Database::insert` at a time.  A prepared read
//! over `papers` runs after every [`READ_EVERY`] inserts (in
//! `ingest_durable` only) and `Database::checkpoint` after every
//! [`CHECKPOINT_EVERY`].  At the end the file system is copied as a crash
//! image while the last inserts are still only in the WAL, and reopened
//! [`RECOVERY_OPENS`] times; each recovered database must hold every
//! acknowledged insert and nothing else.  A final checkpoint then gives
//! the stored size for `space_amp`.
//!
//! Every round of a run inserts the same tuples in the same order, so the
//! read after the `n`-th insert sees the same database in every round and
//! is checked against the oracle only once per run.  The inserts and reads
//! between two checkpoints, and each checkpoint, form a request class (see
//! `stats::Timings`) that recurs in every round.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pascalr::storage::PAGE_SIZE;
use pascalr::{Catalog, Database, FsyncPolicy, HeapOptions, MemFs, Tuple, Value};
use pascalr_workload::{generate, oracle_eval, UniversityConfig};

use crate::check::{catalog_user_bytes, user_bytes, Expect, Rng};
use crate::layers::{checked_read, Layers, Source};
use crate::report::{Measured, Report};
use crate::stats::timed;
use crate::Config;

/// The fsync policy of every durable database here (`MemFs` makes an
/// fsync a no-op, so latencies are not a device's).
pub(crate) const FSYNC: FsyncPolicy = FsyncPolicy::EveryCommit;
/// Inserts between two reads in `ingest_durable`.
const READ_EVERY: usize = 12;
/// Inserts between two checkpoints.  Not 100: the insert after a
/// checkpoint is slower, and with exactly 1% of them the insert p99 would
/// sit on the edge of that cluster and jump between runs.
const CHECKPOINT_EVERY: usize = 200;
/// Reopens of each crash image.
const RECOVERY_OPENS: usize = 10;

/// A `q04`-shaped read over `papers`.  The employee restriction keeps the
/// brute-force oracle cheap; the engine still scans the growing `papers`.
const READ: &str = "early := [<e.ename> OF EACH e IN employees: \
     (e.enr <= 8) AND SOME p IN papers ((p.penr = e.enr) AND (p.pyear < 1976))]";

type Image = BTreeMap<String, Vec<u8>>;

fn options() -> HeapOptions {
    HeapOptions {
        fsync: FSYNC,
        ..HeapOptions::default()
    }
}

fn open(image: &Image) -> Result<(Database, MemFs), String> {
    let fs = MemFs::new();
    fs.restore(image.clone());
    let db = Database::open_on(Arc::new(fs.clone()), options()).map_err(|e| e.to_string())?;
    Ok((db, fs))
}

/// Writes `catalog` as a checkpointed durable database and returns its
/// file image.
fn durable_image(catalog: Catalog) -> Result<Image, String> {
    let (db, fs) = open(&Image::new())?;
    // On a persistent database `mutate` publishes through a full checkpoint.
    db.mutate(move |c| *c = catalog);
    Ok(fs.snapshot())
}

/// Total size of the image's files; `data_only` leaves out the WAL.
fn image_bytes(image: &Image, data_only: bool) -> u64 {
    image
        .iter()
        .filter(|(name, _)| !(data_only && name.ends_with(".log")))
        .map(|(_, bytes)| bytes.len() as u64)
        .sum()
}

/// The tuples of `papers`.
fn papers_of(catalog: &Catalog) -> Result<Vec<Tuple>, String> {
    Ok(catalog
        .relation("papers")
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(_, t)| t.clone())
        .collect())
}

/// What a round needs beyond its image and tuples.
struct Round<'a> {
    image: &'a Image,
    tuples: &'a [Tuple],
    /// Run the ingest read every [`READ_EVERY`] inserts.
    reads: bool,
    /// Oracle results of the reads, by insert count, shared by the rounds
    /// of a run.
    expected: &'a mut HashMap<usize, Expect>,
}

/// Runs one round (see the module docs), adding to `m`, and to `layers`
/// when tracing.
fn round(
    r: Round<'_>,
    m: &mut Measured,
    mut layers: Option<&mut Layers>,
    corrupt: &mut bool,
) -> Result<(), String> {
    let (db, fs) = open(r.image)?;
    let base = db.snapshot();
    let twin = layers
        .is_some()
        .then(|| Database::from_catalog((*base).clone()));
    let mut expected_papers = papers_of(&base)?;
    drop(base);
    let session = db.session();
    let prepared = session.prepare(READ).map_err(|e| e.to_string())?;
    let registry = db.metrics_registry();
    let wal = |name| registry.counter_total(name);
    let (appends0, bytes0, fsyncs0) = (
        wal("pascalr_wal_appends_total"),
        wal("pascalr_wal_bytes_total"),
        wal("pascalr_wal_fsyncs_total"),
    );
    let mut inserted_bytes = 0;
    for (i, tuple) in r.tuples.iter().enumerate() {
        let done = i + 1;
        let class = (i / CHECKPOINT_EVERY) as u32;
        m.attempted += 1;
        let (ok, d) = timed(|| db.insert("papers", tuple.clone()));
        if ok.is_ok() {
            let f = m.gauge.factor();
            m.inserts.push(class, d, f);
            expected_papers.push(tuple.clone());
            inserted_bytes += user_bytes(tuple);
        } else {
            m.failed += 1;
        }
        if let (Some(l), Some(twin)) = (layers.as_deref_mut(), &twin) {
            let (twin_ok, dt) = timed(|| twin.insert("papers", tuple.clone()));
            if ok.is_ok() && twin_ok.is_ok() {
                l.writes.durable_insert.add(d);
                l.writes.twin_insert.add(dt);
            }
        }
        if r.reads && done % READ_EVERY == 0 {
            let expected = &mut *r.expected;
            let want = || match expected.get(&done) {
                Some(want) => Ok(*want),
                None => {
                    let oracle = oracle_eval(prepared.selection(), &db.snapshot())
                        .map_err(|e| e.to_string())?;
                    let want = Expect::of(oracle.tuples());
                    expected.insert(done, want);
                    Ok(want)
                }
            };
            let source = Source::Prepared(&prepared);
            checked_read(
                &db,
                &session,
                &source,
                class,
                want,
                m,
                layers.as_deref_mut(),
                corrupt,
            )?;
        }
        if done % CHECKPOINT_EVERY == 0 {
            checkpoint(&db, &fs, class + 1, m, layers.as_deref_mut());
        }
    }

    // Crash with the inserts since the last checkpoint only in the WAL.
    let crash = fs.snapshot();
    let want = Expect::of(&expected_papers);
    for _ in 0..RECOVERY_OPENS {
        m.attempted += 1;
        let crashed = MemFs::new();
        crashed.restore(crash.clone());
        let (reopened, d) = timed(|| Database::open_on(Arc::new(crashed), options()));
        let good = match reopened {
            Ok(recovered) => {
                let f = m.gauge.factor();
                m.recoveries.push(0, d, f);
                if let Some(l) = layers.as_deref_mut() {
                    let reg = recovered.metrics_registry();
                    l.writes.recoveries += 1;
                    l.writes.replays += reg.counter_total("pascalr_recovery_replays_total");
                    l.writes.pool_hits += reg.counter_total("pascalr_buffer_pool_hits_total");
                    l.writes.pool_misses += reg.counter_total("pascalr_buffer_pool_misses_total");
                }
                papers_of(&recovered.snapshot()).is_ok_and(|p| Expect::of(&p) == want)
            }
            Err(_) => false,
        };
        m.failed += u64::from(!good);
    }

    // The final checkpoint is a class of its own.
    checkpoint(&db, &fs, 0, m, layers.as_deref_mut());
    m.stored_bytes = image_bytes(&fs.snapshot(), false);
    m.user_bytes = catalog_user_bytes(&db.snapshot());
    if let Some(l) = layers {
        let w = &mut l.writes;
        w.inserts += r.tuples.len() as u64;
        w.user_bytes_inserted += inserted_bytes;
        w.wal_appends += wal("pascalr_wal_appends_total") - appends0;
        w.wal_bytes += wal("pascalr_wal_bytes_total") - bytes0;
        w.fsyncs += wal("pascalr_wal_fsyncs_total") - fsyncs0;
        w.pool_hits += registry.counter_total("pascalr_buffer_pool_hits_total");
        w.pool_misses += registry.counter_total("pascalr_buffer_pool_misses_total");
    }
    Ok(())
}

/// One timed checkpoint of request class `class`; when tracing, also the
/// bytes and pages it wrote (read from the file system, outside the
/// measured time).
fn checkpoint(
    db: &Database,
    fs: &MemFs,
    class: u32,
    m: &mut Measured,
    layers: Option<&mut Layers>,
) {
    m.attempted += 1;
    let (ok, d) = timed(|| db.checkpoint());
    if ok.is_ok() {
        let f = m.gauge.factor();
        m.checkpoints.push(class, d, f);
    } else {
        m.failed += 1;
    }
    if let Some(l) = layers {
        let image = fs.snapshot();
        let pages: u64 = image
            .iter()
            .filter(|(name, _)| name.ends_with(".pages"))
            .map(|(_, bytes)| bytes.len() as u64 / PAGE_SIZE as u64)
            .sum();
        l.writes.checkpoints += 1;
        l.writes.checkpoint_pages += pages;
        l.writes.checkpoint_bytes += image_bytes(&image, true);
    }
}

/// Fresh `papers` tuples for the write probe: unique titles, authors drawn
/// from the existing employees, years inside every schema's domain.
fn probe_tuples(catalog: &Catalog, n: usize, seed: u64) -> Result<Vec<Tuple>, String> {
    let authors: Vec<i64> = catalog
        .relation("employees")
        .map_err(|e| e.to_string())?
        .iter()
        .filter_map(|(_, t)| t.get(0).as_int())
        .collect();
    let mut rng = Rng::new(seed);
    Ok((0..n)
        .map(|i| {
            let author = authors[rng.range(0, authors.len() as i64 - 1) as usize];
            Tuple::new(vec![
                Value::int(author),
                Value::int(rng.range(1970, 1977)),
                Value::str(format!("W{seed:x}-{i:05}")),
            ])
        })
        .collect())
}

/// Probe rounds spread over a read-only workload's untraced reads.
const PROBE_ROUNDS: u32 = 16;

/// Runs a read-only workload's phases around its write probe: rounds
/// without reads on a durable copy of `catalog`.  The untraced reads are
/// cut into [`PROBE_ROUNDS`] slices with one probe round after each, so
/// that the write metrics are sampled over the same stretch of time as the
/// reads; with tracing, the traced reads and one traced probe round
/// follow.  `reads(run_for, min_reads, m, layers)` sends reads for at
/// least `run_for` and until `m` holds `min_reads` reads.
pub(crate) fn read_only_phases(
    config: &Config,
    catalog: &Catalog,
    m: &mut Measured,
    mut reads: impl FnMut(Duration, usize, &mut Measured, Option<&mut Layers>) -> Result<(), String>,
) -> Result<Option<Layers>, String> {
    let tuples = probe_tuples(catalog, config.probe_inserts, config.seed)?;
    let image = durable_image(catalog.clone())?;
    let probe = |m: &mut Measured, layers: Option<&mut Layers>| {
        let input = Round {
            image: &image,
            tuples: &tuples,
            reads: false,
            expected: &mut HashMap::new(),
        };
        round(input, m, layers, &mut false)
    };
    let (untraced_for, min_reads) = if config.trace {
        (config.seconds / 3, 0)
    } else {
        (config.seconds, config.min_reads)
    };
    for slice in 1..=PROBE_ROUNDS {
        let reads_by_now = min_reads * slice as usize / PROBE_ROUNDS as usize;
        reads(untraced_for / PROBE_ROUNDS, reads_by_now, m, None)?;
        probe(m, None)?;
    }
    let mut layers = config.trace.then(Layers::default);
    if let Some(l) = layers.as_mut() {
        reads(config.seconds - untraced_for, 0, m, Some(&mut *l))?;
        probe(m, Some(l))?;
    }
    Ok(layers)
}

/// Set-up: the generated catalog without its papers (which become the
/// inserted tuples), analyzed and written as a durable image.
fn setup(config: &Config) -> Result<(Image, Vec<Tuple>), String> {
    let generator = UniversityConfig {
        seed: config.seed,
        ..UniversityConfig::at_scale(config.ingest_scale)
    };
    let mut catalog = generate(&generator).map_err(|e| e.to_string())?;
    let papers = papers_of(&catalog)?;
    pascalr_workload::clear_relation(&mut catalog, "papers").map_err(|e| e.to_string())?;
    let (db, fs) = open(&durable_image(catalog)?)?;
    db.analyze().map_err(|e| e.to_string())?;
    db.session().prepare(READ).map_err(|e| e.to_string())?;
    db.checkpoint().map_err(|e| e.to_string())?;
    Ok((fs.snapshot(), papers))
}

pub(crate) fn run(config: &Config) -> Result<Report, String> {
    let mut m = Measured::default();
    let (image, tuples) = crate::repeat_setup(config, &mut m, || setup(config))?;
    let mut expected = HashMap::new();
    let mut corrupt = config.corrupt_first_result;
    let mut rounds = 0;

    // Untraced rounds; with tracing, a third of the time, for the
    // tracing-overhead baseline.
    let untraced_for = if config.trace {
        config.seconds / 3
    } else {
        config.seconds
    };
    let start = Instant::now();
    while rounds == 0
        || start.elapsed() < untraced_for
        || (!config.trace && m.reads.len() < config.min_reads)
    {
        let input = Round {
            image: &image,
            tuples: &tuples,
            reads: true,
            expected: &mut expected,
        };
        round(input, &mut m, None, &mut corrupt)?;
        rounds += 1;
    }
    let mut layers = None;
    if config.trace {
        let mut l = Layers::default();
        let mut traced = Measured::default();
        let start = Instant::now();
        while l.requests == 0 || start.elapsed() < config.seconds - untraced_for {
            let input = Round {
                image: &image,
                tuples: &tuples,
                reads: true,
                expected: &mut expected,
            };
            round(input, &mut traced, Some(&mut l), &mut false)?;
            rounds += 1;
        }
        m.attempted += traced.attempted;
        m.failed += traced.failed;
        layers = Some(l);
    }
    Ok(Report {
        measured: m,
        layers,
        record: vec![
            ("scale", config.ingest_scale.to_string()),
            ("inserts_per_round", tuples.len().to_string()),
            ("rounds", rounds.to_string()),
            ("read_every", READ_EVERY.to_string()),
            ("checkpoint_every", CHECKPOINT_EVERY.to_string()),
        ],
        notes: Vec::new(),
    })
}
