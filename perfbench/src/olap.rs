//! `olap_mix`: the generated university database at scale 24 after
//! ANALYZE; all 16 workload queries are prepared once at `Auto` and
//! drained through `PreparedQuery::rows`, each round in a seeded order, so
//! the mix is uniform over query shapes.  Each query is its own request
//! class (see `stats::Timings`).
//!
//! The database is the generator's default-seed instance, the repository's
//! standard bench database, whatever `--seed` is: on it `q09` finds its
//! Strategy 3 extended range empty and falls back to Strategy 2, which
//! dominates throughput and the tail.  `--seed` sets the request order and
//! the write probe's tuples.

use std::time::{Duration, Instant};

use pascalr::{Database, PreparedQuery};
use pascalr_workload::{all_queries, generate, oracle_eval, UniversityConfig};

use crate::check::{catalog_digest, Expect, Rng};
use crate::layers::{checked_read, Layers, Source};
use crate::report::{Measured, Report};
use crate::{ingest, repeat_setup, Config};

/// Catalog digest of the database [`RECORDED`] belongs to: scale 24 at the
/// generator's default seed.
const RECORDED_DIGEST: u64 = 0x2198_0118_f09b_790e;

/// `(id, rows, digest)` of every query on that database, computed with
/// `pascalr_workload::oracle_eval`, which takes minutes there.  The ignored
/// test `recorded_results_match_the_oracle` recomputes them.  On any other
/// database the oracle runs at start-up instead.
const RECORDED: [(&str, usize, u64); 16] = [
    ("ex2.1", 197, 0x4ad5cff64af299aa),
    ("ex3.2", 421, 0x936f818200cf5768),
    ("ex4.5", 197, 0x4ad5cff64af299aa),
    ("ex4.7", 197, 0x4ad5cff64af299aa),
    ("q01", 234, 0x8d4e7b28215655f),
    ("q02", 456, 0x7669efe9b85a0898),
    ("q03", 196, 0x23c5625432873693),
    ("q04", 347, 0xd24c4dc8fa726cd3),
    ("q05", 609, 0x1c5557f774892999),
    ("q06", 83, 0x5c03a3e7984056d6),
    ("q07", 0, 0x0),
    ("q08", 576, 0x8693984a837583a0),
    ("q09", 234, 0xc59f44c250df2371),
    ("q10", 549, 0x8bfea3a8a57eafa3),
    ("q11", 353, 0x804e356bbdcd175d),
    ("q12", 0, 0x0),
];

type Queries = Vec<(&'static str, PreparedQuery)>;

fn setup(config: &Config) -> Result<(Database, Queries), String> {
    let catalog =
        generate(&UniversityConfig::at_scale(config.olap_scale)).map_err(|e| e.to_string())?;
    let db = Database::from_catalog(catalog);
    db.analyze().map_err(|e| e.to_string())?;
    let session = db.session();
    let queries = all_queries()
        .into_iter()
        .map(|q| Ok((q.id, session.prepare(q.text).map_err(|e| e.to_string())?)))
        .collect::<Result<Queries, String>>()?;
    Ok((db, queries))
}

/// What every query must return on `db`.
fn expectations(db: &Database, queries: &Queries) -> Result<Vec<Expect>, String> {
    let snapshot = db.snapshot();
    let recorded = catalog_digest(&snapshot) == RECORDED_DIGEST;
    queries
        .iter()
        .map(|(id, q)| {
            let known = RECORDED
                .iter()
                .find(|(rid, _, _)| recorded && rid == id)
                .map(|&(_, rows, hash)| Expect { rows, hash });
            match known {
                Some(want) => Ok(want),
                None => oracle_eval(q.selection(), &snapshot)
                    .map(|r| Expect::of(r.tuples()))
                    .map_err(|e| e.to_string()),
            }
        })
        .collect()
}

/// Drains rounds of all queries in seeded order until `run_for` has passed
/// (and, untraced, until `min_reads` reads were measured).
#[allow(clippy::too_many_arguments)]
fn drive(
    db: &Database,
    queries: &Queries,
    expected: &[Expect],
    rng: &mut Rng,
    run_for: Duration,
    min_reads: usize,
    m: &mut Measured,
    mut layers: Option<&mut Layers>,
    corrupt: &mut bool,
) -> Result<(), String> {
    let session = db.session();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            let source = Source::Prepared(&queries[i].1);
            checked_read(
                db,
                &session,
                &source,
                i as u32,
                || Ok(expected[i]),
                m,
                layers.as_deref_mut(),
                corrupt,
            )?;
        }
        if start.elapsed() >= run_for && m.reads.len() >= min_reads {
            break;
        }
    }
    Ok(())
}

pub(crate) fn run(config: &Config) -> Result<Report, String> {
    let mut m = Measured::default();
    let (db, queries) = repeat_setup(config, &mut m, || setup(config))?;
    let expected = expectations(&db, &queries)?;
    let mut rng = Rng::new(config.seed);
    let mut corrupt = config.corrupt_first_result;
    let layers = ingest::read_only_phases(
        config,
        &db.snapshot(),
        &mut m,
        |run_for, min_reads, m, layers| {
            drive(
                &db,
                &queries,
                &expected,
                &mut rng,
                run_for,
                min_reads,
                m,
                layers,
                &mut corrupt,
            )
        },
    )?;
    Ok(Report {
        measured: m,
        layers,
        record: vec![
            ("scale", config.olap_scale.to_string()),
            ("queries", queries.len().to_string()),
            ("probe_inserts", config.probe_inserts.to_string()),
        ],
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recomputes [`RECORDED`] with the oracle (minutes in a release
    /// build): `cargo test --release -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn recorded_results_match_the_oracle() {
        let config = Config {
            olap_scale: 24,
            ..Config::tiny(false)
        };
        let (db, queries) = setup(&config).unwrap();
        println!(
            "const RECORDED_DIGEST: u64 = {:#x};",
            catalog_digest(&db.snapshot())
        );
        let snapshot = db.snapshot();
        let mut fresh = Vec::new();
        for (id, q) in &queries {
            let want = Expect::of(oracle_eval(q.selection(), &snapshot).unwrap().tuples());
            println!("    (\"{id}\", {}, {:#x}),", want.rows, want.hash);
            fresh.push(want);
        }
        assert_eq!(catalog_digest(&snapshot), RECORDED_DIGEST);
        assert_eq!(expectations(&db, &queries).unwrap(), fresh);
    }
}
