//! Seeded mutation of SQL text, shared (`#[path]`-included) by the fuzz
//! tests of `qcc-sql` (`parse_select`) and `qcc-federation` (`decompose`):
//! the two functions every never-seen-before statement goes through first.
//! The root `sim_replay_fuzz` test mutates sim replay lines with it too.
//! It may only name `qcc_common` items.
//!
//! The mutator cuts a statement into rough tokens with its own scanner —
//! not the parser's lexer, so it can produce text the lexer rejects — and
//! applies one or two of: token delete, duplicate, swap, literal splice,
//! identifier splice, truncation.

use qcc_common::Pcg32;

/// The forty paper statements (QT1–QT4 × 10 parameters, the text of
/// `qcc_workload::QueryType::sql`) and a dozen hand-written statements that
/// touch several sources and every clause the grammar has.
pub fn seed_statements() -> Vec<String> {
    let mut seeds = Vec::new();
    for i in 0..10 {
        seeds.push(format!(
            "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             WHERE a.sel > {} GROUP BY a.grp",
            2000 + i * 100
        ));
        seeds.push(format!(
            "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
             FROM big_a a JOIN small_s s ON a.grp = s.id \
             WHERE s.bonus > {} GROUP BY s.cat",
            20 + i * 3
        ));
        seeds.push(format!(
            "SELECT d.grp, COUNT(*) AS n, MIN(d.val) AS lo \
             FROM big_d d JOIN big_b b ON b.a_id = d.id \
             WHERE d.sel > {} GROUP BY d.grp",
            9900 + i * 5
        ));
        seeds.push(format!(
            "SELECT COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id \
             JOIN big_c c ON c.b_id = b.id \
             WHERE c.flag = {}",
            100 + i
        ));
    }
    seeds.extend(
        [
            "SELECT * FROM big_a a, small_s s WHERE a.grp = s.id",
            "SELECT DISTINCT s.cat FROM small_s s, big_c c WHERE c.flag = s.id ORDER BY s.cat DESC LIMIT 5",
            "SELECT a.id, a.val * 2 + 1 AS v FROM big_a a WHERE a.sel BETWEEN 10 AND 20 OR NOT a.grp = 3",
            "SELECT s.cat, MAX(a.val) AS hi FROM big_a a JOIN small_s s ON a.grp = s.id \
             GROUP BY s.cat HAVING COUNT(*) > 2 ORDER BY hi",
            "SELECT a.id FROM big_a a WHERE a.grp IN (1, 2, 3) AND a.val IS NOT NULL",
            "SELECT s.cat FROM small_s s WHERE s.cat LIKE 'c%' AND s.bonus NOT BETWEEN 5 AND 50",
            "SELECT COUNT(DISTINCT a.grp) FROM big_a a INNER JOIN big_d d ON d.id = a.id WHERE d.sel < -1",
            "SELECT b.qty, c.flag, s.cat FROM big_b b, big_c c, small_s s \
             WHERE c.b_id = b.id AND s.id = c.flag AND b.qty >= 1.5",
            "SELECT a.grp AS g, SUM(a.val) FROM big_a a GROUP BY a.grp ORDER BY g LIMIT 10;",
            "SELECT id, sel FROM big_d WHERE sel <> 7 AND (val < 0.5 OR val > 99.5)",
            "SELECT a.id FROM big_a a JOIN big_b b ON b.a_id = a.id JOIN big_c c ON c.b_id = b.id \
             JOIN small_s s ON s.id = a.grp WHERE s.cat = 'c1' AND c.flag IS NULL",
            "SELECT AVG(d.val) AS m, MIN(d.sel), MAX(d.sel) FROM big_d d WHERE d.grp NOT IN (4, 5)",
        ]
        .map(str::to_owned),
    );
    seeds
}

/// Literals and identifiers spliced over a token: edge-of-range numbers,
/// unterminated and empty strings, keywords where a name belongs, names no
/// catalog has, and bytes outside ASCII.
const SPLICES: [&str; 24] = [
    "0",
    "-1",
    "1e309",
    "99999999999999999999",
    "1.5.2",
    ".",
    "''",
    "'",
    "'it''s'",
    "NULL",
    "\"",
    "SELECT",
    "FROM",
    "AS",
    "*",
    "(",
    ")",
    ",",
    "nope",
    "a.nope",
    "big_a",
    "é",
    "_",
    "a.",
];

/// `sql` cut into identifier/number runs, quoted strings and single
/// punctuation characters (whitespace dropped).
fn rough_tokens(sql: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        let mut token = String::from(c);
        if c == '\'' {
            for d in chars.by_ref() {
                token.push(d);
                if d == '\'' {
                    break;
                }
            }
        } else if c.is_alphanumeric() || c == '_' {
            while let Some(&d) = chars.peek() {
                if !(d.is_alphanumeric() || d == '_' || d == '.') {
                    break;
                }
                token.push(d);
                chars.next();
            }
        }
        tokens.push(token);
    }
    tokens
}

/// One mutant of a statement drawn from `seeds`.
pub fn mutant(rng: &mut Pcg32, seeds: &[String]) -> String {
    let seed: &String = rng.choose(seeds);
    let mut tokens = rough_tokens(seed);
    for _ in 0..rng.range_u64(1, 3) {
        if tokens.is_empty() {
            break;
        }
        let at = rng.range_u64(0, tokens.len() as u64) as usize;
        match rng.range_u64(0, 6) {
            0 => {
                tokens.remove(at);
            }
            1 => tokens.insert(at, tokens[at].clone()),
            2 => {
                let other = rng.range_u64(0, tokens.len() as u64) as usize;
                tokens.swap(at, other);
            }
            3 => tokens[at] = (*rng.choose(&SPLICES)).to_owned(),
            4 => {
                // A token of another statement: mostly identifiers.
                let donor: &String = rng.choose(seeds);
                let donor = rough_tokens(donor);
                tokens[at] = rng.choose(&donor).clone();
            }
            _ => tokens.truncate(at),
        }
    }
    let mut sql = tokens.join(" ");
    // Sometimes cut mid-token as well (on a character boundary).
    if rng.range_u64(0, 8) == 0 && !sql.is_empty() {
        let cut = rng.range_u64(0, sql.chars().count() as u64) as usize;
        sql = sql.chars().take(cut).collect();
    }
    sql
}
