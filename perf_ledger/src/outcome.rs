//! What one statement produced, reduced to something two strategies can
//! be compared on: a row count plus an order-insensitive digest, or the
//! class of the typed error it raised.

use bypass_core::{Error, Relation, Value};

/// The checked outcome of one statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    Rows { rows: usize, digest: u64 },
    Error(String),
}

impl Outcome {
    pub fn of(result: &Result<Relation, Error>) -> Outcome {
        match result {
            Ok(rel) => Outcome::Rows {
                rows: rel.len(),
                digest: digest(rel),
            },
            Err(e) => Outcome::Error(error_class(e)),
        }
    }

    pub fn render(&self) -> String {
        match self {
            Outcome::Rows { rows, digest } => format!("{rows} rows, digest {digest:016x}"),
            Outcome::Error(class) => format!("error {class}"),
        }
    }
}

/// The variant name of a typed engine error (`Plan`,
/// `StatementTooLarge`, ...): the class an expected error must match.
pub fn error_class(e: &Error) -> String {
    let debug = format!("{e:?}");
    debug
        .split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: spreads a row hash before it is summed, so the
/// sum does not cancel structured differences between rows.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Round to 12 significant digits: strategies sum in different orders,
/// and the last bits of a sum of decimal prices differ while the
/// rounded value does not.
fn round_float(f: f64) -> f64 {
    format!("{f:.11e}").parse().unwrap_or(f)
}

fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv(h, &[0]),
        Value::Int(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
        Value::Float(f) => {
            let r = round_float(*f);
            // Integral floats compare equal to integers in the engine,
            // so they hash as integers.
            if r.fract() == 0.0 && r.abs() < 9.0e15 {
                fnv(fnv(h, &[1]), &(r as i64).to_le_bytes())
            } else {
                fnv(fnv(h, &[2]), &r.to_le_bytes())
            }
        }
        Value::Text(s) => fnv(
            fnv(fnv(h, &[3]), &(s.len() as u64).to_le_bytes()),
            s.as_bytes(),
        ),
        Value::Bool(b) => fnv(h, &[4, *b as u8]),
    }
}

/// Order-insensitive digest of a relation's rows: the wrapping sum of
/// one mixed hash per row. Permuting rows leaves it unchanged; adding,
/// dropping or duplicating a row changes it.
pub fn digest(rel: &Relation) -> u64 {
    rel.rows().iter().fold(0u64, |acc, row| {
        let h = row.values().iter().fold(FNV_OFFSET, hash_value);
        acc.wrapping_add(mix(h))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_core::{DataType, Field, Schema, Tuple};

    fn rel(rows: &[(i64, &str)]) -> Relation {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("t", DataType::Text),
        ]);
        let rows = rows
            .iter()
            .map(|&(k, t)| Tuple::new(vec![Value::Int(k), Value::text(t)]))
            .collect();
        Relation::new(schema, rows)
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = rel(&[(1, "x"), (2, "y"), (3, "z")]);
        let b = rel(&[(3, "z"), (1, "x"), (2, "y")]);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn digest_sees_content_and_multiplicity() {
        let a = rel(&[(1, "x"), (2, "y")]);
        assert_ne!(digest(&a), digest(&rel(&[(1, "x"), (2, "z")])));
        assert_ne!(digest(&a), digest(&rel(&[(1, "x"), (2, "y"), (2, "y")])));
        // An extra row changes it, even one of zero values.
        assert_ne!(
            digest(&rel(&[(1, "x")])),
            digest(&rel(&[(1, "x"), (0, "")]))
        );
    }

    #[test]
    fn integral_floats_digest_like_integers() {
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]);
        let f = Relation::new(schema.clone(), vec![Tuple::new(vec![Value::Float(3.0)])]);
        let i = Relation::new(schema, vec![Tuple::new(vec![Value::Int(3)])]);
        assert_eq!(digest(&f), digest(&i));
    }

    #[test]
    fn float_sums_digest_independently_of_summation_order() {
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]);
        let one = |v: f64| Relation::new(schema.clone(), vec![Tuple::new(vec![Value::Float(v)])]);
        // Two strategies' sums of the same decimal prices.
        assert_eq!(
            digest(&one(3284271.0700000003)),
            digest(&one(3284271.0699999994))
        );
        let (above, below) = (12345678.45_f64 + 4e-9, 12345678.45_f64 - 4e-9);
        assert_ne!(above, below);
        assert_eq!(digest(&one(above)), digest(&one(below)));
        assert_ne!(digest(&one(12345678.45)), digest(&one(12345678.46)));
        // A sum that lands a few ulps off an integer still digests as
        // that integer.
        assert_eq!(digest(&one(5403031.0)), digest(&one(5403030.999999999)));
    }

    #[test]
    fn errors_classify_by_variant() {
        assert_eq!(error_class(&Error::plan("unknown column a9")), "Plan");
        assert_eq!(
            error_class(&Error::StatementTooLarge {
                bytes: 10,
                limit: 5
            }),
            "StatementTooLarge"
        );
        assert_eq!(error_class(&Error::Cancelled), "Cancelled");
        assert_eq!(
            Outcome::of(&Err(Error::execution("boom"))),
            Outcome::Error("Execution".into())
        );
    }
}
