//! The screened containment kernel against point semantics.
//!
//! `Relation::covers_tuple`, `subset_of` and `difference` decide containment
//! symbolically: an entailment fast path, then a compatibility screen that
//! negates only the stored tuples that can meet the candidate.  This suite
//! checks them on random sets of 1- and 2-column dense-order boxes against an
//! oracle that shares nothing with that kernel: `GenTuple::eval` at the points
//! of a rational grid.  Box endpoints are integers in `0..=4`, so the grid of
//! every endpoint, every midpoint and one point beyond each end meets every
//! cell of the boxes' arrangement, and agreement on the grid is agreement
//! everywhere.  Endpoints drawn from so small a range make touching boxes
//! common, and each end is open or closed at random: those are the cases
//! where an unsound screen (one that called two boxes sharing a closed
//! endpoint disjoint) would drop points.

use frdb_core::dense::{DenseAtom, DenseOrder};
use frdb_core::logic::{Term, Var};
use frdb_core::relation::{GenTuple, Relation};
use frdb_num::{BigInt, Rat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Rel = Relation<DenseOrder>;

const COLUMNS: [&str; 2] = ["x", "y"];

/// One side of a box column: `None` is unbounded, `Some((c, strict))` is the
/// bound `c` (excluded when `strict`).
type Side = Option<(i64, bool)>;

/// A box as its per-column `(lower, upper)` sides.
#[derive(Clone, Debug)]
struct Boxed(Vec<(Side, Side)>);

impl Boxed {
    fn tuple(&self) -> GenTuple<DenseAtom> {
        let mut atoms = Vec::new();
        for ((lo, hi), col) in self.0.iter().zip(COLUMNS) {
            if let Some((c, strict)) = *lo {
                atoms.push(if strict {
                    DenseAtom::lt(Term::cst(c), Term::var(col))
                } else {
                    DenseAtom::le(Term::cst(c), Term::var(col))
                });
            }
            if let Some((c, strict)) = *hi {
                atoms.push(if strict {
                    DenseAtom::lt(Term::var(col), Term::cst(c))
                } else {
                    DenseAtom::le(Term::var(col), Term::cst(c))
                });
            }
        }
        GenTuple::new(atoms)
    }
}

fn side(rng: &mut StdRng, c: i64) -> Side {
    // Mostly bounded; now and then open-ended, so boxes can also nest in
    // half-lines and stay unbounded through a difference.
    if rng.gen_range(0..8) == 0 {
        None
    } else {
        Some((c, rng.gen_bool(0.5)))
    }
}

/// A random box: each column's endpoints in `0..=4`, each end open or closed.
/// Equal endpoints give points (closed) or empty boxes (open) — both kept, so
/// the kernel also sees unsatisfiable candidates.
fn random_box(rng: &mut StdRng, arity: usize) -> Boxed {
    Boxed(
        (0..arity)
            .map(|_| {
                let lo = rng.gen_range(0..=4i64);
                let hi = rng.gen_range(lo..=4i64);
                (side(rng, lo), side(rng, hi))
            })
            .collect(),
    )
}

/// A box built from `other` so that the two touch: it starts on the column
/// where `other` ends (or ends where it starts), sharing that endpoint with
/// a random strictness on each side.
fn touching_box(rng: &mut StdRng, other: &Boxed) -> Boxed {
    let mut cols = other.0.clone();
    let col = rng.gen_range(0..cols.len());
    let (lo, hi) = cols[col];
    cols[col] = match (lo, hi) {
        (Some((c, _)), _) if hi.is_none() || rng.gen_bool(0.5) => {
            (side(rng, (c - 2).max(0)), Some((c, rng.gen_bool(0.5))))
        }
        (_, Some((c, _))) => (Some((c, rng.gen_bool(0.5))), side(rng, (c + 2).min(4))),
        _ => (Some((2, rng.gen_bool(0.5))), None),
    };
    Boxed(cols)
}

fn random_boxes(rng: &mut StdRng, arity: usize, n: usize) -> Vec<Boxed> {
    let mut out: Vec<Boxed> = Vec::with_capacity(n);
    for _ in 0..n {
        let next = match out.len() {
            0 => random_box(rng, arity),
            len if rng.gen_bool(0.4) => {
                let k = rng.gen_range(0..len);
                touching_box(rng, &out[k])
            }
            _ => random_box(rng, arity),
        };
        out.push(next);
    }
    out
}

/// Whether one box ends, on some column, exactly where the other starts.
fn touch(a: &Boxed, b: &Boxed) -> bool {
    let ends_at = |hi: &Side, lo: &Side| matches!((hi, lo), (Some((h, _)), Some((l, _))) if h == l);
    a.0.iter()
        .zip(&b.0)
        .any(|((alo, ahi), (blo, bhi))| ends_at(ahi, blo) || ends_at(bhi, alo))
}

/// Every endpoint, every midpoint, and one point outside the range on each
/// side, in each column.
fn grid(arity: usize) -> Vec<Vec<Rat>> {
    let line: Vec<Rat> = (-2..=10)
        .map(|k| Rat::new(BigInt::from(k), BigInt::from(2)))
        .collect();
    let mut points: Vec<Vec<Rat>> = vec![Vec::new()];
    for _ in 0..arity {
        points = points
            .into_iter()
            .flat_map(|p| {
                line.iter().map(move |c| {
                    let mut q = p.clone();
                    q.push(c.clone());
                    q
                })
            })
            .collect();
    }
    points
}

fn holds(tuple: &GenTuple<DenseAtom>, point: &[Rat]) -> bool {
    tuple.eval(&|v: &Var| {
        let col = COLUMNS
            .iter()
            .position(|c| Var::new(c) == *v)
            .expect("box columns are x and y");
        point[col].clone()
    })
}

fn member(tuples: &[GenTuple<DenseAtom>], point: &[Rat]) -> bool {
    tuples.iter().any(|t| holds(t, point))
}

fn columns(arity: usize) -> Vec<Var> {
    COLUMNS[..arity].iter().map(Var::new).collect()
}

#[test]
fn screened_kernel_agrees_with_point_membership() {
    let mut rng = StdRng::seed_from_u64(0x5c2e_e4ed);
    let mut touching_pairs = 0usize;
    for case in 0..400 {
        let arity = 1 + case % 2;
        let vars = columns(arity);
        let points = grid(arity);
        let n_left: usize = rng.gen_range(1..=3);
        let n_right: usize = rng.gen_range(1..=5);
        // Drawn as one list so the touching boxes cross the two sides too.
        let boxes = random_boxes(&mut rng, arity, n_left + n_right);
        let (left_boxes, right_boxes) = boxes.split_at(n_left);
        touching_pairs += left_boxes
            .iter()
            .flat_map(|l| right_boxes.iter().map(move |r| (l, r)))
            .filter(|(l, r)| touch(l, r))
            .count();
        let left: Vec<GenTuple<DenseAtom>> = left_boxes.iter().map(Boxed::tuple).collect();
        let right: Vec<GenTuple<DenseAtom>> = right_boxes.iter().map(Boxed::tuple).collect();
        let a = Rel::new(vars.clone(), left.clone());
        let b = Rel::new(vars.clone(), right.clone());

        for cand in &left {
            let expected = points.iter().all(|p| !holds(cand, p) || member(&right, p));
            assert_eq!(
                b.covers_tuple(cand),
                expected,
                "covers_tuple: {cand} in {b}"
            );
        }
        let expected_subset = points
            .iter()
            .all(|p| !member(&left, p) || member(&right, p));
        assert_eq!(a.subset_of(&b), expected_subset, "subset_of: {a} in {b}");
        let diff = a.difference(&b);
        for p in &points {
            assert_eq!(
                member(diff.tuples(), p),
                member(&left, p) && !member(&right, p),
                "difference {a} \\ {b} at {p:?}: got {diff}"
            );
        }
    }
    assert!(
        touching_pairs > 50,
        "only {touching_pairs} touching pairs generated"
    );
}

/// Hand-picked boundary cases: closed against closed, open against closed,
/// open against open at one shared endpoint, in one and two columns.
#[test]
fn touching_endpoints_respect_strictness() {
    let x = |lo: i64, lo_strict: bool, hi: i64, hi_strict: bool| {
        Boxed(vec![(Some((lo, lo_strict)), Some((hi, hi_strict)))])
    };
    let xy = |bx: Boxed, lo: i64, hi: i64| {
        let mut cols = bx.0;
        cols.push((Some((lo, false)), Some((hi, false))));
        Boxed(cols)
    };
    // [0,1] ∪ [1,2] covers [0,2]; [0,1) ∪ (1,2] misses the point 1.
    let cases: Vec<(Vec<Boxed>, Boxed, bool)> = vec![
        (
            vec![x(0, false, 1, false), x(1, false, 2, false)],
            x(0, false, 2, false),
            true,
        ),
        (
            vec![x(0, false, 1, true), x(1, false, 2, false)],
            x(0, false, 2, false),
            true,
        ),
        (
            vec![x(0, false, 1, false), x(1, true, 2, false)],
            x(0, false, 2, false),
            true,
        ),
        (
            vec![x(0, false, 1, true), x(1, true, 2, false)],
            x(0, false, 2, false),
            false,
        ),
        (
            vec![x(0, false, 1, true), x(1, true, 2, false)],
            x(0, true, 2, true),
            false,
        ),
        (vec![x(0, false, 1, true)], x(1, false, 1, false), false),
        (vec![x(0, false, 1, false)], x(1, false, 1, false), true),
        (
            vec![
                xy(x(0, false, 1, false), 0, 2),
                xy(x(1, true, 2, false), 0, 2),
            ],
            xy(x(0, false, 2, false), 0, 2),
            true,
        ),
        (
            vec![
                xy(x(0, false, 1, true), 0, 2),
                xy(x(1, true, 2, false), 0, 2),
            ],
            xy(x(0, false, 2, false), 1, 1),
            false,
        ),
    ];
    for (stored, cand, covered) in cases {
        let arity = cand.0.len();
        let stored: Vec<GenTuple<DenseAtom>> = stored.iter().map(Boxed::tuple).collect();
        let rel = Rel::new(columns(arity), stored.clone());
        let cand = cand.tuple();
        let oracle = grid(arity)
            .iter()
            .all(|p| !holds(&cand, p) || member(&stored, p));
        assert_eq!(
            oracle, covered,
            "oracle disagrees with the case table: {cand}"
        );
        assert_eq!(
            rel.covers_tuple(&cand),
            covered,
            "covers_tuple: {cand} in {rel}"
        );
        let single = Rel::new(columns(arity), vec![cand.clone()]);
        assert_eq!(
            single.subset_of(&rel),
            covered,
            "subset_of: {cand} in {rel}"
        );
        assert_eq!(
            single.difference(&rel).is_empty(),
            covered,
            "difference: {cand} \\ {rel}"
        );
    }
}
