//! # frdb — finitely representable databases
//!
//! Umbrella crate for the workspace implementing Grumbach & Su, *Finitely
//! Representable Databases* (PODS 1994 / JCSS 1997): a constraint-database engine over
//! the ordered rationals with first-order and inflationary `DATALOG¬` query languages,
//! the paper's query catalog, Ehrenfeucht–Fraïssé games, and the executable pieces of
//! its model theory.
//!
//! See the individual crates for details:
//!
//! * [`core`] (re-export of `frdb-core`) — logic, dense-order constraints,
//!   generalized relations, FO evaluation, normal forms, encodings, genericity.
//! * [`datalog`] — inflationary `DATALOG¬` (Section 6).
//! * [`linear`] — `FO(≤,+)` with Fourier–Motzkin elimination (Section 7).
//! * [`poly`] — univariate real polynomial constraints (Proposition 2.9).
//! * [`games`] — Ehrenfeucht–Fraïssé games (Section 5).
//! * [`queries`] — the query catalog of Fig. 8 and the reductions of Figs. 3–6.
//! * [`modeltheory`] — compactness failure, the Theorem 3.4 reduction, σ_B.
//! * [`lang`] — the surface language: parser + printers for schemas,
//!   instances, FO queries and `DATALOG¬` programs (`.frdb` scripts, run by
//!   the `frdb-cli` binary).
//! * [`db`] — the embeddable concurrent database engine: a shared
//!   [`Database`](db::Database) handle with atomic snapshot reads, a
//!   copy-on-write commit path, and plan sharing through the process-wide
//!   plan cache.
//!
//! ```
//! use frdb::prelude::*;
//!
//! // The rectangle of Example 2.5, queried with the relational calculus.
//! let mut inst: Instance<DenseOrder> = Instance::new(Schema::from_pairs([("R", 2)]));
//! inst.set(
//!     "R",
//!     Relation::new(
//!         vec![Var::new("x"), Var::new("y")],
//!         vec![GenTuple::new(vec![
//!             DenseAtom::le(Term::cst(0), Term::var("x")),
//!             DenseAtom::le(Term::var("x"), Term::cst(4)),
//!             DenseAtom::le(Term::cst(0), Term::var("y")),
//!             DenseAtom::le(Term::var("y"), Term::cst(3)),
//!         ])],
//!     ),
//! )
//! .unwrap();
//! let q: Formula<DenseAtom> = Formula::exists(["y"], Formula::rel("R", [Term::var("x"), Term::var("y")]));
//! let shadow = eval_query(&q, &[Var::new("x")], &inst).unwrap();
//! assert!(shadow.contains(&[Rat::from_i64(2)]));
//! assert!(!shadow.contains(&[Rat::from_i64(5)]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use frdb_core as core;
pub use frdb_datalog as datalog;
pub use frdb_db as db;
pub use frdb_games as games;
pub use frdb_lang as lang;
pub use frdb_linear as linear;
pub use frdb_modeltheory as modeltheory;
pub use frdb_num as num;
pub use frdb_poly as poly;
pub use frdb_queries as queries;

/// The most frequently used types and functions, re-exported for convenience.
pub mod prelude {
    pub use frdb_core::dense::{CmpOp, DenseAtom, DenseOrder};
    pub use frdb_core::encode::{database_size, encode_instance, EncodeError};
    pub use frdb_core::fo::{compile_query, eval_query, eval_sentence, CompiledQuery, EvalError};
    pub use frdb_core::generic::Automorphism;
    pub use frdb_core::logic::{Formula, Term, Var};
    pub use frdb_core::relation::{GenTuple, Instance, Relation};
    pub use frdb_core::schema::{RelName, Schema, SchemaError};
    pub use frdb_core::theory::{Atom, Theory};
    pub use frdb_datalog::{Literal, Program, Rule};
    pub use frdb_db::{Database, DbConfig, DbError, Snapshot};
    pub use frdb_lang::{
        parse_formula, parse_gen_tuple, parse_program, parse_relation, parse_rule, parse_script,
        AtomSyntax, ParseError, Script, Stmt, TheoryKind,
    };
    pub use frdb_num::{BigInt, Rat};
}
