//! Seeded property tests of the condition expression language: the
//! parser never panics on arbitrary input, `parse ∘ display` is the
//! identity on well-formed syntax trees, and the one-pass compiler
//! accepts and rejects exactly what the two-pass front end in
//! `two_pass/` did, with the same errors and the same registrations.

mod two_pass;

use rcm_core::condition::expr::{parse, AggOp, BinOp, CompiledCondition, Expr, Field, UnOp};
use rcm_core::condition::{Condition, ConditionExt};
use rcm_core::VarRegistry;
use rcm_net::{cases, Rng};

/// A scalar value that is not a control character, so never a newline:
/// the regex class `\PC`. ASCII half the time.
fn printable(rng: &mut Rng) -> char {
    let end = if rng.below(2) == 0 { 0x80 } else { 0x3_0000 };
    loop {
        match char::from_u32(rng.below(end) as u32) {
            Some(c) if !c.is_control() => return c,
            _ => {}
        }
    }
}

fn var(rng: &mut Rng) -> String {
    rng.pick(&["a", "b"]).to_string()
}

/// A random well-formed expression tree over variables `a`/`b`, at
/// most `depth` operators deep.
fn expr(rng: &mut Rng, depth: usize) -> Expr<String> {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(5) {
            0 => Expr::Num(rng.below(1000) as f64),
            1 => Expr::Bool(rng.below(2) == 1),
            2 => Expr::Term {
                var: var(rng),
                index: -(rng.below(4) as i64),
                field: *rng.pick(&[Field::Value, Field::Seqno]),
            },
            3 => Expr::Consecutive(var(rng)),
            _ => Expr::Agg {
                op: *rng.pick(&[AggOp::Min, AggOp::Max, AggOp::Avg, AggOp::Sum]),
                var: var(rng),
                window: 1 + rng.below(4) as u64,
            },
        };
    }
    let shape = rng.below(5);
    let mut inner = || Box::new(expr(rng, depth - 1));
    match shape {
        0 => {
            let (lhs, rhs) = (inner(), inner());
            let op = *rng.pick(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::And,
                BinOp::Or,
            ]);
            Expr::Binary { op, lhs, rhs }
        }
        1 => Expr::Unary { op: UnOp::Not, expr: inner() },
        2 => Expr::Unary { op: UnOp::Neg, expr: inner() },
        3 => Expr::Abs(inner()),
        _ => Expr::Min(inner(), inner()),
    }
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    cases("parser_never_panics_on_arbitrary_input", 512, 80, |rng, size| {
        let input: String = (0..rng.below(size + 1)).map(|_| printable(rng)).collect();
        let _ = parse(&input); // must return Ok or Err, never panic
    });
}

#[test]
fn parser_never_panics_on_almost_valid_input() {
    const POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789[].()<>=!&| +*/-";
    cases("parser_never_panics_on_almost_valid_input", 512, 60, |rng, size| {
        let input: String = (0..rng.below(size + 1)).map(|_| char::from(*rng.pick(POOL))).collect();
        let _ = parse(&input);
    });
}

/// Display prints fully parenthesized canonical syntax; parsing it back
/// must reproduce the tree exactly. (Type errors don't matter here —
/// this exercises the grammar, not the checker.)
fn assert_roundtrips(ast: Expr<String>) {
    let printed = ast.to_string();
    let reparsed = parse(&printed)
        .unwrap_or_else(|e| panic!("canonical form failed to parse: {printed} ({e})"));
    assert_eq!(reparsed, ast, "roundtrip diverged for {printed}");
}

#[test]
fn display_parse_roundtrip() {
    // `0 + !0` and `!0 + 0`: a unary operand on either side of a
    // binary one, each once a failure found by a random search.
    let not_zero = || Box::new(Expr::Unary { op: UnOp::Not, expr: Box::new(Expr::Num(0.0)) });
    let zero = || Box::new(Expr::Num(0.0));
    assert_roundtrips(Expr::Binary { op: BinOp::Add, lhs: zero(), rhs: not_zero() });
    assert_roundtrips(Expr::Binary { op: BinOp::Add, lhs: not_zero(), rhs: zero() });
    cases("display_parse_roundtrip", 512, 4, |rng, size| assert_roundtrips(expr(rng, size)));
}

/// Compiles `src` both ways from two starting registries (empty, and
/// one that already knows `b` and an unrelated name) and asserts the
/// same outcome: the same condition (name, tree, degrees, triggering)
/// and registrations, or the same error, offset and message alike.
/// Returns whether it compiled.
fn compiles_as_before(src: &str) -> bool {
    let mut known = VarRegistry::new();
    known.register("zz");
    known.register("b");
    let mut accepted = false;
    for start in [VarRegistry::new(), known] {
        let (mut now, mut before) = (start.clone(), start);
        match (CompiledCondition::compile(src, &mut now), two_pass::compile(src, &mut before)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.name(), b.name(), "{src:?}");
                assert_eq!(a.expr(), b.expr(), "{src:?}");
                assert_eq!(a.history_spec(), b.history_spec(), "{src:?}");
                assert_eq!(a.triggering(), b.triggering(), "{src:?}");
                accepted = true;
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{src:?}"),
            (a, b) => panic!("{src:?}: one pass gives {a:?}, two passes gave {b:?}"),
        }
        assert_eq!(now, before, "registrations of {src:?}");
    }
    accepted
}

/// A random expression that type-checks as `boolean` (`numeric` when
/// `boolean` is false), at most `depth` operators deep.
fn typed(rng: &mut Rng, depth: usize, boolean: bool) -> Expr<String> {
    let sub = |rng: &mut Rng, boolean| Box::new(typed(rng, depth.saturating_sub(1), boolean));
    if depth == 0 || rng.below(4) == 0 {
        return match (boolean, rng.below(3)) {
            (true, 0) => Expr::Bool(rng.below(2) == 1),
            (true, _) => Expr::Consecutive(var(rng)),
            (false, 0) => Expr::Num(rng.below(100) as f64 / 4.0),
            (false, 1) => {
                Expr::Term { var: var(rng), index: -(rng.below(4) as i64), field: Field::Value }
            }
            (false, _) => {
                Expr::Agg { op: AggOp::Avg, var: var(rng), window: 1 + rng.below(4) as u64 }
            }
        };
    }
    if boolean {
        let op = *rng.pick(&[BinOp::And, BinOp::Or, BinOp::Lt, BinOp::Ge, BinOp::Eq, BinOp::Ne]);
        match (op.is_logical(), rng.below(5)) {
            (_, 0) => Expr::Unary { op: UnOp::Not, expr: sub(rng, true) },
            (logical, _) => Expr::Binary { op, lhs: sub(rng, logical), rhs: sub(rng, logical) },
        }
    } else {
        match rng.below(5) {
            0 => Expr::Unary { op: UnOp::Neg, expr: sub(rng, false) },
            1 => Expr::Abs(sub(rng, false)),
            2 => Expr::Max(sub(rng, false), sub(rng, false)),
            _ => {
                let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
                Expr::Binary { op, lhs: sub(rng, false), rhs: sub(rng, false) }
            }
        }
    }
}

/// The benchmark's four condition shapes, written out.
const SHAPES: [&str; 4] = [
    "avg_over(v0, 16) - avg_over(v1, 16) > 31.00",
    "v0[0].value + v0[-1].value + v1[0].value + v1[-1].value > -1",
    "v2[0].value > 99.6",
    "hb[0].value > 0",
];

#[test]
fn compile_matches_the_two_pass_front_end_on_arbitrary_input() {
    cases("compile_matches_two_pass_arbitrary", 512, 80, |rng, size| {
        let input: String = (0..rng.below(size + 1)).map(|_| printable(rng)).collect();
        compiles_as_before(&input);
    });
    const POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789[].()<>=!&| +*/-";
    cases("compile_matches_two_pass_almost_valid", 512, 60, |rng, size| {
        let input: String = (0..rng.below(size + 1)).map(|_| char::from(*rng.pick(POOL))).collect();
        compiles_as_before(&input);
    });
}

#[test]
fn compile_matches_the_two_pass_front_end_on_token_soup() {
    const TOKENS: &[&str] = &[
        "a",
        "b",
        "c",
        "value",
        "seqno",
        "consecutive",
        "avg_over",
        "min_over",
        "min",
        "max",
        "abs",
        "true",
        "false",
        "0",
        "1",
        "16",
        "1.5",
        "2e3",
        "[",
        "]",
        ".",
        ",",
        "(",
        ")",
        "-",
        "+",
        "*",
        "/",
        "<",
        "<=",
        ">",
        ">=",
        "==",
        "!=",
        "&&",
        "||",
        "!",
        "=",
        "&",
        "$",
        "# c\n",
    ];
    cases("compile_matches_two_pass_token_soup", 1024, 24, |rng, size| {
        let n = rng.below(size + 1);
        let input: Vec<&str> = (0..n).map(|_| *rng.pick(TOKENS)).collect();
        compiles_as_before(&input.join(if rng.below(2) == 0 { " " } else { "" }));
    });
}

#[test]
fn compile_matches_the_two_pass_front_end_on_printed_trees() {
    let mut accepted = 0;
    cases("compile_matches_two_pass_printed_trees", 512, 4, |rng, size| {
        compiles_as_before(&expr(rng, size).to_string());
        accepted += u32::from(compiles_as_before(&typed(rng, size, true).to_string()));
    });
    assert!(accepted >= 256, "only {accepted} of 512 typed trees compiled");
}

#[test]
fn compile_matches_the_two_pass_front_end_on_the_benchmark_shapes_and_their_typos() {
    for shape in SHAPES {
        assert!(compiles_as_before(shape), "{shape}");
        for at in 0..=shape.len() {
            if at < shape.len() {
                compiles_as_before(&format!("{}{}", &shape[..at], &shape[at + 1..]));
            }
            for typo in ["(", ")", ",", "$", "=", "-", "1", "x", "&", "é", " "] {
                compiles_as_before(&format!("{}{typo}{}", &shape[..at], &shape[at..]));
            }
        }
    }
}
