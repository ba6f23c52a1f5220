//! Byte-code plan interpreter.
//!
//! Motes receive a plan as the compact wire encoding of
//! [`acqp_core::Plan::encode`] and execute it *directly from the bytes*:
//! no tree materialization — matching the "minimal computational power"
//! execution story of §2.5. Branching to the high side of a split skips
//! over the low subtree with a structural scan. Acquisition accounting
//! and leaf evaluation are the shared scalar kernel of
//! [`acqp_core::exec`], so the interpreter cannot drift from the tree
//! executor (or from the vectorized path proven equal to it).
//!
//! The simulator and the serve engine run the prepared form of the plan
//! tree ([`acqp_core::PreparedPlan`]), whose encoding must equal the
//! certified wire. This interpreter is the checked reference the fuzz,
//! mutation and round-trip tests and `benches/verify.rs` hold that
//! prepared form to; no library code calls it.

use acqp_core::costmodel::CostModel;
use acqp_core::exec::{eval_seq_leaf, TupleState};
use acqp_core::{Error, Query, Result, Schema, TupleSource};

/// Executes the wire-encoded plan for one tuple, charging acquisition
/// costs from `schema` exactly like [`acqp_core::execute`] does for the
/// decoded tree, and returns the verdict. `st` is reset first and
/// afterwards holds the tuple's cost and acquisition order, so one
/// caller-owned state serves every tuple without allocating.
/// Acquisition state and leaf evaluation go through the shared scalar
/// kernel ([`TupleState`] / [`eval_seq_leaf`]) — the seed interpreter
/// duplicated that logic, which let the paths drift. Sequential bodies
/// are validated eagerly: a leaf naming an out-of-range predicate is
/// rejected before any of it runs.
pub fn execute_wire(
    bytes: &[u8],
    query: &Query,
    schema: &Schema,
    st: &mut TupleState,
    src: &mut impl TupleSource,
) -> Result<bool> {
    let model = CostModel::PerAttribute;
    st.reset(schema.len());
    let mut pos = 0usize;
    loop {
        let tag = *bytes.get(pos).ok_or(Error::BadWireFormat { offset: pos, what: "truncated" })?;
        match tag {
            0x00 | 0x01 => return Ok(tag == 0x01),
            0x02 => {
                let len = *bytes
                    .get(pos + 1)
                    .ok_or(Error::BadWireFormat { offset: pos + 1, what: "truncated seq" })?
                    as usize;
                let body = bytes
                    .get(pos + 2..pos + 2 + len)
                    .ok_or(Error::BadWireFormat { offset: pos + 2, what: "truncated seq body" })?;
                // Seq bodies are length-prefixed by a u8, so 256 slots
                // always fit.
                let mut order = [0usize; 256];
                for (slot, &pb) in order.iter_mut().zip(body) {
                    let j = pb as usize;
                    if j >= query.len() {
                        return Err(Error::BadWireFormat {
                            offset: pos,
                            what: "predicate index out of range",
                        });
                    }
                    *slot = j;
                }
                return Ok(eval_seq_leaf(st, &order[..len], query, schema, &model, src, None));
            }
            0x03 => {
                let Some(&[a, c0, c1]) = bytes.get(pos + 1..pos + 4) else {
                    return Err(Error::BadWireFormat { offset: pos + 1, what: "truncated split" });
                };
                let attr = a as usize;
                if attr >= schema.len() {
                    return Err(Error::BadWireFormat {
                        offset: pos + 1,
                        what: "attr out of range",
                    });
                }
                let cut = u16::from_le_bytes([c0, c1]);
                let v = st.fetch(attr, schema, &model, src, None);
                if v < cut {
                    pos += 4;
                } else {
                    pos = skip_subtree(bytes, pos + 4)?;
                }
            }
            _ => return Err(Error::BadWireFormat { offset: pos, what: "unknown tag" }),
        }
    }
}

/// Returns the byte offset just past the subtree starting at `pos`.
/// Iterative: a split defers one extra subtree instead of recursing, so
/// adversarially deep split chains cannot overflow the call stack.
pub fn skip_subtree(bytes: &[u8], mut pos: usize) -> Result<usize> {
    let mut open = 1usize;
    while open > 0 {
        let tag = *bytes.get(pos).ok_or(Error::BadWireFormat { offset: pos, what: "truncated" })?;
        match tag {
            0x00 | 0x01 => {
                pos += 1;
                open -= 1;
            }
            0x02 => {
                let len = *bytes
                    .get(pos + 1)
                    .ok_or(Error::BadWireFormat { offset: pos + 1, what: "truncated seq" })?
                    as usize;
                let end = pos + 2 + len;
                if end > bytes.len() {
                    return Err(Error::BadWireFormat { offset: pos, what: "truncated seq body" });
                }
                pos = end;
                open -= 1;
            }
            0x03 => {
                if pos + 4 > bytes.len() {
                    return Err(Error::BadWireFormat { offset: pos, what: "truncated split" });
                }
                pos += 4;
                open += 1;
            }
            _ => return Err(Error::BadWireFormat { offset: pos, what: "unknown tag" }),
        }
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_core::{execute, Attribute, Dataset, Plan, Pred, RowSource, SeqOrder};

    fn setup() -> (Schema, Dataset, Query) {
        let schema = acqp_core::Schema::new(vec![
            Attribute::new("a", 8, 10.0),
            Attribute::new("b", 8, 20.0),
            Attribute::new("t", 8, 1.0),
        ])
        .unwrap();
        let rows: Vec<Vec<u16>> =
            (0..64u16).map(|i| vec![i % 8, (i / 8) % 8, (i * 3) % 8]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 2, 5), Pred::not_in_range(1, 3, 6)]).unwrap();
        (schema, data, query)
    }

    fn plans() -> Vec<Plan> {
        vec![
            Plan::pass(),
            Plan::fail(),
            Plan::Seq(SeqOrder::new(vec![0, 1])),
            Plan::Seq(SeqOrder::new(vec![1, 0])),
            Plan::split(
                2,
                4,
                Plan::Seq(SeqOrder::new(vec![0, 1])),
                Plan::Seq(SeqOrder::new(vec![1, 0])),
            ),
            Plan::split(
                2,
                3,
                Plan::split(0, 3, Plan::fail(), Plan::Seq(SeqOrder::new(vec![0, 1]))),
                Plan::split(
                    1,
                    5,
                    Plan::Seq(SeqOrder::new(vec![1, 0])),
                    Plan::Seq(SeqOrder::new(vec![0])),
                ),
            ),
        ]
    }

    #[test]
    fn interpreter_matches_tree_executor_on_every_row() {
        let (schema, data, query) = setup();
        // One state for every row; starting it empty also checks that
        // `reset` sizes it to the schema.
        let mut st = TupleState::new(0);
        for plan in plans() {
            let wire = plan.encode();
            for row in 0..data.len() {
                let tree = execute(&plan, &query, &schema, &mut RowSource::new(&data, row));
                let verdict =
                    execute_wire(&wire, &query, &schema, &mut st, &mut RowSource::new(&data, row))
                        .unwrap();
                assert_eq!(tree.verdict, verdict, "row {row} plan {plan:?}");
                assert_eq!(tree.cost, st.cost());
                assert_eq!(tree.acquired, st.acquired());
            }
        }
    }

    #[test]
    fn skip_subtree_spans() {
        let plan = plans().pop().unwrap();
        let wire = plan.encode();
        // Skipping the whole tree lands exactly at the end.
        assert_eq!(skip_subtree(&wire, 0).unwrap(), wire.len());
    }

    #[test]
    fn skip_subtree_is_iterative_on_deep_chains() {
        // 50_000 nested splits would overflow the stack under the old
        // recursive scan.
        let mut wire = Vec::new();
        for _ in 0..50_000 {
            wire.extend_from_slice(&[0x03, 0, 1, 0]);
        }
        wire.push(0x01);
        wire.extend(std::iter::repeat_n(0x00, 50_000));
        assert_eq!(skip_subtree(&wire, 0).unwrap(), wire.len());
    }

    #[test]
    fn garbage_rejected() {
        let (schema, data, query) = setup();
        let mut src = RowSource::new(&data, 0);
        let mut st = TupleState::new(schema.len());
        let mut run = |wire: &[u8]| execute_wire(wire, &query, &schema, &mut st, &mut src);
        assert!(run(&[]).is_err());
        assert!(run(&[0x07]).is_err());
        // Split referencing an out-of-schema attribute.
        assert!(run(&[0x03, 99, 0, 0, 0x00, 0x01]).is_err());
        // Seq referencing an out-of-range predicate.
        assert!(run(&[0x02, 1, 9]).is_err());
    }
}
