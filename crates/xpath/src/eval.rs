//! Expression and path evaluation over a [`Document`].
//!
//! Name tests are bound to the document's interned symbols at
//! evaluation time: one symbol-table lookup per step, then integer
//! compares per candidate. Descendant name steps (the `//name`
//! shorthand and explicit `descendant-or-self::` steps with a name
//! test) are answered from the document's cached
//! [`NameIndex`](wmx_xml::NameIndex) instead of re-traversing the tree,
//! and document-order sorting uses the same cached index — so repeated
//! query evaluation over an immutable document (the detection hot path)
//! pays one traversal total instead of one per query.

use crate::ast::{Axis, BinaryOp, Expr, NodeTest, PathExpr, Step};
use crate::error::XPathError;
use crate::value::{format_number, parse_number, NodeRef, Value};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use wmx_xml::{Document, NodeId, NodeKind, Sym};

/// A fast non-cryptographic hasher for the short name strings on the
/// symbol-memo path (FxHash-style byte folding). Collisions only cost a
/// probe; correctness is content-equality like any hash map.
#[derive(Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
}

type SymMemo = HashMap<Box<str>, Option<Sym>, BuildHasherDefault<NameHasher>>;

/// Evaluation engine bound to one document.
///
/// An evaluator may be reused across many queries against the same
/// document (the detection hot path does exactly that): it memoizes
/// name-test → [`Sym`] resolutions, so a predicate like `[title = 'X']`
/// evaluated once per candidate resolves `title` against the document's
/// symbol table once instead of once per candidate. The memo is sound
/// because the evaluator holds the document borrowed for its whole
/// lifetime, so no mutation can change a binding.
pub struct Evaluator<'d> {
    doc: &'d Document,
    sym_memo: RefCell<SymMemo>,
    /// Recycled per-step candidate buffers: path evaluation allocates
    /// one `Vec<NodeRef>` per step, and the detection hot path runs
    /// thousands of short paths against one document. Buffers are
    /// checked out for the duration of a step (never across a borrow
    /// of the pool itself, so predicate recursion is safe) and
    /// returned cleared.
    scratch: RefCell<Vec<Vec<NodeRef>>>,
}

/// How many cleared buffers the scratch pool retains; deeper recursion
/// simply allocates fresh ones.
const SCRATCH_POOL_CAP: usize = 16;

/// Evaluation context: the context node plus its position/size within the
/// current candidate list (1-based, per XPath).
#[derive(Debug, Clone)]
pub struct Context {
    /// The context node.
    pub node: NodeRef,
    /// 1-based context position.
    pub position: usize,
    /// Context size.
    pub size: usize,
}

impl Context {
    /// A context for a lone node (position 1 of 1).
    pub fn solo(node: NodeRef) -> Self {
        Context {
            node,
            position: 1,
            size: 1,
        }
    }
}

impl<'d> Evaluator<'d> {
    /// Creates an evaluator for `doc`.
    pub fn new(doc: &'d Document) -> Self {
        Evaluator {
            doc,
            sym_memo: RefCell::new(SymMemo::default()),
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Checks a cleared candidate buffer out of the scratch pool.
    fn take_buf(&self) -> Vec<NodeRef> {
        self.scratch.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool (cleared; dropped when full).
    fn put_buf(&self, mut buf: Vec<NodeRef>) {
        buf.clear();
        let mut pool = self.scratch.borrow_mut();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(buf);
        }
    }

    /// The document this evaluator is bound to.
    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// Memoized name→symbol resolution (see the type docs).
    fn sym_of(&self, name: &str) -> Option<Sym> {
        if let Some(&cached) = self.sym_memo.borrow().get(name) {
            return cached;
        }
        let sym = self.doc.lookup_sym(name);
        self.sym_memo.borrow_mut().insert(name.into(), sym);
        sym
    }

    fn order_of(&self, id: NodeId) -> usize {
        // The document caches its order index across evaluations; only
        // detached nodes (never produced by path steps) miss.
        self.doc.name_index().order_of(id).unwrap_or(usize::MAX)
    }

    fn sort_key(&self, node: &NodeRef) -> (usize, u8, usize) {
        match node {
            NodeRef::Node(id) => (self.order_of(*id), 0, 0),
            NodeRef::Attribute { element, name } => {
                let idx = self
                    .doc
                    .attributes(*element)
                    .iter()
                    .position(|a| self.doc.attr_name(a) == name)
                    .unwrap_or(usize::MAX);
                (self.order_of(*element), 1, idx)
            }
        }
    }

    /// Sorts `nodes` into document order and removes duplicates.
    pub fn document_order(&self, mut nodes: Vec<NodeRef>) -> Vec<NodeRef> {
        if nodes.len() <= 1 {
            return nodes; // already unique and ordered; skip the hashing
        }
        let mut seen = HashSet::with_capacity(nodes.len());
        nodes.retain(|n| seen.insert(n.clone()));
        nodes.sort_by_key(|n| self.sort_key(n));
        nodes
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    /// Evaluates a location path from `start`.
    pub fn eval_path(&self, path: &PathExpr, start: &NodeRef) -> Result<Vec<NodeRef>, XPathError> {
        let mut current = self.take_buf();
        current.push(if path.absolute {
            NodeRef::Node(self.doc.document_node())
        } else {
            start.clone()
        });
        self.eval_steps(&path.steps, current)
    }

    /// Runs the per-step path loop over `steps` starting from the
    /// candidate set `current` — exactly the body of [`eval_path`]
    /// (including `//name` fusion and the single-context fast path).
    /// Exposed so batch detection can resume a decomposed path after a
    /// shared predicate scan.
    ///
    /// [`eval_path`]: Evaluator::eval_path
    pub fn eval_steps(
        &self,
        steps: &[Step],
        mut current: Vec<NodeRef>,
    ) -> Result<Vec<NodeRef>, XPathError> {
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            // Fused `//name`: a bare descendant-or-self::node() step
            // followed by a predicate-free child::name selects exactly
            // the proper descendants of the context named `name` —
            // answered from the document's name index instead of
            // materializing every node of the subtree. Positional
            // predicates are per-parent in XPath, so a predicated child
            // step takes the unfused path.
            if let Some(named) = steps.get(i + 1) {
                if step.axis == Axis::DescendantOrSelf
                    && step.test == NodeTest::AnyNode
                    && step.predicates.is_empty()
                    && named.axis == Axis::Child
                    && named.predicates.is_empty()
                {
                    if let NodeTest::Name(n) = &named.test {
                        let single_ctx = current.len() == 1;
                        let mut next = self.take_buf();
                        if let Some(sym) = self.sym_of(n) {
                            for ctx in &current {
                                self.descendants_named_into(ctx, sym, &mut next);
                            }
                        }
                        // One context (the common absolute `//name`)
                        // yields an already unique, document-ordered
                        // list straight from the index — skip the
                        // dedup/sort pass.
                        if !single_ctx {
                            next = self.document_order(next);
                        }
                        self.put_buf(std::mem::replace(&mut current, next));
                        if current.is_empty() {
                            break;
                        }
                        i += 2;
                        continue;
                    }
                }
            }
            let single_ctx = current.len() == 1;
            let mut next = self.take_buf();
            for ctx in &current {
                let start_len = next.len();
                self.axis_candidates_into(ctx, step, &mut next);
                self.apply_predicates_in_place(&mut next, start_len, &step.predicates)?;
            }
            // Every axis yields unique candidates in document order for
            // one context node, and predicates only filter — so a
            // single-context step needs no dedup/sort pass. This is the
            // common shape of identity queries (`/db/book[pred]/year`).
            if !single_ctx {
                next = self.document_order(next);
            }
            self.put_buf(std::mem::replace(&mut current, next));
            if current.is_empty() {
                break;
            }
            i += 1;
        }
        Ok(current)
    }

    /// Candidates of one step from one context: axis candidates run
    /// through the step's predicates — the per-context body of the path
    /// loop. Exposed for batch detection's shared candidate scan.
    pub fn step_candidates(&self, ctx: &NodeRef, step: &Step) -> Result<Vec<NodeRef>, XPathError> {
        let mut out = Vec::new();
        self.axis_candidates_into(ctx, step, &mut out);
        self.apply_predicates_in_place(&mut out, 0, &step.predicates)?;
        Ok(out)
    }

    /// Proper descendants of `ctx` that are elements named `sym`, in
    /// document order — the expansion of `ctx//name`, appended to
    /// `out`. From the document node the index list is copied whole;
    /// from any other attached node the list is filtered by an ancestor
    /// walk (index lists are per-name, so this touches only same-named
    /// elements, not the whole subtree). Detached contexts are absent
    /// from the index and fall back to a subtree traversal.
    fn descendants_named_into(&self, ctx: &NodeRef, sym: Sym, out: &mut Vec<NodeRef>) {
        let NodeRef::Node(ctx_id) = ctx else {
            return; // attributes have no element descendants
        };
        if *ctx_id == self.doc.document_node() {
            let named = self.doc.name_index().elements_named(sym);
            out.extend(named.iter().copied().map(NodeRef::Node));
            return;
        }
        if !self.doc.is_attached(*ctx_id) {
            out.extend(
                self.doc
                    .descendants(*ctx_id)
                    .filter(|&n| n != *ctx_id && self.doc.name_sym(n) == Some(sym))
                    .map(NodeRef::Node),
            );
            return;
        }
        out.extend(
            self.doc
                .name_index()
                .elements_named(sym)
                .iter()
                .copied()
                .filter(|&n| self.is_proper_ancestor(*ctx_id, n))
                .map(NodeRef::Node),
        );
    }

    /// Whether `ancestor` lies strictly above `node`.
    fn is_proper_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        let mut cursor = self.doc.parent(node);
        while let Some(p) = cursor {
            if p == ancestor {
                return true;
            }
            cursor = self.doc.parent(p);
        }
        false
    }

    fn axis_candidates_into(&self, ctx: &NodeRef, step: &Step, out: &mut Vec<NodeRef>) {
        match step.axis {
            Axis::Child => match ctx {
                NodeRef::Node(id) => match &step.test {
                    // Name tests compare interned symbols: one memoized
                    // table lookup, then integer compares per child.
                    NodeTest::Name(n) => {
                        if let Some(sym) = self.sym_of(n) {
                            out.extend(
                                self.doc
                                    .children(*id)
                                    .iter()
                                    .copied()
                                    .filter(|&c| self.doc.name_sym(c) == Some(sym))
                                    .map(NodeRef::Node),
                            );
                        }
                    }
                    test => out.extend(
                        self.doc
                            .children(*id)
                            .iter()
                            .copied()
                            .filter(|&c| self.node_test_matches(c, test))
                            .map(NodeRef::Node),
                    ),
                },
                NodeRef::Attribute { .. } => {}
            },
            Axis::DescendantOrSelf => match ctx {
                NodeRef::Node(id) => match &step.test {
                    // An explicit descendant name step: answer from the
                    // index (self is included iff it carries the name,
                    // which descendants_named_into's ancestor filter
                    // misses, so check it separately).
                    NodeTest::Name(n) => {
                        if let Some(sym) = self.sym_of(n) {
                            if self.doc.name_sym(*id) == Some(sym) {
                                out.push(NodeRef::Node(*id));
                            }
                            self.descendants_named_into(ctx, sym, out);
                        }
                    }
                    test => out.extend(
                        self.doc
                            .descendants(*id)
                            .filter(|&n| self.node_test_matches(n, test))
                            .map(NodeRef::Node),
                    ),
                },
                NodeRef::Attribute { .. } => {}
            },
            Axis::SelfAxis => match ctx {
                NodeRef::Node(id) if self.node_test_matches(*id, &step.test) => {
                    out.push(ctx.clone());
                }
                NodeRef::Attribute { .. } if step.test == NodeTest::AnyNode => {
                    out.push(ctx.clone());
                }
                _ => {}
            },
            Axis::Parent => {
                let parent = match ctx {
                    NodeRef::Node(id) => self.doc.parent(*id),
                    NodeRef::Attribute { element, .. } => Some(*element),
                };
                if let Some(p) = parent.filter(|&p| self.node_test_matches(p, &step.test)) {
                    out.push(NodeRef::Node(p));
                }
            }
            Axis::Attribute => match ctx {
                NodeRef::Node(id) if self.doc.is_element(*id) => {
                    let name_sym = match &step.test {
                        NodeTest::Name(n) => match self.sym_of(n) {
                            Some(sym) => Some(sym),
                            None => return,
                        },
                        NodeTest::Wildcard | NodeTest::AnyNode => None,
                        NodeTest::Text => return,
                    };
                    out.extend(
                        self.doc
                            .attributes(*id)
                            .iter()
                            .filter(|a| name_sym.is_none_or(|sym| a.name == sym))
                            .map(|a| NodeRef::Attribute {
                                element: *id,
                                name: self.doc.attr_name(a).to_string(),
                            }),
                    );
                }
                _ => {}
            },
        }
    }

    fn node_test_matches(&self, node: NodeId, test: &NodeTest) -> bool {
        match test {
            NodeTest::Name(n) => match self.sym_of(n) {
                Some(sym) => self.doc.name_sym(node) == Some(sym),
                None => false,
            },
            NodeTest::Wildcard => self.doc.is_element(node),
            NodeTest::Text => matches!(self.doc.kind(node), NodeKind::Text(_) | NodeKind::CData(_)),
            NodeTest::AnyNode => true,
        }
    }

    /// Filters `buf[start..]` in place through `predicates`, preserving
    /// order; context position/size are relative to that range (the
    /// candidates of one context node), matching per-context predicate
    /// semantics.
    fn apply_predicates_in_place(
        &self,
        buf: &mut Vec<NodeRef>,
        start: usize,
        predicates: &[Expr],
    ) -> Result<(), XPathError> {
        for predicate in predicates {
            let size = buf.len() - start;
            let mut write = start;
            for i in 0..size {
                let idx = start + i;
                let ctx = Context {
                    node: buf[idx].clone(),
                    position: i + 1,
                    size,
                };
                let value = self.eval_expr(predicate, &ctx)?;
                let keep = match value {
                    // A bare number predicate means position() = n.
                    Value::Number(n) => (ctx.position as f64) == n,
                    other => other.to_boolean(),
                };
                if keep {
                    buf.swap(write, idx);
                    write += 1;
                }
            }
            buf.truncate(write);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Evaluates `expr` in context `ctx`.
    pub fn eval_expr(&self, expr: &Expr, ctx: &Context) -> Result<Value, XPathError> {
        match expr {
            Expr::Path(p) => Ok(Value::Nodes(self.eval_path(p, &ctx.node)?)),
            Expr::Literal(s) => Ok(Value::Text(s.clone())),
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Negate(inner) => {
                let v = self.eval_expr(inner, ctx)?;
                Ok(Value::Number(-v.to_number(self.doc)))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, ctx),
            Expr::Call { name, args } => self.eval_call(name, args, ctx),
        }
    }

    fn eval_binary(
        &self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        ctx: &Context,
    ) -> Result<Value, XPathError> {
        match op {
            BinaryOp::Or => {
                if self.eval_expr(lhs, ctx)?.to_boolean() {
                    return Ok(Value::Boolean(true));
                }
                Ok(Value::Boolean(self.eval_expr(rhs, ctx)?.to_boolean()))
            }
            BinaryOp::And => {
                if !self.eval_expr(lhs, ctx)?.to_boolean() {
                    return Ok(Value::Boolean(false));
                }
                Ok(Value::Boolean(self.eval_expr(rhs, ctx)?.to_boolean()))
            }
            BinaryOp::Union => {
                let l = self.eval_expr(lhs, ctx)?;
                let r = self.eval_expr(rhs, ctx)?;
                match (l, r) {
                    (Value::Nodes(mut a), Value::Nodes(b)) => {
                        a.extend(b);
                        Ok(Value::Nodes(self.document_order(a)))
                    }
                    _ => Err(XPathError::new("'|' requires node-set operands")),
                }
            }
            BinaryOp::Eq | BinaryOp::Ne => {
                let l = self.eval_expr(lhs, ctx)?;
                let r = self.eval_expr(rhs, ctx)?;
                Ok(Value::Boolean(self.compare_eq(&l, &r, op == BinaryOp::Ne)))
            }
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                let l = self.eval_expr(lhs, ctx)?;
                let r = self.eval_expr(rhs, ctx)?;
                Ok(Value::Boolean(self.compare_rel(&l, &r, op)))
            }
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let l = self.eval_expr(lhs, ctx)?.to_number(self.doc);
                let r = self.eval_expr(rhs, ctx)?.to_number(self.doc);
                Ok(Value::Number(match op {
                    BinaryOp::Add => l + r,
                    BinaryOp::Sub => l - r,
                    BinaryOp::Mul => l * r,
                    BinaryOp::Div => l / r,
                    BinaryOp::Mod => l % r,
                    _ => unreachable!("arithmetic op"),
                }))
            }
        }
    }

    /// XPath `=`/`!=` semantics, including existential node-set comparison.
    fn compare_eq(&self, l: &Value, r: &Value, negate: bool) -> bool {
        match (l, r) {
            (Value::Nodes(a), Value::Nodes(b)) => {
                let bs: HashSet<String> = b.iter().map(|n| n.string_value(self.doc)).collect();
                a.iter().any(|n| {
                    let sv = n.string_value(self.doc);
                    if negate {
                        bs.iter().any(|other| *other != sv)
                    } else {
                        bs.contains(&sv)
                    }
                })
            }
            (Value::Nodes(ns), Value::Text(s)) | (Value::Text(s), Value::Nodes(ns)) => {
                ns.iter().any(|n| n.string_value_eq(self.doc, s) != negate)
            }
            (Value::Nodes(ns), Value::Number(x)) | (Value::Number(x), Value::Nodes(ns)) => ns
                .iter()
                .any(|n| (parse_number(&n.string_value(self.doc)) == *x) != negate),
            (Value::Nodes(ns), Value::Boolean(b)) | (Value::Boolean(b), Value::Nodes(ns)) => {
                (ns.is_empty() != *b) != negate
            }
            (Value::Boolean(a), b) | (b, Value::Boolean(a)) => (*a == b.to_boolean()) != negate,
            (Value::Number(a), b) | (b, Value::Number(a)) => {
                (*a == b.to_number(self.doc)) != negate
            }
            (Value::Text(a), Value::Text(b)) => (a == b) != negate,
        }
    }

    /// XPath `<`/`<=`/`>`/`>=` semantics (numeric, existential for sets).
    fn compare_rel(&self, l: &Value, r: &Value, op: BinaryOp) -> bool {
        let cmp = |a: f64, b: f64| match op {
            BinaryOp::Lt => a < b,
            BinaryOp::Le => a <= b,
            BinaryOp::Gt => a > b,
            BinaryOp::Ge => a >= b,
            _ => unreachable!("relational op"),
        };
        match (l, r) {
            (Value::Nodes(a), Value::Nodes(b)) => a.iter().any(|x| {
                let xv = parse_number(&x.string_value(self.doc));
                b.iter()
                    .any(|y| cmp(xv, parse_number(&y.string_value(self.doc))))
            }),
            (Value::Nodes(ns), other) => {
                let rv = other.to_number(self.doc);
                ns.iter()
                    .any(|n| cmp(parse_number(&n.string_value(self.doc)), rv))
            }
            (other, Value::Nodes(ns)) => {
                let lv = other.to_number(self.doc);
                ns.iter()
                    .any(|n| cmp(lv, parse_number(&n.string_value(self.doc))))
            }
            (a, b) => cmp(a.to_number(self.doc), b.to_number(self.doc)),
        }
    }

    // ------------------------------------------------------------------
    // Function library
    // ------------------------------------------------------------------

    fn eval_call(&self, name: &str, args: &[Expr], ctx: &Context) -> Result<Value, XPathError> {
        let arity = |min: usize, max: usize| -> Result<(), XPathError> {
            if args.len() < min || args.len() > max {
                Err(XPathError::new(format!(
                    "{name}() expects {min}..{max} arguments, got {}",
                    args.len()
                )))
            } else {
                Ok(())
            }
        };
        // Evaluate an argument, or default to the context node.
        let arg_or_ctx = |i: usize| -> Result<Value, XPathError> {
            match args.get(i) {
                Some(e) => self.eval_expr(e, ctx),
                None => Ok(Value::Nodes(vec![ctx.node.clone()])),
            }
        };
        match name {
            "position" => {
                arity(0, 0)?;
                Ok(Value::Number(ctx.position as f64))
            }
            "last" => {
                arity(0, 0)?;
                Ok(Value::Number(ctx.size as f64))
            }
            "count" => {
                arity(1, 1)?;
                match self.eval_expr(&args[0], ctx)? {
                    Value::Nodes(ns) => Ok(Value::Number(ns.len() as f64)),
                    _ => Err(XPathError::new("count() requires a node-set")),
                }
            }
            "contains" => {
                arity(2, 2)?;
                let hay = self.eval_expr(&args[0], ctx)?.to_text(self.doc);
                let needle = self.eval_expr(&args[1], ctx)?.to_text(self.doc);
                Ok(Value::Boolean(hay.contains(&needle)))
            }
            "starts-with" => {
                arity(2, 2)?;
                let hay = self.eval_expr(&args[0], ctx)?.to_text(self.doc);
                let prefix = self.eval_expr(&args[1], ctx)?.to_text(self.doc);
                Ok(Value::Boolean(hay.starts_with(&prefix)))
            }
            "not" => {
                arity(1, 1)?;
                Ok(Value::Boolean(!self.eval_expr(&args[0], ctx)?.to_boolean()))
            }
            "true" => {
                arity(0, 0)?;
                Ok(Value::Boolean(true))
            }
            "false" => {
                arity(0, 0)?;
                Ok(Value::Boolean(false))
            }
            "boolean" => {
                arity(1, 1)?;
                Ok(Value::Boolean(self.eval_expr(&args[0], ctx)?.to_boolean()))
            }
            "name" => {
                arity(0, 1)?;
                let v = arg_or_ctx(0)?;
                match v {
                    Value::Nodes(ns) => Ok(Value::Text(
                        ns.first()
                            .map(|n| n.node_name(self.doc))
                            .unwrap_or_default(),
                    )),
                    _ => Err(XPathError::new("name() requires a node-set")),
                }
            }
            "string" => {
                arity(0, 1)?;
                Ok(Value::Text(arg_or_ctx(0)?.to_text(self.doc)))
            }
            "number" => {
                arity(0, 1)?;
                Ok(Value::Number(arg_or_ctx(0)?.to_number(self.doc)))
            }
            "string-length" => {
                arity(0, 1)?;
                let s = arg_or_ctx(0)?.to_text(self.doc);
                Ok(Value::Number(s.chars().count() as f64))
            }
            "normalize-space" => {
                arity(0, 1)?;
                let s = arg_or_ctx(0)?.to_text(self.doc);
                Ok(Value::Text(
                    s.split_whitespace().collect::<Vec<_>>().join(" "),
                ))
            }
            "concat" => {
                if args.len() < 2 {
                    return Err(XPathError::new("concat() expects at least 2 arguments"));
                }
                let mut out = String::new();
                for a in args {
                    out.push_str(&self.eval_expr(a, ctx)?.to_text(self.doc));
                }
                Ok(Value::Text(out))
            }
            "substring" => {
                arity(2, 3)?;
                let s = self.eval_expr(&args[0], ctx)?.to_text(self.doc);
                let start = self.eval_expr(&args[1], ctx)?.to_number(self.doc);
                let len = match args.get(2) {
                    Some(e) => self.eval_expr(e, ctx)?.to_number(self.doc),
                    None => f64::INFINITY,
                };
                Ok(Value::Text(xpath_substring(&s, start, len)))
            }
            "substring-before" => {
                arity(2, 2)?;
                let s = self.eval_expr(&args[0], ctx)?.to_text(self.doc);
                let pat = self.eval_expr(&args[1], ctx)?.to_text(self.doc);
                Ok(Value::Text(
                    s.find(&pat).map(|i| s[..i].to_string()).unwrap_or_default(),
                ))
            }
            "substring-after" => {
                arity(2, 2)?;
                let s = self.eval_expr(&args[0], ctx)?.to_text(self.doc);
                let pat = self.eval_expr(&args[1], ctx)?.to_text(self.doc);
                Ok(Value::Text(
                    s.find(&pat)
                        .map(|i| s[i + pat.len()..].to_string())
                        .unwrap_or_default(),
                ))
            }
            "translate" => {
                arity(3, 3)?;
                let s = self.eval_expr(&args[0], ctx)?.to_text(self.doc);
                let from: Vec<char> = self
                    .eval_expr(&args[1], ctx)?
                    .to_text(self.doc)
                    .chars()
                    .collect();
                let to: Vec<char> = self
                    .eval_expr(&args[2], ctx)?
                    .to_text(self.doc)
                    .chars()
                    .collect();
                let translated: String = s
                    .chars()
                    .filter_map(|c| match from.iter().position(|&f| f == c) {
                        None => Some(c),
                        Some(i) => to.get(i).copied(),
                    })
                    .collect();
                Ok(Value::Text(translated))
            }
            "sum" => {
                arity(1, 1)?;
                match self.eval_expr(&args[0], ctx)? {
                    Value::Nodes(ns) => Ok(Value::Number(
                        ns.iter()
                            .map(|n| parse_number(&n.string_value(self.doc)))
                            .sum(),
                    )),
                    _ => Err(XPathError::new("sum() requires a node-set")),
                }
            }
            "floor" => {
                arity(1, 1)?;
                Ok(Value::Number(
                    self.eval_expr(&args[0], ctx)?.to_number(self.doc).floor(),
                ))
            }
            "ceiling" => {
                arity(1, 1)?;
                Ok(Value::Number(
                    self.eval_expr(&args[0], ctx)?.to_number(self.doc).ceil(),
                ))
            }
            "round" => {
                arity(1, 1)?;
                Ok(Value::Number(
                    self.eval_expr(&args[0], ctx)?.to_number(self.doc).round(),
                ))
            }
            other => Err(XPathError::new(format!("unknown function {other}()"))),
        }
    }
}

/// XPath 1.0 `substring()` semantics: 1-based, rounded positions, NaN
/// and infinity handled per the spec.
fn xpath_substring(s: &str, start: f64, len: f64) -> String {
    if start.is_nan() || len.is_nan() {
        return String::new();
    }
    let chars: Vec<char> = s.chars().collect();
    // Positions p satisfy round(start) <= p < round(start) + round(len),
    // with p 1-based.
    let begin = start.round();
    let end = if len.is_infinite() {
        f64::INFINITY
    } else {
        begin + len.round()
    };
    chars
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let p = (*i + 1) as f64;
            p >= begin && p < end
        })
        .map(|(_, c)| *c)
        .collect()
}

/// Formats a [`Value`] for display in experiment output.
pub fn value_to_display(value: &Value, doc: &Document) -> String {
    match value {
        Value::Nodes(ns) => format!(
            "node-set[{}]{{{}}}",
            ns.len(),
            ns.iter()
                .take(4)
                .map(|n| n.string_value(doc))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Value::Text(s) => s.clone(),
        Value::Number(n) => format_number(*n),
        Value::Boolean(b) => b.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_xml::parse;

    #[test]
    fn document_order_sorts_attributes_after_their_element() {
        let doc = parse(r#"<a x="1" y="2"><b z="3"/></a>"#).unwrap();
        let root = doc.root_element().unwrap();
        let b = doc.first_child_element(root, "b").unwrap();
        let ev = Evaluator::new(&doc);
        let shuffled = vec![
            NodeRef::Attribute {
                element: b,
                name: "z".into(),
            },
            NodeRef::Node(b),
            NodeRef::Attribute {
                element: root,
                name: "y".into(),
            },
            NodeRef::Node(root),
            NodeRef::Attribute {
                element: root,
                name: "x".into(),
            },
        ];
        let ordered = ev.document_order(shuffled);
        assert_eq!(
            ordered,
            vec![
                NodeRef::Node(root),
                NodeRef::Attribute {
                    element: root,
                    name: "x".into()
                },
                NodeRef::Attribute {
                    element: root,
                    name: "y".into()
                },
                NodeRef::Node(b),
                NodeRef::Attribute {
                    element: b,
                    name: "z".into()
                },
            ]
        );
    }

    #[test]
    fn document_order_deduplicates() {
        let doc = parse("<a><b/></a>").unwrap();
        let root = doc.root_element().unwrap();
        let ev = Evaluator::new(&doc);
        let dupes = vec![
            NodeRef::Node(root),
            NodeRef::Node(root),
            NodeRef::Node(root),
        ];
        assert_eq!(ev.document_order(dupes).len(), 1);
    }

    #[test]
    fn xpath_substring_spec_edges() {
        assert_eq!(xpath_substring("12345", 1.5, 2.6), "234");
        assert_eq!(xpath_substring("12345", 0.0, 3.0), "12");
        assert_eq!(xpath_substring("12345", f64::NAN, 3.0), "");
        assert_eq!(xpath_substring("12345", 1.0, f64::NAN), "");
        assert_eq!(xpath_substring("12345", -42.0, f64::INFINITY), "12345");
        assert_eq!(xpath_substring("", 1.0, 5.0), "");
        // Multi-byte characters count as one position each.
        assert_eq!(xpath_substring("héllo", 2.0, 2.0), "él");
    }

    #[test]
    fn context_solo_has_position_one_of_one() {
        let doc = parse("<a/>").unwrap();
        let ctx = Context::solo(NodeRef::Node(doc.document_node()));
        assert_eq!(ctx.position, 1);
        assert_eq!(ctx.size, 1);
    }
}
