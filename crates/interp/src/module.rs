//! The interpreted TDF module: executes a minic `processing()` body inside
//! the `tdf-sim` kernel, emitting a def/use event for every variable
//! access — the dynamic-analysis instrumentation of the paper, without the
//! printf round trip. The bodies are lowered once to resolved slots, and
//! their [`Sym`]s and write-site [`ProvId`]s bound once per interner, so an
//! activation neither hashes a string nor allocates.

use minic::{BinOp, Block, Expr, ExprKind, Function, Stmt, StmtKind, TranslationUnit, UnOp};
use tdf_sim::{
    CompactEvent, EventKind, Interner, ModuleClass, ModuleSpec, ProcessingCtx, ProvId, Sample, Sym,
    TdfModule, Value,
};

use crate::error::{InterpError, Result};
use crate::interface::{Interface, TdfModelDef, VarKind};

/// Safety valve against runaway `while`/`for` loops in model code.
const MAX_LOOP_ITERATIONS: usize = 1_000_000;

/// A TDF module whose behaviour is an interpreted minic `processing()` body.
///
/// Every definition and use executed is reported to the simulator's
/// [`EventSink`](tdf_sim::EventSink); output-port writes stamp the produced
/// [`Sample`] with `(port, line, model)` provenance so downstream models can
/// attribute the samples they read.
pub struct InterpModule {
    name: String,
    def: TdfModelDef,
    program: Program,
    members: Vec<Value>,
    /// The local frame, reset to default values before each body run.
    frame: Vec<Value>,
    /// Per out-port: this activation's last write and its write site.
    outs: Vec<Option<(Value, usize)>>,
    /// Whether the next activation first runs `model::initialize()` — the
    /// paper's "location of initialize() function" definition site.
    run_init: bool,
    binding: Option<Binding>,
}

impl std::fmt::Debug for InterpModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterpModule")
            .field("name", &self.name)
            .field("model", &self.def.model)
            .finish()
    }
}

impl InterpModule {
    /// Binds the `model::processing()` function from `tu` to `interface`.
    ///
    /// # Errors
    ///
    /// * [`InterpError::NonUnitRate`] — an interface port has a rate other
    ///   than 1 (interpreted models are single-rate; use native components
    ///   for multirate blocks);
    /// * [`InterpError::MissingProcessing`] — no such function in `tu`;
    /// * [`InterpError::DuplicateName`] — interface declares a name twice;
    /// * [`InterpError::UnknownIdentifier`] — the body references a name
    ///   that is neither a declared local nor in the interface;
    /// * [`InterpError::WriteToInput`] — the body assigns an input port.
    pub fn new(tu: &TranslationUnit, model: &str, interface: Interface) -> Result<InterpModule> {
        Self::with_processing(tu, model, "processing", interface)
    }

    /// Like [`InterpModule::new`], but the behaviour lives in a user-named
    /// function instead of `processing()` — the `register_processing()`
    /// mechanism of §V ("it could also be in a user defined function. This
    /// is registered in the elaboration phase").
    ///
    /// # Errors
    ///
    /// Same as [`InterpModule::new`], with [`InterpError::MissingProcessing`]
    /// referring to the registered function.
    pub fn with_processing(
        tu: &TranslationUnit,
        model: &str,
        registered: &str,
        interface: Interface,
    ) -> Result<InterpModule> {
        let ports = interface.inputs.iter().chain(&interface.outputs);
        if let Some(p) = ports.clone().find(|p| p.rate != 1) {
            let (model, port, rate) = (model.to_owned(), p.name.clone(), p.rate);
            return Err(InterpError::NonUnitRate { model, port, rate });
        }
        let Some(function) = tu.function(model, registered) else {
            return Err(InterpError::MissingProcessing {
                model: model.to_owned(),
            });
        };
        let names = interface.names();
        if let Some(i) = (1..names.len()).find(|&i| names[..i].contains(&names[i])) {
            let (model, name) = (model.to_owned(), names[i].to_owned());
            return Err(InterpError::DuplicateName { model, name });
        }
        let init = tu.function(model, "initialize");
        let program = Program::lower(model, &interface, function, init)?;
        Ok(InterpModule {
            name: model.to_owned(),
            members: interface.members.iter().map(|&(_, v)| v).collect(),
            frame: vec![Value::default(); program.locals],
            outs: vec![None; interface.outputs.len()],
            run_init: program.init.is_some(),
            binding: None,
            def: TdfModelDef::new(model, interface),
            program,
        })
    }

    /// The model definition (name + interface), as consumed by the static
    /// analysis.
    pub fn model_def(&self) -> &TdfModelDef {
        &self.def
    }

    /// Resolution kind of `name`, if it exists in this model.
    pub fn kind_of(&self, name: &str) -> Option<VarKind> {
        let local = self.program.names.iter().any(|n| n == name);
        (self.def.interface.kind_of(name)).or(local.then_some(VarKind::Local))
    }

    /// Current value of member `name` (testing/debug aid).
    pub fn member(&self, name: &str) -> Option<Value> {
        let mut names = self.def.interface.members.iter();
        names.position(|(m, _)| m == name).map(|i| self.members[i])
    }
}

impl TdfModule for InterpModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> ModuleSpec {
        ModuleSpec {
            in_ports: self.def.interface.inputs.clone(),
            out_ports: self.def.interface.outputs.clone(),
            timestep: self.def.interface.timestep,
        }
    }

    fn class(&self) -> ModuleClass {
        ModuleClass::UserCode
    }

    fn initialize(&mut self) {
        let initial = self.def.interface.members.iter().map(|&(_, v)| v);
        self.members = initial.collect();
        self.run_init = self.program.init.is_some();
        self.binding = None;
    }

    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>) {
        let interner = ctx.interner() as *const Interner as usize;
        if self.binding.as_ref().is_none_or(|b| b.interner != interner) {
            self.binding = Some(self.program.bind(&self.name, ctx.interner()));
        }
        let binding = self.binding.as_ref().expect("just bound");
        self.outs.fill(None);
        let mut act = Activation {
            model: &self.name,
            binding,
            frame: &mut self.frame,
            members: &mut self.members,
            outs: &mut self.outs,
            ctx,
        };
        if let (true, Some(init)) = (std::mem::take(&mut self.run_init), &self.program.init) {
            act.run_body(init);
        }
        act.run_body(&self.program.body);
        // Unwritten ports are padded as undefined by the kernel.
        for (port, out) in self.outs.iter().enumerate() {
            if let Some((v, site)) = *out {
                ctx.write(port, Sample::stamped(v, binding.provs[site]));
            }
        }
    }
}

/// Builtin math functions callable from minic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    Abs,
    Min,
    Max,
    Sqrt,
    Floor,
    Ceil,
    Pow,
}

impl Builtin {
    fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "abs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "sqrt" => Builtin::Sqrt,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "pow" => Builtin::Pow,
            _ => return None,
        })
    }

    /// The builtin of the first two arguments (missing ones read as 0).
    fn apply(self, a: f64, b: f64) -> Value {
        Value::Double(match self {
            Builtin::Abs => a.abs(),
            Builtin::Min => a.min(b),
            Builtin::Max => a.max(b),
            Builtin::Sqrt => a.max(0.0).sqrt(),
            Builtin::Floor => a.floor(),
            Builtin::Ceil => a.ceil(),
            Builtin::Pow => a.powf(b),
        })
    }
}

/// Where a variable lives. An out-port *write* also names its write site
/// in [`Program::sites`], whose provenance stamps the sample; reads of the
/// port ignore it.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Local(usize),
    Member(usize),
    In(usize),
    Out(usize, usize),
}

/// A def/use site: the variable's index in [`Program::names`] and its line.
#[derive(Debug, Clone, Copy)]
struct Site {
    var: usize,
    line: u32,
}

enum Ex {
    Const(Value),
    Read(Slot, Site),
    Un(UnOp, Box<Ex>),
    Bin(BinOp, Box<Ex>, Box<Ex>),
    Call(Builtin, Vec<Ex>),
}

enum St {
    /// A declaration with initializer, an assignment or a port write: the
    /// target's read if compound, the value, the store and the def.
    Set(Slot, Option<BinOp>, Ex, Site),
    If(Ex, Vec<St>, Vec<St>),
    /// `for` and `while` (named by `what` in the runaway-loop panic).
    Loop {
        init: Option<Box<St>>,
        cond: Option<Ex>,
        step: Option<Box<St>>,
        body: Vec<St>,
        what: &'static str,
        line: u32,
    },
    Block(Vec<St>),
    Eval(Ex),
    Return,
    Break,
    Continue,
}

/// A model's `processing()` and `initialize()` bodies, lowered once.
struct Program {
    body: Vec<St>,
    init: Option<Vec<St>>,
    /// Every interface name and every local, by variable index.
    names: Vec<String>,
    /// Local frame size.
    locals: usize,
    /// Out-port write sites.
    sites: Vec<Site>,
}

/// A [`Program`]'s ids in one interner (identified by address).
struct Binding {
    interner: usize,
    model: Sym,
    /// Per variable index.
    vars: Vec<Sym>,
    /// Per write site: the interned `(port, line, model)` provenance.
    provs: Vec<ProvId>,
}

impl Program {
    /// Lowers the bodies, resolving names interface-first (so a local
    /// never hides a port) and reporting the first error a pre-order walk
    /// meets, `initialize()` before the processing body.
    fn lower(
        model: &str,
        interface: &Interface,
        body: &Function,
        init: Option<&Function>,
    ) -> Result<Program> {
        let names = interface.names().into_iter().map(str::to_owned).collect();
        let mut l = Lower {
            model,
            interface,
            names,
            locals: Vec::new(),
            sites: Vec::new(),
            order: 0,
            error: None,
        };
        let init = init.map(|f| l.block(&f.body));
        let body = l.block(&body.body);
        // A local resolves iff some body declares it, wherever it is first
        // referenced; an undeclared one fails at its first reference.
        let unknown = l.locals.iter().filter(|v| !v.declared).filter_map(|v| {
            let ((order, line), name) = (v.first_ref?, v.name.clone());
            let model = model.to_owned();
            Some((order, InterpError::UnknownIdentifier { model, name, line }))
        });
        if let Some((_, e)) = l.error.into_iter().chain(unknown).min_by_key(|(o, _)| *o) {
            return Err(e);
        }
        Ok(Program {
            body,
            init,
            names: l.names,
            locals: l.locals.len(),
            sites: l.sites,
        })
    }

    /// Interns the model, every name and every write site's provenance.
    fn bind(&self, model: &str, interner: &Interner) -> Binding {
        let model = interner.intern(model);
        let vars: Vec<Sym> = self.names.iter().map(|n| interner.intern(n)).collect();
        let provs = (self.sites.iter())
            .map(|s| interner.intern_triple(vars[s.var], s.line, model))
            .collect();
        let interner = interner as *const Interner as usize;
        Binding {
            interner,
            model,
            vars,
            provs,
        }
    }
}

struct LocalVar {
    name: String,
    declared: bool,
    /// Pre-order position and line of the first reference.
    first_ref: Option<(u32, u32)>,
}

struct Lower<'a> {
    model: &'a str,
    interface: &'a Interface,
    names: Vec<String>,
    locals: Vec<LocalVar>,
    sites: Vec<Site>,
    /// Pre-order position of the latest resolution point.
    order: u32,
    /// The first error found on the spot, with its position.
    error: Option<(u32, InterpError)>,
}

impl Lower<'_> {
    fn var(&mut self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_owned());
                self.names.len() - 1
            })
    }

    fn local(&mut self, name: &str) -> usize {
        self.locals
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| {
                self.locals.push(LocalVar {
                    name: name.to_owned(),
                    declared: false,
                    first_ref: None,
                });
                self.locals.len() - 1
            })
    }

    fn fail(&mut self, error: InterpError) {
        self.error.get_or_insert((self.order, error));
    }

    /// Resolves a referenced name: interface first, then locals.
    fn resolve(&mut self, name: &str, line: u32) -> (Slot, Site) {
        self.order += 1;
        let (var, iface) = (self.var(name), self.interface);
        let slot = if let Some(i) = iface.inputs.iter().position(|p| p.name == name) {
            Slot::In(i)
        } else if let Some(i) = iface.outputs.iter().position(|p| p.name == name) {
            Slot::Out(i, 0)
        } else if let Some(i) = iface.members.iter().position(|(m, _)| m == name) {
            Slot::Member(i)
        } else {
            let l = self.local(name);
            self.locals[l].first_ref.get_or_insert((self.order, line));
            Slot::Local(l)
        };
        (slot, Site { var, line })
    }

    /// Resolves an assignment or port-write target.
    fn target(&mut self, name: &str, line: u32) -> (Slot, Site) {
        match self.resolve(name, line) {
            (Slot::Out(port, _), at) => {
                self.sites.push(at);
                (Slot::Out(port, self.sites.len() - 1), at)
            }
            (Slot::In(_), at) => {
                let (model, name) = (self.model.to_owned(), name.to_owned());
                self.fail(InterpError::WriteToInput { model, name, line });
                (Slot::In(0), at)
            }
            resolved => resolved,
        }
    }

    fn block(&mut self, b: &Block) -> Vec<St> {
        b.stmts.iter().filter_map(|s| self.stmt(s)).collect()
    }

    /// Lowers one statement (a declaration without initializer only declares).
    fn stmt(&mut self, s: &Stmt) -> Option<St> {
        let line = s.span.line();
        Some(match &s.kind {
            StmtKind::Decl { name, init, .. } => {
                let l = self.local(name);
                self.locals[l].declared = true;
                let value = self.expr(init.as_ref()?);
                let var = self.var(name);
                St::Set(Slot::Local(l), None, value, Site { var, line })
            }
            StmtKind::Assign { target, op, value } => {
                let (slot, at) = self.target(target, line);
                St::Set(slot, op.binop(), self.expr(value), at)
            }
            StmtKind::Write { port, value } => {
                let (slot, at) = self.target(port, line);
                St::Set(slot, None, self.expr(value), at)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.expr(cond);
                let then = self.block(then_branch);
                St::If(
                    cond,
                    then,
                    else_branch
                        .as_ref()
                        .map_or_else(Vec::new, |b| self.block(b)),
                )
            }
            StmtKind::While { cond, body } => St::Loop {
                init: None,
                cond: Some(self.expr(cond)),
                step: None,
                body: self.block(body),
                what: "while",
                line,
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => St::Loop {
                // Pre-order visits the step before the body.
                init: init.as_ref().and_then(|i| self.stmt(i)).map(Box::new),
                cond: cond.as_ref().map(|c| self.expr(c)),
                step: step.as_ref().and_then(|st| self.stmt(st)).map(Box::new),
                body: self.block(body),
                what: "for",
                line,
            },
            StmtKind::Return => St::Return,
            StmtKind::Break => St::Break,
            StmtKind::Continue => St::Continue,
            StmtKind::Block(b) => St::Block(self.block(b)),
            StmtKind::Expr(e) => St::Eval(self.expr(e)),
        })
    }

    fn expr(&mut self, e: &Expr) -> Ex {
        let line = e.span.line();
        match &e.kind {
            ExprKind::IntLit(v) => Ex::Const(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ex::Const(Value::Double(*v)),
            ExprKind::BoolLit(v) => Ex::Const(Value::Bool(*v)),
            ExprKind::Var(name) => {
                let (slot, at) = self.resolve(name, line);
                Ex::Read(slot, at)
            }
            ExprKind::MethodCall { receiver, args, .. } => {
                let (slot, at) = self.resolve(receiver, line);
                // Arguments are checked, but `port.read()` never runs them.
                for a in args {
                    self.expr(a);
                }
                Ex::Read(slot, at)
            }
            ExprKind::Unary(op, inner) => Ex::Un(*op, Box::new(self.expr(inner))),
            ExprKind::Binary(op, l, r) => {
                let l = Box::new(self.expr(l));
                Ex::Bin(*op, l, Box::new(self.expr(r)))
            }
            ExprKind::Call { callee, args } => {
                self.order += 1;
                let f = Builtin::from_name(callee);
                if f.is_none() {
                    let (model, name) = (self.model.to_owned(), callee.clone());
                    self.fail(InterpError::UnknownIdentifier { model, name, line });
                }
                let args = args.iter().map(|a| self.expr(a)).collect();
                Ex::Call(f.unwrap_or(Builtin::Abs), args)
            }
        }
    }
}

/// Control-flow outcome of executing a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

struct Activation<'m, 'c> {
    model: &'m str,
    binding: &'m Binding,
    frame: &'m mut [Value],
    members: &'m mut [Value],
    outs: &'m mut [Option<(Value, usize)>],
    ctx: &'m mut ProcessingCtx<'c>,
}

impl Activation<'_, '_> {
    fn emit(&mut self, at: Site, kind: EventKind, prov: ProvId, defined: bool) {
        let event = CompactEvent {
            time: self.ctx.time(),
            model: self.binding.model,
            var: self.binding.vars[at.var],
            line: at.line,
            kind,
            prov,
            defined,
        };
        self.ctx.emit_compact(event);
    }

    /// Runs one body from a fresh default-valued local frame.
    fn run_body(&mut self, body: &[St]) {
        self.frame.fill(Value::default());
        self.block(body);
    }

    fn block(&mut self, b: &[St]) -> Flow {
        for s in b {
            match self.stmt(s) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn stmt(&mut self, s: &St) -> Flow {
        match s {
            St::Set(slot, compound, value, at) => {
                let base = compound.map(|op| (self.read(*slot, *at), op));
                let rhs = self.eval(value);
                let v = base.map_or(rhs, |(b, op)| apply_binop(op, b, rhs));
                match *slot {
                    Slot::Local(l) => self.frame[l] = v,
                    Slot::Member(i) => self.members[i] = v,
                    Slot::Out(port, site) => self.outs[port] = Some((v, site)),
                    Slot::In(_) => unreachable!("input writes fail to lower"),
                }
                self.emit(*at, EventKind::Def, ProvId::NONE, true);
            }
            St::If(cond, then_branch, else_branch) => {
                let taken = self.eval(cond).as_bool();
                return self.block(if taken { then_branch } else { else_branch });
            }
            St::Loop {
                init,
                cond,
                step,
                body,
                what,
                line,
            } => {
                if init.as_ref().is_some_and(|i| self.stmt(i) == Flow::Return) {
                    return Flow::Return;
                }
                let mut iters = 0usize;
                while cond.as_ref().is_none_or(|c| self.eval(c).as_bool()) {
                    iters += 1;
                    assert!(
                        iters <= MAX_LOOP_ITERATIONS,
                        "runaway {what} loop in model `{}` (line {line})",
                        self.model
                    );
                    match self.block(body) {
                        Flow::Break => break,
                        Flow::Return => return Flow::Return,
                        Flow::Continue | Flow::Normal => {}
                    }
                    if step
                        .as_ref()
                        .is_some_and(|st| self.stmt(st) == Flow::Return)
                    {
                        return Flow::Return;
                    }
                }
            }
            St::Return => return Flow::Return,
            St::Break => return Flow::Break,
            St::Continue => return Flow::Continue,
            St::Block(b) => return self.block(b),
            St::Eval(e) => {
                self.eval(e);
            }
        }
        Flow::Normal
    }

    /// Reads a variable, emitting the corresponding use event.
    fn read(&mut self, slot: Slot, at: Site) -> Value {
        let (value, prov, defined) = match slot {
            Slot::In(i) => {
                let s = *self.ctx.input1(i);
                (s.value, s.prov, s.defined)
            }
            // Reading back an output port: the value written earlier in
            // this activation (or default).
            Slot::Out(i, _) => {
                let v = self.outs[i].map_or_else(Value::default, |(v, _)| v);
                (v, ProvId::NONE, true)
            }
            Slot::Member(i) => (self.members[i], ProvId::NONE, true),
            Slot::Local(l) => (self.frame[l], ProvId::NONE, true),
        };
        self.emit(at, EventKind::Use, prov, defined);
        value
    }

    fn eval(&mut self, e: &Ex) -> Value {
        match e {
            Ex::Const(v) => *v,
            Ex::Read(slot, at) => self.read(*slot, *at),
            Ex::Un(UnOp::Neg, inner) => match self.eval(inner) {
                Value::Int(i) => Value::Int(-i),
                other => Value::Double(-other.as_f64()),
            },
            Ex::Un(UnOp::Not, inner) => Value::Bool(!self.eval(inner).as_bool()),
            // Short-circuit evaluation: skipped operands really are
            // skipped, so their uses are *not* exercised — faithful to the
            // instrumented-C++ behaviour.
            Ex::Bin(BinOp::And, l, r) => {
                Value::Bool(self.eval(l).as_bool() && self.eval(r).as_bool())
            }
            Ex::Bin(BinOp::Or, l, r) => {
                Value::Bool(self.eval(l).as_bool() || self.eval(r).as_bool())
            }
            Ex::Bin(op, l, r) => {
                let lv = self.eval(l);
                apply_binop(*op, lv, self.eval(r))
            }
            // Every argument is evaluated (its uses are exercised); the
            // builtins read the first two.
            Ex::Call(f, args) => {
                let mut a = [0.0; 2];
                for (i, arg) in args.iter().enumerate() {
                    let v = self.eval(arg).as_f64();
                    if let Some(slot) = a.get_mut(i) {
                        *slot = v;
                    }
                }
                f.apply(a[0], a[1])
            }
        }
    }
}

fn both_int(l: Value, r: Value) -> Option<(i64, i64)> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Some((a, b)),
        (Value::Int(a), Value::Bool(b)) => Some((a, b as i64)),
        (Value::Bool(a), Value::Int(b)) => Some((a as i64, b)),
        (Value::Bool(a), Value::Bool(b)) => Some((a as i64, b as i64)),
        _ => None,
    }
}

/// C-like arithmetic: integer ops stay integral, anything touching a double
/// promotes; comparisons yield bools; integer division by zero yields 0
/// (documented deviation from C's UB, chosen for determinism).
fn apply_binop(op: BinOp, l: Value, r: Value) -> Value {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            if let Some((a, b)) = both_int(l, r) {
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    _ => unreachable!(),
                };
                Value::Int(v)
            } else {
                let (a, b) = (l.as_f64(), r.as_f64());
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                };
                Value::Double(v)
            }
        }
        BinOp::Eq => Value::Bool(l.numeric_eq(r)),
        BinOp::Ne => Value::Bool(!l.numeric_eq(r)),
        BinOp::Lt => Value::Bool(l.as_f64() < r.as_f64()),
        BinOp::Le => Value::Bool(l.as_f64() <= r.as_f64()),
        BinOp::Gt => Value::Bool(l.as_f64() > r.as_f64()),
        BinOp::Ge => Value::Bool(l.as_f64() >= r.as_f64()),
        BinOp::And | BinOp::Or => unreachable!("short-circuited in eval"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_sim::{
        Cluster, Event, FnSource, NullSink, Probe, Provenance, RecordingSink, SimTime, Simulator,
    };

    fn run_model(
        src: &str,
        model: &str,
        iface: Interface,
        input_value: f64,
        periods: u64,
    ) -> (Vec<Event>, Vec<f64>) {
        let tu = minic::parse(src).expect("parses");
        let module = InterpModule::new(&tu, model, iface).expect("binds");
        let has_input = !module.def.interface.inputs.is_empty();
        let in_name = module.def.interface.inputs.first().map(|p| p.name.clone());
        let out_name = module.def.interface.outputs.first().map(|p| p.name.clone());

        let mut cluster = Cluster::new("top");
        let mid = cluster.add_module(Box::new(module)).unwrap();
        if let (true, Some(inp)) = (has_input, in_name) {
            let srcm = cluster
                .add_module(Box::new(FnSource::new(
                    "src",
                    SimTime::from_us(1),
                    move |_| Value::Double(input_value),
                )))
                .unwrap();
            cluster.connect(srcm, "op_out", mid, &inp).unwrap();
        }
        let trace = out_name.map(|out| {
            let (probe, buf) = Probe::new("probe");
            let pid = cluster.add_module(Box::new(probe)).unwrap();
            cluster.connect(mid, &out, pid, "tdf_i").unwrap();
            buf
        });
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(periods, &mut sink).unwrap();
        let values = trace.map(|t| t.values_f64()).unwrap_or_default();
        (sink.events, values)
    }

    const TS_SRC: &str = "\
void TS::processing()
{
    double sig_in = ip_signal_in;
    double tmpr = sig_in*1000;
    double out_tmpr = 0;
    bool intr_ = false;
    if (!ip_hold){
        if (ip_clear) intr_ = 0;
        else if ((tmpr > 30) && (tmpr < 1500 )){
            out_tmpr = tmpr;
            intr_ = true;
        }
        op_intr.write(intr_);
        op_signal_out = out_tmpr;
    }
}";

    fn ts_iface() -> Interface {
        Interface::new()
            .input("ip_signal_in")
            .input("ip_hold")
            .input("ip_clear")
            .output("op_intr")
            .output("op_signal_out")
            .timestep(SimTime::from_us(1))
    }

    #[test]
    fn binds_fig2_ts_model() {
        let tu = minic::parse(TS_SRC).unwrap();
        let m = InterpModule::new(&tu, "TS", ts_iface()).unwrap();
        assert_eq!(m.kind_of("tmpr"), Some(VarKind::Local));
        assert_eq!(m.kind_of("ip_hold"), Some(VarKind::InPort(1)));
        assert_eq!(m.kind_of("op_intr"), Some(VarKind::OutPort(0)));
    }

    #[test]
    fn missing_processing_reported() {
        let tu = minic::parse("void X::processing() { }").unwrap();
        let err = InterpModule::new(&tu, "TS", Interface::new()).unwrap_err();
        assert!(matches!(err, InterpError::MissingProcessing { .. }));
    }

    #[test]
    fn unknown_identifier_reported_with_line() {
        let tu = minic::parse("void M::processing() {\n  x = missing;\n}").unwrap();
        let err = InterpModule::new(&tu, "M", Interface::new().member("x", 0i64)).unwrap_err();
        let InterpError::UnknownIdentifier { name, line, .. } = err else {
            panic!("wrong error");
        };
        assert_eq!(name, "missing");
        assert_eq!(line, 2);
    }

    #[test]
    fn write_to_input_rejected() {
        let tu = minic::parse("void M::processing() { ip_x = 1; }").unwrap();
        let err = InterpModule::new(&tu, "M", Interface::new().input("ip_x")).unwrap_err();
        assert!(matches!(err, InterpError::WriteToInput { .. }));
    }

    #[test]
    fn duplicate_interface_name_rejected() {
        let tu = minic::parse("void M::processing() { }").unwrap();
        let err = InterpModule::new(&tu, "M", Interface::new().input("x").output("x")).unwrap_err();
        assert!(matches!(err, InterpError::DuplicateName { .. }));
    }

    #[test]
    fn simple_pipeline_computes() {
        // Scale volts to millivolts and pass threshold.
        let src = "void M::processing() {\n\
                   double t = ip_in * 1000;\n\
                   if (t > 30) { op_out = t; } else { op_out = 0; }\n\
                   }";
        let iface = Interface::new()
            .input("ip_in")
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (_, vals) = run_model(src, "M", iface, 0.1, 3);
        assert_eq!(vals, vec![100.0, 100.0, 100.0]);
        let iface2 = Interface::new()
            .input("ip_in")
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (_, vals2) = run_model(src, "M", iface2, 0.02, 2);
        assert_eq!(vals2, vec![0.0, 0.0], "below threshold goes to else");
    }

    #[test]
    fn def_use_events_carry_lines() {
        let src = "void M::processing() {\n\
                   double t = ip_in * 2;\n\
                   op_out = t;\n\
                   }";
        let iface = Interface::new()
            .input("ip_in")
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (events, _) = run_model(src, "M", iface, 1.0, 1);
        // use ip_in @2, def t @2, use t @3, def op_out @3
        let summary: Vec<(bool, &str, u32)> = events
            .iter()
            .map(|e| match e {
                Event::Def { var, line, .. } => (true, var.as_str(), *line),
                Event::Use { var, line, .. } => (false, var.as_str(), *line),
            })
            .collect();
        assert_eq!(
            summary,
            vec![
                (false, "ip_in", 2),
                (true, "t", 2),
                (false, "t", 3),
                (true, "op_out", 3),
            ]
        );
    }

    #[test]
    fn input_port_use_carries_feeding_provenance() {
        // Chain two interp models: A defines op_y, B reads ip_x.
        let src = "void A::processing() { op_y = 5; }\n\
                   void B::processing() { double v = ip_x; op_z = v; }";
        let tu = minic::parse(src).unwrap();
        let a = InterpModule::new(
            &tu,
            "A",
            Interface::new()
                .output("op_y")
                .timestep(SimTime::from_us(1)),
        )
        .unwrap();
        let b = InterpModule::new(&tu, "B", Interface::new().input("ip_x").output("op_z")).unwrap();
        let mut cluster = Cluster::new("top");
        let aid = cluster.add_module(Box::new(a)).unwrap();
        let bid = cluster.add_module(Box::new(b)).unwrap();
        cluster.connect(aid, "op_y", bid, "ip_x").unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(1, &mut sink).unwrap();
        let use_ev = sink
            .events
            .iter()
            .find_map(|e| match e {
                Event::Use {
                    var,
                    feeding: Some(p),
                    ..
                } if var == "ip_x" => Some(p.clone()),
                _ => None,
            })
            .expect("input use with provenance");
        assert_eq!(use_ev, Provenance::new("op_y", 1, "A"));
    }

    #[test]
    fn short_circuit_skips_right_operand_uses() {
        let src = "void M::processing() {\n\
                   bool a = false;\n\
                   bool c = a && ip_in;\n\
                   op_out = c;\n\
                   }";
        let iface = Interface::new()
            .input("ip_in")
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (events, _) = run_model(src, "M", iface, 1.0, 1);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::Use { var, .. } if var == "ip_in")),
            "ip_in must not be used when && short-circuits"
        );
    }

    #[test]
    fn members_persist_across_activations() {
        let src = "void M::processing() {\n\
                   m_count = m_count + 1;\n\
                   op_out = m_count;\n\
                   }";
        let iface = Interface::new()
            .member("m_count", 0i64)
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (_, vals) = run_model(src, "M", iface, 0.0, 4);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn initialize_resets_members() {
        let src = "void M::processing() { m_c = m_c + 1; op_out = m_c; }";
        let tu = minic::parse(src).unwrap();
        let mut m = InterpModule::new(
            &tu,
            "M",
            Interface::new()
                .member("m_c", 10i64)
                .output("op_out")
                .timestep(SimTime::from_us(1)),
        )
        .unwrap();
        assert_eq!(m.member("m_c"), Some(Value::Int(10)));
        m.initialize();
        assert_eq!(m.member("m_c"), Some(Value::Int(10)));
    }

    #[test]
    fn unwritten_output_port_yields_undefined_downstream() {
        // M only writes op_out when the input exceeds a threshold;
        // downstream use of the unwritten port is flagged undefined.
        let src = "void A::processing() { if (ip_in > 10) { op_y = 1; } }\n\
                   void B::processing() { op_z = ip_x; }";
        let tu = minic::parse(src).unwrap();
        let a = InterpModule::new(
            &tu,
            "A",
            Interface::new()
                .input("ip_in")
                .output("op_y")
                .timestep(SimTime::from_us(1)),
        )
        .unwrap();
        let b = InterpModule::new(&tu, "B", Interface::new().input("ip_x").output("op_z")).unwrap();
        let mut cluster = Cluster::new("top");
        let srcm = cluster
            .add_module(Box::new(FnSource::new("src", SimTime::from_us(1), |_| {
                Value::Double(0.0)
            })))
            .unwrap();
        let aid = cluster.add_module(Box::new(a)).unwrap();
        let bid = cluster.add_module(Box::new(b)).unwrap();
        cluster.connect(srcm, "op_out", aid, "ip_in").unwrap();
        cluster.connect(aid, "op_y", bid, "ip_x").unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(1, &mut sink).unwrap();
        let undef_use = sink
            .events
            .iter()
            .any(|e| matches!(e, Event::Use { var, defined: false, .. } if var == "ip_x"));
        assert!(undef_use, "B reads an undefined sample");
    }

    #[test]
    fn loops_and_builtins_execute() {
        let src = "void M::processing() {\n\
                   double acc = 0;\n\
                   for (int i = 0; i < 4; i++) { acc += sqrt(ip_in); }\n\
                   int guard = 0;\n\
                   while (guard < 2) { guard++; }\n\
                   op_out = max(acc, guard);\n\
                   }";
        let iface = Interface::new()
            .input("ip_in")
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (_, vals) = run_model(src, "M", iface, 4.0, 1);
        assert_eq!(vals, vec![8.0]); // 4 * sqrt(4) = 8 > 2
    }

    #[test]
    fn integer_division_truncates_like_c() {
        let src = "void M::processing() {\n\
                   op_out = ip_in / 10;\n\
                   }";
        // Feed an int through: use an interp source to keep Int typing.
        let full = format!("void S::processing() {{ op_out = 599; }}\n{src}");
        let tu = minic::parse(&full).unwrap();
        let s = InterpModule::new(
            &tu,
            "S",
            Interface::new()
                .output("op_out")
                .timestep(SimTime::from_us(1)),
        )
        .unwrap();
        let m =
            InterpModule::new(&tu, "M", Interface::new().input("ip_in").output("op_out")).unwrap();
        let mut cluster = Cluster::new("top");
        let sid = cluster.add_module(Box::new(s)).unwrap();
        let mid = cluster.add_module(Box::new(m)).unwrap();
        let (probe, buf) = Probe::new("probe");
        let pid = cluster.add_module(Box::new(probe)).unwrap();
        cluster.connect(sid, "op_out", mid, "ip_in").unwrap();
        cluster.connect(mid, "op_out", pid, "tdf_i").unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run_periods(1, &mut NullSink).unwrap();
        assert_eq!(buf.values_f64(), vec![59.0], "599 / 10 == 59 in C");
    }

    #[test]
    fn division_by_zero_int_yields_zero() {
        assert_eq!(
            apply_binop(BinOp::Div, Value::Int(5), Value::Int(0)),
            Value::Int(0)
        );
        assert_eq!(
            apply_binop(BinOp::Rem, Value::Int(5), Value::Int(0)),
            Value::Int(0)
        );
    }

    #[test]
    fn mixed_arithmetic_promotes_to_double() {
        assert_eq!(
            apply_binop(BinOp::Add, Value::Int(1), Value::Double(0.5)),
            Value::Double(1.5)
        );
        assert_eq!(
            apply_binop(BinOp::Mul, Value::Bool(true), Value::Int(3)),
            Value::Int(3)
        );
    }

    #[test]
    fn comparisons_are_boolean() {
        assert_eq!(
            apply_binop(BinOp::Lt, Value::Int(1), Value::Double(1.5)),
            Value::Bool(true)
        );
        assert_eq!(
            apply_binop(BinOp::Eq, Value::Bool(true), Value::Int(1)),
            Value::Bool(true)
        );
    }

    #[test]
    fn builtins_compute() {
        let f = |name: &str| Builtin::from_name(name).expect("builtin");
        assert_eq!(f("abs").apply(-2.0, 0.0), Value::Double(2.0));
        assert_eq!(f("min").apply(1.0, 2.0), Value::Double(1.0));
        assert_eq!(f("sqrt").apply(-1.0, 0.0), Value::Double(0.0));
        assert_eq!(f("pow").apply(2.0, 3.0), Value::Double(8.0));
        assert_eq!(Builtin::from_name("nope"), None);
    }

    #[test]
    fn non_unit_rate_is_a_typed_error() {
        let tu = minic::parse("void M::processing() { op_y = ip_x; }").unwrap();
        let iface = Interface::new()
            .input_spec(tdf_sim::PortSpec::new("ip_x").with_rate(2))
            .output("op_y");
        let err = InterpModule::new(&tu, "M", iface).unwrap_err();
        assert_eq!(
            err,
            InterpError::NonUnitRate {
                model: "M".into(),
                port: "ip_x".into(),
                rate: 2,
            }
        );
    }

    #[test]
    fn first_error_in_preorder_wins() {
        // `later` is declared further down, so only `ghost` is unknown; the
        // input write on line 3 comes after it.
        let src =
            "void M::processing() {\n  op_y = ghost + later;\n  ip_x = 1;\n  double later = 2;\n}";
        let tu = minic::parse(src).unwrap();
        let iface = || Interface::new().input("ip_x").output("op_y");
        let err = InterpModule::new(&tu, "M", iface()).unwrap_err();
        assert!(
            matches!(err, InterpError::UnknownIdentifier { ref name, line: 2, .. } if name == "ghost")
        );
        let tu = minic::parse("void M::processing() {\n  ip_x = 1;\n  op_y = ghost;\n}").unwrap();
        let err = InterpModule::new(&tu, "M", iface()).unwrap_err();
        assert!(matches!(err, InterpError::WriteToInput { line: 2, .. }));
        // initialize() is checked before the processing body.
        let src = "void M::processing() { op_y = a; }\nvoid M::initialize() {\n  op_y = b;\n}";
        let err = InterpModule::new(&minic::parse(src).unwrap(), "M", iface()).unwrap_err();
        assert!(
            matches!(err, InterpError::UnknownIdentifier { ref name, line: 3, .. } if name == "b")
        );
    }

    #[test]
    fn local_shadowing_a_port_never_hides_it() {
        // The declaration defines a dead local; reads still see the port.
        let src = "void M::processing() {\n\
                   double ip_in = 99;\n\
                   op_out = ip_in;\n\
                   }";
        let iface = Interface::new()
            .input("ip_in")
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (events, vals) = run_model(src, "M", iface, 3.0, 1);
        assert_eq!(vals, vec![3.0]);
        assert!(matches!(&events[0], Event::Def { var, line: 2, .. } if var == "ip_in"));
        assert!(matches!(&events[1], Event::Use { var, feeding: None, .. } if var == "ip_in"));
    }

    #[test]
    fn out_port_read_back_sees_the_last_write_whose_line_stamps_the_sample() {
        let src = "void A::processing() {\n\
                   op_y = 2;\n\
                   op_y = op_y * 3;\n\
                   }\n\
                   void B::processing() { op_z = ip_x; }";
        let tu = minic::parse(src).unwrap();
        let a = InterpModule::new(
            &tu,
            "A",
            Interface::new()
                .output("op_y")
                .timestep(SimTime::from_us(1)),
        )
        .unwrap();
        let b = InterpModule::new(&tu, "B", Interface::new().input("ip_x").output("op_z")).unwrap();
        let mut cluster = Cluster::new("top");
        let aid = cluster.add_module(Box::new(a)).unwrap();
        let bid = cluster.add_module(Box::new(b)).unwrap();
        let (probe, buf) = Probe::new("probe");
        let pid = cluster.add_module(Box::new(probe)).unwrap();
        cluster.connect(aid, "op_y", bid, "ip_x").unwrap();
        cluster.connect(bid, "op_z", pid, "tdf_i").unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        let mut sink = RecordingSink::new();
        sim.run_periods(1, &mut sink).unwrap();
        assert_eq!(buf.values_f64(), vec![6.0]);
        let feeding = sink.events.iter().find_map(|e| match e {
            Event::Use { var, feeding, .. } if var == "ip_x" => feeding.clone(),
            _ => None,
        });
        assert_eq!(feeding, Some(Provenance::new("op_y", 3, "A")));
    }

    #[test]
    fn every_builtin_argument_is_evaluated() {
        let src = "void M::processing() {\n\
                   op_out = abs(ip_in, m_a, m_b);\n\
                   }";
        let iface = Interface::new()
            .input("ip_in")
            .member("m_a", 0i64)
            .member("m_b", 0i64)
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let (events, vals) = run_model(src, "M", iface, -2.0, 1);
        assert_eq!(vals, vec![2.0]);
        let used: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Use { var, .. } => Some(var.as_str()),
                Event::Def { .. } => None,
            })
            .collect();
        assert_eq!(used, vec!["ip_in", "m_a", "m_b"]);
    }
}

#[cfg(test)]
mod register_processing_tests {
    use super::*;
    use tdf_sim::{Cluster, NullSink, Probe, SimTime, Simulator};

    #[test]
    fn user_named_processing_function_registers() {
        // §V: behaviour in `sig_proc()` instead of `processing()`.
        let src = "void DSP::sig_proc() { op_out = 7; }";
        let tu = minic::parse(src).unwrap();
        let iface = Interface::new()
            .output("op_out")
            .timestep(SimTime::from_us(1));
        let m = InterpModule::with_processing(&tu, "DSP", "sig_proc", iface).unwrap();
        let mut cluster = Cluster::new("top");
        let id = cluster.add_module(Box::new(m)).unwrap();
        let (probe, buf) = Probe::new("p");
        let pid = cluster.add_module(Box::new(probe)).unwrap();
        cluster.connect(id, "op_out", pid, "tdf_i").unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        sim.run_periods(2, &mut NullSink).unwrap();
        assert_eq!(buf.values_f64(), vec![7.0, 7.0]);
    }

    #[test]
    fn default_name_still_required_when_not_registered() {
        let src = "void DSP::sig_proc() { op_out = 7; }";
        let tu = minic::parse(src).unwrap();
        let err = InterpModule::new(&tu, "DSP", Interface::new().output("op_out"));
        assert!(matches!(err, Err(InterpError::MissingProcessing { .. })));
    }
}

#[cfg(test)]
mod loop_guard_tests {
    use super::*;
    use tdf_sim::{Cluster, NullSink, SimTime, Simulator};

    #[test]
    #[should_panic(expected = "runaway while loop")]
    fn infinite_loop_is_caught() {
        let src = "void M::processing() { while (true) { m_x = m_x + 1; } }";
        let tu = minic::parse(src).unwrap();
        let m = InterpModule::new(
            &tu,
            "M",
            Interface::new()
                .member("m_x", 0i64)
                .timestep(SimTime::from_us(1)),
        )
        .unwrap();
        let mut cluster = Cluster::new("top");
        cluster.add_module(Box::new(m)).unwrap();
        let mut sim = Simulator::new(cluster).unwrap();
        let _ = sim.run_periods(1, &mut NullSink);
    }
}
