package lang

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// Hooks connect the interpreter to its host. Inside a UC the host is
// the simulated runtime: allocations are charged to the UC's address
// space, steps advance the virtual clock, and http.get traverses the
// simulated network proxy. All fields are optional; nil hooks make the
// interpreter a plain standalone evaluator (used by unit tests).
type Hooks struct {
	// Alloc charges n bytes of guest heap (values, environments,
	// compiled code).
	Alloc func(n int)
	// Step charges n abstract interpreter steps (CPU time).
	Step func(n int)
	// Output receives console.log lines.
	Output func(s string)
	// HTTPGet performs an outbound HTTP request from the guest; used by
	// the IO-bound workload functions. Blocks in virtual time.
	HTTPGet func(url string) (string, error)
	// Now returns milliseconds since an arbitrary epoch (Date.now).
	Now func() float64
	// Spin charges ms of pure CPU burn (the CPU-bound workload
	// functions call spin() rather than looping millions of real
	// iterations).
	Spin func(ms float64)
	// Sleep blocks the guest for ms without burning CPU.
	Sleep func(ms float64)
	// Random returns a deterministic uniform sample for Math.random.
	Random func() float64
}

// Interp evaluates MiniJS programs.
type Interp struct {
	globals  *env
	hooks    Hooks
	steps    int64
	maxSteps int64
	depth    int   // call-depth units held by the guest calls in progress
	heap     int64 // host bytes charged since the host last entered the guest
	grown    int64 // host bytes of array slots grown over the interpreter's life
}

// ErrTooManySteps aborts runaway scripts (the platform's execution
// time limit).
var ErrTooManySteps = errors.New("minijs: step budget exhausted")

// A guest runs inside the host process, so what it can make the host do
// is bounded here, not by the operating system. Past either bound the
// guest stops with an error no try/catch can intercept, and the
// platform destroys its UC as it does on a deadline kill.
var (
	// errCallDepth is returned when guest recursion passes MaxCallDepth.
	errCallDepth = errors.New("minijs: maximum call stack size exceeded")
	// errHostMemory is returned when one entry into the guest would
	// charge more than MaxHostBytes.
	errHostMemory = errors.New("minijs: host memory budget exhausted")
)

// maxCallDepth bounds guest recursion, as V8's stack limit bounds Node's
// (about 10 000 frames of a one-line recursive function). A call costs
// one unit, plus one per nestUnit levels of static nesting in the
// function's body, because the evaluator recurses once per level: a
// unit is then at most a few KB of goroutine stack, and the deepest
// recursion any guest can write stays under 64 MB of it
// (TestCallDepthBoundsHostStack), where reaching Go's own 1 GB limit
// would crash the whole process. The parser records each body's nesting
// so that the evaluator pays for the bound once per call: a counter
// kept by eval and execStmt themselves, once per node, made
// BenchmarkInterpreterNOP 4% slower (median of six alternating runs on
// a 2-vCPU VM).
const maxCallDepth = 10_000

// nestUnit is how many levels of static nesting one call-depth unit
// covers; see MaxCallDepth. A one-line body nests about 8 levels.
const nestUnit = 16

// maxHostBytes bounds the host memory one entry into the guest (an
// invocation, a module evaluation) may charge for the strings, arrays
// and objects it builds and for the values it renders as strings. The
// charge is made before the value is built, so a guest that doubles a
// string forty times stops at 64 MiB instead of being killed by the
// operating system. An invocation of the workload corpus charges under
// 1 KB. Array slots that an index or a length creates are the one thing
// a guest keeps that the guest heap does not price (see grow), so they
// are also held to MaxHostBytes over the interpreter's whole life.
const maxHostBytes = 64 << 20

// DefaultStepBudget is the interpreter's lifetime step budget before a
// caller installs a per-invocation limit (LimitSteps).
const DefaultStepBudget = 200_000_000

// control-flow sentinels, implemented as error values.
type breakErr struct{}
type continueErr struct{}

func (breakErr) Error() string    { return "break outside loop" }
func (continueErr) Error() string { return "continue outside loop" }

type returnErr struct{ v Value }

func (returnErr) Error() string { return "return outside function" }

// ThrowError carries a thrown MiniJS value through Go error returns.
type ThrowError struct{ Value Value }

// Error implements the error interface.
func (t *ThrowError) Error() string { return "minijs: uncaught " + ToString(t.Value) }

// New returns an interpreter with the standard builtins installed.
func New(hooks Hooks) *Interp {
	in := &Interp{
		globals:  newEnv(nil),
		hooks:    hooks,
		maxSteps: DefaultStepBudget,
	}
	in.installBuiltins()
	return in
}

// LimitSteps caps execution at n steps *beyond those already
// consumed* — the per-invocation deadline form: steps spent by earlier
// invocations in this interpreter's lifetime do not count against the
// new budget. n <= 0 removes the limit.
func (in *Interp) LimitSteps(n int64) {
	if n <= 0 {
		in.maxSteps = 0
		return
	}
	in.maxSteps = in.steps + n
}

func (in *Interp) step(n int) error {
	in.steps += int64(n)
	if in.hooks.Step != nil {
		in.hooks.Step(n)
	}
	if in.maxSteps > 0 && in.steps > in.maxSteps {
		return ErrTooManySteps
	}
	return nil
}

// alloc charges n bytes of a value about to be built: to the host
// budget, then to the guest heap through the Alloc hook.
func (in *Interp) alloc(n int) error {
	if err := in.charge(n); err != nil {
		return err
	}
	if in.hooks.Alloc != nil {
		in.hooks.Alloc(n)
	}
	return nil
}

// allocN is alloc for count items of size bytes each, without overflow.
func (in *Interp) allocN(count, size int) error {
	if count < 0 || count > maxHostBytes/size {
		return errHostMemory
	}
	return in.alloc(count * size)
}

// charge counts n host bytes against MaxHostBytes without charging the
// guest heap: growth the guest heap model never priced still costs the
// host.
func (in *Interp) charge(n int) error {
	if n < 0 || in.heap+int64(n) > maxHostBytes {
		return errHostMemory
	}
	in.heap += int64(n)
	return nil
}

// grow charges the host for n more array slots. The guest heap model
// prices a slot when it is assigned, not when an index or a length
// creates it, so the guest heap is not charged here. A guest can keep
// such slots across invocations in a global, where no per-entry budget
// sees them, so they also count against the interpreter's lifetime
// bound: past it the UC is destroyed, and its successor starts at zero.
func (in *Interp) grow(n int) error {
	if n <= 0 {
		return nil
	}
	if n > maxHostBytes/16 || in.grown+16*int64(n) > maxHostBytes {
		return errHostMemory
	}
	if err := in.charge(16 * n); err != nil {
		return err
	}
	in.grown += 16 * int64(n)
	return nil
}

// toString is ToString for a value the guest renders. Rendering an
// array, an object or a function builds a new string, so it is bounded
// by what is left of the host budget and charged to it; a string
// renders as itself and a primitive as a few bytes, uncharged. A caller
// that hands the result to the guest prices it again with alloc.
func (in *Interp) toString(v Value) (string, error) {
	switch t := v.(type) {
	case string:
		return t, nil
	case float64, bool, null, undefined, nil:
		return ToString(v), nil
	case *array:
		var sb strings.Builder
		joinTo(&sb, t, ",", 0, in.room())
		return sb.String(), in.charge(sb.Len())
	}
	s := ToString(v)
	return s, in.charge(len(s))
}

// room is how many bytes the host budget has left in this entry.
func (in *Interp) room() int { return int(maxHostBytes - in.heap) }

// enter starts a host entry into the guest: the host budget is per
// entry, so a long-lived UC never exhausts it across invocations.
func (in *Interp) enter() { in.heap = 0 }

// Run parses nothing — callers Parse first — and executes the program
// in the global scope, charging its compiled size to the guest heap.
// The value of the last expression statement is returned.
func (in *Interp) Run(prog *program) (Value, error) {
	in.enter()
	if err := in.alloc(prog.size); err != nil {
		return nil, err
	}
	var last Value = undefined{}
	for _, stmt := range prog.Body {
		v, err := in.execStmt(stmt, in.globals)
		if err != nil {
			switch err.(type) {
			case returnErr, breakErr, continueErr:
				return nil, fmt.Errorf("minijs: %v at top level", err)
			}
			return nil, err
		}
		if es, ok := stmt.(*exprStmt); ok && es != nil {
			last = v
		}
	}
	return last, nil
}

// RunSource is Parse + Run.
func (in *Interp) RunSource(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return in.Run(prog)
}

// CallGlobal invokes a global function by name.
func (in *Interp) CallGlobal(name string, args []Value) (Value, error) {
	fn, ok := in.globals.get(name)
	if !ok {
		return nil, fmt.Errorf("minijs: %s is not defined", name)
	}
	in.enter()
	return in.callValue(fn, undefined{}, args)
}

// SetGlobalMember performs the guest assignment name.prop = v from the
// host, without parsing or running a statement.
func (in *Interp) SetGlobalMember(name, prop string, v Value) error {
	obj, ok := in.globals.get(name)
	if !ok {
		return fmt.Errorf("minijs: %s is not defined", name)
	}
	return in.setMember(obj, prop, v)
}

// callValue invokes a function value with this and args.
func (in *Interp) callValue(fn Value, this Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *closure:
		units := 1 + f.Fn.Nesting/nestUnit
		if in.depth+units > maxCallDepth {
			return nil, errCallDepth
		}
		in.depth += units
		v, err := in.callClosure(f, args)
		in.depth -= units
		return v, err
	case *builtin:
		if f.method != nil {
			return f.method(in, f.recv, args)
		}
		return f.Fn(in, this, args)
	default:
		return nil, &ThrowError{Value: describe(fn) + " is not a function"}
	}
}

// callClosure runs a guest function's body in a fresh scope.
func (in *Interp) callClosure(f *closure, args []Value) (Value, error) {
	env := newEnv(f.Env)
	if err := in.allocN(len(args)+3, 16); err != nil { // 48 + 16 per argument
		return nil, err
	}
	for i, p := range f.Fn.Params {
		if i < len(args) {
			env.define(p, args[i])
		} else {
			env.define(p, undefined{})
		}
	}
	env.define("arguments", &array{Elems: args})
	for _, stmt := range f.Fn.Body {
		if _, err := in.execStmt(stmt, env); err != nil {
			if r, ok := err.(returnErr); ok {
				return r.v, nil
			}
			return nil, err
		}
	}
	return undefined{}, nil
}

// execStmt executes one statement and returns its value (for ExprStmt).
func (in *Interp) execStmt(n Node, env *env) (Value, error) {
	if err := in.step(1); err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *varDecl:
		var v Value = undefined{}
		if t.Init != nil {
			var err error
			v, err = in.eval(t.Init, env)
			if err != nil {
				return nil, err
			}
		}
		if err := in.alloc(24); err != nil {
			return nil, err
		}
		env.define(t.Name, v)
		return undefined{}, nil
	case *exprStmt:
		return in.eval(t.Expr, env)
	case *returnStmt:
		var v Value = undefined{}
		if t.Value != nil {
			var err error
			v, err = in.eval(t.Value, env)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnErr{v: v}
	case *ifStmt:
		test, err := in.eval(t.Test, env)
		if err != nil {
			return nil, err
		}
		if truthy(test) {
			return nil, in.execBlock(t.Then, env)
		}
		return nil, in.execBlock(t.Else, env)
	case *while:
		for {
			test, err := in.eval(t.Test, env)
			if err != nil {
				return nil, err
			}
			if !truthy(test) {
				return undefined{}, nil
			}
			if err := in.execBlock(t.Body, env); err != nil {
				if _, ok := err.(breakErr); ok {
					return undefined{}, nil
				}
				if _, ok := err.(continueErr); ok {
					continue
				}
				return nil, err
			}
		}
	case *forStmt:
		loopEnv := newEnv(env)
		if t.Init != nil {
			if _, err := in.execStmt(t.Init, loopEnv); err != nil {
				return nil, err
			}
		}
		for {
			if t.Test != nil {
				test, err := in.eval(t.Test, loopEnv)
				if err != nil {
					return nil, err
				}
				if !truthy(test) {
					return undefined{}, nil
				}
			}
			err := in.execBlock(t.Body, loopEnv)
			if err != nil {
				if _, ok := err.(breakErr); ok {
					return undefined{}, nil
				}
				if _, ok := err.(continueErr); !ok {
					return nil, err
				}
			}
			if t.Post != nil {
				if _, err := in.execStmt(t.Post, loopEnv); err != nil {
					return nil, err
				}
			}
		}
	case *forIn:
		return in.execForIn(t, env)
	case *breakStmt:
		return nil, breakErr{}
	case *continueStmt:
		return nil, continueErr{}
	case *throw:
		v, err := in.eval(t.Value, env)
		if err != nil {
			return nil, err
		}
		return nil, &ThrowError{Value: v}
	case *try:
		err := in.execBlock(t.Body, newEnv(env))
		if err != nil {
			if te, ok := err.(*ThrowError); ok {
				catchEnv := newEnv(env)
				if t.CatchVar != "" {
					catchEnv.define(t.CatchVar, te.Value)
				}
				return nil, in.execBlock(t.CatchBody, catchEnv)
			}
			return nil, err
		}
		return undefined{}, nil
	case *block:
		return nil, in.execBlock(t.Body, newEnv(env))
	default:
		// Expression used in statement position (e.g. for-post).
		return in.eval(n, env)
	}
}

func (in *Interp) execBlock(stmts []Node, env *env) error {
	for _, s := range stmts {
		if _, err := in.execStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execForIn(t *forIn, env *env) (Value, error) {
	src, err := in.eval(t.Expr, env)
	if err != nil {
		return nil, err
	}
	// Items are produced as the loop runs, from a snapshot of an array's
	// elements or an object's keys: a string of n bytes or an array of n
	// slots must not cost the host n values up front.
	var next func() (Value, bool)
	i := 0
	switch s := src.(type) {
	case *array:
		elems := s.Elems
		if t.Of {
			elems = slices.Clone(elems)
		}
		next = func() (Value, bool) {
			if i == len(elems) {
				return nil, false
			}
			i++
			if t.Of {
				return elems[i-1], true
			}
			return formatNumber(float64(i - 1)), true
		}
	case string:
		if !t.Of {
			return nil, &ThrowError{Value: "for-in over non-object"}
		}
		next = func() (Value, bool) {
			if i == len(s) {
				return nil, false
			}
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			return string(r), true
		}
	case *object:
		if t.Of {
			return nil, &ThrowError{Value: "for-of over non-iterable"}
		}
		keys := s.ownKeys()
		next = func() (Value, bool) {
			if i == len(keys) {
				return nil, false
			}
			i++
			return keys[i-1], true
		}
	default:
		if t.Of {
			return nil, &ThrowError{Value: "for-of over non-iterable"}
		}
		return nil, &ThrowError{Value: "for-in over non-object"}
	}
	loopEnv := newEnv(env)
	loopEnv.define(t.Var, undefined{})
	for {
		v, ok := next()
		if !ok {
			return undefined{}, nil
		}
		loopEnv.define(t.Var, v)
		if err := in.execBlock(t.Body, loopEnv); err != nil {
			if _, ok := err.(breakErr); ok {
				return undefined{}, nil
			}
			if _, ok := err.(continueErr); ok {
				continue
			}
			return nil, err
		}
	}
}

// eval evaluates an expression.
func (in *Interp) eval(n Node, env *env) (Value, error) {
	if err := in.step(1); err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *numberLit:
		return t.Value, nil
	case *stringLit:
		return t.Value, nil
	case *boolLit:
		return t.Value, nil
	case *nullLit:
		return null{}, nil
	case *undefinedLit:
		return undefined{}, nil
	case *ident:
		if v, ok := env.get(t.Name); ok {
			return v, nil
		}
		return nil, &ThrowError{Value: describe(t.Name) + " is not defined"}
	case *arrayLit:
		if err := in.alloc(24 + 16*len(t.Elems)); err != nil {
			return nil, err
		}
		arr := &array{Elems: make([]Value, 0, len(t.Elems))}
		for _, e := range t.Elems {
			v, err := in.eval(e, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *objectLit:
		if err := in.alloc(48); err != nil {
			return nil, err
		}
		obj := newObject()
		for i, k := range t.Keys {
			v, err := in.eval(t.Values[i], env)
			if err != nil {
				return nil, err
			}
			if err := in.alloc(32 + len(k)); err != nil {
				return nil, err
			}
			obj.set(k, v)
		}
		return obj, nil
	case *funcLit:
		if err := in.alloc(64); err != nil {
			return nil, err
		}
		return &closure{Fn: t, Env: env}, nil
	case *unary:
		return in.evalUnary(t, env)
	case *binary:
		return in.evalBinary(t, env)
	case *logical:
		lhs, err := in.eval(t.LHS, env)
		if err != nil {
			return nil, err
		}
		if t.Op == "&&" {
			if !truthy(lhs) {
				return lhs, nil
			}
		} else if truthy(lhs) {
			return lhs, nil
		}
		return in.eval(t.RHS, env)
	case *cond:
		test, err := in.eval(t.Test, env)
		if err != nil {
			return nil, err
		}
		if truthy(test) {
			return in.eval(t.Then, env)
		}
		return in.eval(t.Else, env)
	case *assign:
		return in.evalAssign(t, env)
	case *update:
		return in.evalUpdate(t, env)
	case *call:
		return in.evalCall(t, env)
	case *member:
		obj, err := in.eval(t.Obj, env)
		if err != nil {
			return nil, err
		}
		return in.getMember(obj, t.Name)
	case *index:
		obj, err := in.eval(t.Obj, env)
		if err != nil {
			return nil, err
		}
		key, err := in.eval(t.Key, env)
		if err != nil {
			return nil, err
		}
		return in.getIndex(obj, key)
	}
	return nil, fmt.Errorf("minijs: cannot evaluate %T", n)
}

func (in *Interp) evalUnary(t *unary, env *env) (Value, error) {
	v, err := in.eval(t.Expr, env)
	if err != nil {
		if t.Op == "typeof" {
			// typeof of an undefined name is "undefined", not an error.
			if te, ok := err.(*ThrowError); ok {
				if s, ok := te.Value.(string); ok && len(s) > 14 && s[len(s)-14:] == "is not defined" {
					return "undefined", nil
				}
			}
		}
		return nil, err
	}
	switch t.Op {
	case "-":
		return -toNumber(v), nil
	case "+":
		return toNumber(v), nil
	case "!":
		return !truthy(v), nil
	case "~":
		return float64(^int64(toNumber(v))), nil
	case "typeof":
		return typeOf(v), nil
	}
	return nil, fmt.Errorf("minijs: unknown unary %q", t.Op)
}

func (in *Interp) evalBinary(t *binary, env *env) (Value, error) {
	lhs, err := in.eval(t.LHS, env)
	if err != nil {
		return nil, err
	}
	rhs, err := in.eval(t.RHS, env)
	if err != nil {
		return nil, err
	}
	return applyBinary(in, t.Op, lhs, rhs)
}

func applyBinary(in *Interp, op string, lhs, rhs Value) (Value, error) {
	switch op {
	case "+":
		ls, lok := lhs.(string)
		rs, rok := rhs.(string)
		if lok || rok {
			var err error
			if !lok {
				if ls, err = in.toString(lhs); err != nil {
					return nil, err
				}
			}
			if !rok {
				if rs, err = in.toString(rhs); err != nil {
					return nil, err
				}
			}
			if err := in.alloc(len(ls) + len(rs)); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
		return toNumber(lhs) + toNumber(rhs), nil
	case "-":
		return toNumber(lhs) - toNumber(rhs), nil
	case "*":
		return toNumber(lhs) * toNumber(rhs), nil
	case "/":
		return toNumber(lhs) / toNumber(rhs), nil
	case "%":
		l, r := int64(toNumber(lhs)), int64(toNumber(rhs))
		if r == 0 {
			return nan(), nil
		}
		return float64(l % r), nil
	case "==":
		return looseEquals(lhs, rhs), nil
	case "!=":
		return !looseEquals(lhs, rhs), nil
	case "===":
		return strictEquals(lhs, rhs), nil
	case "!==":
		return !strictEquals(lhs, rhs), nil
	case "<", ">", "<=", ">=":
		if ls, ok := lhs.(string); ok {
			if rs, ok := rhs.(string); ok {
				return compareStrings(op, ls, rs), nil
			}
		}
		return compareNumbers(op, toNumber(lhs), toNumber(rhs)), nil
	case "&":
		return float64(int64(toNumber(lhs)) & int64(toNumber(rhs))), nil
	case "|":
		return float64(int64(toNumber(lhs)) | int64(toNumber(rhs))), nil
	case "^":
		return float64(int64(toNumber(lhs)) ^ int64(toNumber(rhs))), nil
	case "<<":
		return float64(int64(toNumber(lhs)) << (uint64(toNumber(rhs)) & 63)), nil
	case ">>":
		return float64(int64(toNumber(lhs)) >> (uint64(toNumber(rhs)) & 63)), nil
	}
	return nil, fmt.Errorf("minijs: unknown operator %q", op)
}

func compareNumbers(op string, l, r float64) bool {
	switch op {
	case "<":
		return l < r
	case ">":
		return l > r
	case "<=":
		return l <= r
	default:
		return l >= r
	}
}

func compareStrings(op, l, r string) bool {
	switch op {
	case "<":
		return l < r
	case ">":
		return l > r
	case "<=":
		return l <= r
	default:
		return l >= r
	}
}

func (in *Interp) evalAssign(t *assign, env *env) (Value, error) {
	val, err := in.eval(t.Value, env)
	if err != nil {
		return nil, err
	}
	if t.Op != "=" {
		cur, err := in.eval(t.Target, env)
		if err != nil {
			return nil, err
		}
		val, err = applyBinary(in, t.Op[:1], cur, val)
		if err != nil {
			return nil, err
		}
	}
	if err := in.assignTo(t.Target, val, env); err != nil {
		return nil, err
	}
	return val, nil
}

func (in *Interp) assignTo(target Node, val Value, env *env) error {
	switch tg := target.(type) {
	case *ident:
		env.assign(tg.Name, val)
		return nil
	case *member:
		obj, err := in.eval(tg.Obj, env)
		if err != nil {
			return err
		}
		return in.setMember(obj, tg.Name, val)
	case *index:
		obj, err := in.eval(tg.Obj, env)
		if err != nil {
			return err
		}
		key, err := in.eval(tg.Key, env)
		if err != nil {
			return err
		}
		return in.setIndex(obj, key, val)
	}
	return fmt.Errorf("minijs: invalid assignment target %T", target)
}

func (in *Interp) evalUpdate(t *update, env *env) (Value, error) {
	cur, err := in.eval(t.Target, env)
	if err != nil {
		return nil, err
	}
	old := toNumber(cur)
	var next float64
	if t.Op == "++" {
		next = old + 1
	} else {
		next = old - 1
	}
	if err := in.assignTo(t.Target, next, env); err != nil {
		return nil, err
	}
	if t.Postfix {
		return old, nil
	}
	return next, nil
}

func (in *Interp) evalCall(t *call, env *env) (Value, error) {
	// Method call: evaluate receiver once.
	var this Value = undefined{}
	var fn Value
	var err error
	switch callee := t.Fn.(type) {
	case *member:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return nil, err
		}
		fn, err = in.getMember(this, callee.Name)
		if err != nil {
			return nil, err
		}
	case *index:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return nil, err
		}
		key, kerr := in.eval(callee.Key, env)
		if kerr != nil {
			return nil, kerr
		}
		fn, err = in.getIndex(this, key)
		if err != nil {
			return nil, err
		}
	default:
		fn, err = in.eval(t.Fn, env)
		if err != nil {
			return nil, err
		}
	}
	args := make([]Value, 0, len(t.Args))
	for _, a := range t.Args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	if err := in.step(4); err != nil {
		return nil, err
	}
	return in.callValue(fn, this, args)
}
