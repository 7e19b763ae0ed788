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
	globals  *Env
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
	// ErrCallDepth is returned when guest recursion passes MaxCallDepth.
	ErrCallDepth = errors.New("minijs: maximum call stack size exceeded")
	// ErrHostMemory is returned when one entry into the guest would
	// charge more than MaxHostBytes.
	ErrHostMemory = errors.New("minijs: host memory budget exhausted")
)

// MaxCallDepth bounds guest recursion, as V8's stack limit bounds Node's
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
const MaxCallDepth = 10_000

// nestUnit is how many levels of static nesting one call-depth unit
// covers; see MaxCallDepth. A one-line body nests about 8 levels.
const nestUnit = 16

// MaxHostBytes bounds the host memory one entry into the guest (an
// invocation, a module evaluation) may charge for the strings, arrays
// and objects it builds and for the values it renders as strings. The
// charge is made before the value is built, so a guest that doubles a
// string forty times stops at 64 MiB instead of being killed by the
// operating system. An invocation of the workload corpus charges under
// 1 KB. Array slots that an index or a length creates are the one thing
// a guest keeps that the guest heap does not price (see grow), so they
// are also held to MaxHostBytes over the interpreter's whole life.
const MaxHostBytes = 64 << 20

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
		globals:  NewEnv(nil),
		hooks:    hooks,
		maxSteps: DefaultStepBudget,
	}
	in.installBuiltins()
	return in
}

// SetMaxSteps overrides the default step budget (0 disables the limit).
func (in *Interp) SetMaxSteps(n int64) { in.maxSteps = n }

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

// Steps returns the steps consumed so far.
func (in *Interp) Steps() int64 { return in.steps }

// Globals returns the global scope (the driver script pokes values in).
func (in *Interp) Globals() *Env { return in.globals }

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
	if count < 0 || count > MaxHostBytes/size {
		return ErrHostMemory
	}
	return in.alloc(count * size)
}

// charge counts n host bytes against MaxHostBytes without charging the
// guest heap: growth the guest heap model never priced still costs the
// host.
func (in *Interp) charge(n int) error {
	if n < 0 || in.heap+int64(n) > MaxHostBytes {
		return ErrHostMemory
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
	if n > MaxHostBytes/16 || in.grown+16*int64(n) > MaxHostBytes {
		return ErrHostMemory
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
	case float64, bool, Null, Undefined, nil:
		return ToString(v), nil
	case *Array:
		var sb strings.Builder
		joinTo(&sb, t, ",", 0, in.room())
		return sb.String(), in.charge(sb.Len())
	}
	s := ToString(v)
	return s, in.charge(len(s))
}

// room is how many bytes the host budget has left in this entry.
func (in *Interp) room() int { return int(MaxHostBytes - in.heap) }

// enter starts a host entry into the guest: the host budget is per
// entry, so a long-lived UC never exhausts it across invocations.
func (in *Interp) enter() { in.heap = 0 }

// Run parses nothing — callers Parse first — and executes the program
// in the global scope, charging its compiled size to the guest heap.
// The value of the last expression statement is returned.
func (in *Interp) Run(prog *Program) (Value, error) {
	in.enter()
	if err := in.alloc(TreeSize(prog)); err != nil {
		return nil, err
	}
	var last Value = Undefined{}
	for _, stmt := range prog.Body {
		v, err := in.execStmt(stmt, in.globals)
		if err != nil {
			switch err.(type) {
			case returnErr, breakErr, continueErr:
				return nil, fmt.Errorf("minijs: %v at top level", err)
			}
			return nil, err
		}
		if es, ok := stmt.(*ExprStmt); ok && es != nil {
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
	fn, ok := in.globals.Get(name)
	if !ok {
		return nil, fmt.Errorf("minijs: %s is not defined", name)
	}
	in.enter()
	return in.CallValue(fn, Undefined{}, args)
}

// CallValue invokes a function value with this and args.
func (in *Interp) CallValue(fn Value, this Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *Closure:
		units := 1 + f.Fn.Nesting/nestUnit
		if in.depth+units > MaxCallDepth {
			return nil, ErrCallDepth
		}
		in.depth += units
		v, err := in.callClosure(f, args)
		in.depth -= units
		return v, err
	case *Builtin:
		return f.Fn(in, this, args)
	default:
		return nil, &ThrowError{Value: describe(fn) + " is not a function"}
	}
}

// callClosure runs a guest function's body in a fresh scope.
func (in *Interp) callClosure(f *Closure, args []Value) (Value, error) {
	env := NewEnv(f.Env)
	if err := in.allocN(len(args)+3, 16); err != nil { // 48 + 16 per argument
		return nil, err
	}
	for i, p := range f.Fn.Params {
		if i < len(args) {
			env.Define(p, args[i])
		} else {
			env.Define(p, Undefined{})
		}
	}
	env.Define("arguments", &Array{Elems: args})
	for _, stmt := range f.Fn.Body {
		if _, err := in.execStmt(stmt, env); err != nil {
			if r, ok := err.(returnErr); ok {
				return r.v, nil
			}
			return nil, err
		}
	}
	return Undefined{}, nil
}

// execStmt executes one statement and returns its value (for ExprStmt).
func (in *Interp) execStmt(n Node, env *Env) (Value, error) {
	if err := in.step(1); err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *VarDecl:
		var v Value = Undefined{}
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
		env.Define(t.Name, v)
		return Undefined{}, nil
	case *ExprStmt:
		return in.eval(t.Expr, env)
	case *Return:
		var v Value = Undefined{}
		if t.Value != nil {
			var err error
			v, err = in.eval(t.Value, env)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnErr{v: v}
	case *If:
		test, err := in.eval(t.Test, env)
		if err != nil {
			return nil, err
		}
		if Truthy(test) {
			return nil, in.execBlock(t.Then, env)
		}
		return nil, in.execBlock(t.Else, env)
	case *While:
		for {
			test, err := in.eval(t.Test, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(test) {
				return Undefined{}, nil
			}
			if err := in.execBlock(t.Body, env); err != nil {
				if _, ok := err.(breakErr); ok {
					return Undefined{}, nil
				}
				if _, ok := err.(continueErr); ok {
					continue
				}
				return nil, err
			}
		}
	case *For:
		loopEnv := NewEnv(env)
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
				if !Truthy(test) {
					return Undefined{}, nil
				}
			}
			err := in.execBlock(t.Body, loopEnv)
			if err != nil {
				if _, ok := err.(breakErr); ok {
					return Undefined{}, nil
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
	case *ForIn:
		return in.execForIn(t, env)
	case *DoWhile:
		for {
			if err := in.execBlock(t.Body, NewEnv(env)); err != nil {
				if _, ok := err.(breakErr); ok {
					return Undefined{}, nil
				}
				if _, ok := err.(continueErr); !ok {
					return nil, err
				}
			}
			test, err := in.eval(t.Test, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(test) {
				return Undefined{}, nil
			}
		}
	case *Switch:
		return in.execSwitch(t, env)
	case *Break:
		return nil, breakErr{}
	case *Continue:
		return nil, continueErr{}
	case *Throw:
		v, err := in.eval(t.Value, env)
		if err != nil {
			return nil, err
		}
		return nil, &ThrowError{Value: v}
	case *Try:
		err := in.execBlock(t.Body, NewEnv(env))
		if err != nil {
			if te, ok := err.(*ThrowError); ok {
				catchEnv := NewEnv(env)
				if t.CatchVar != "" {
					catchEnv.Define(t.CatchVar, te.Value)
				}
				return nil, in.execBlock(t.CatchBody, catchEnv)
			}
			return nil, err
		}
		return Undefined{}, nil
	case *Block:
		return nil, in.execBlock(t.Body, NewEnv(env))
	default:
		// Expression used in statement position (e.g. for-post).
		return in.eval(n, env)
	}
}

func (in *Interp) execBlock(stmts []Node, env *Env) error {
	for _, s := range stmts {
		if _, err := in.execStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

// execSwitch evaluates a switch with JS semantics: === matching,
// fallthrough until break, and a trailing default that participates in
// fallthrough.
func (in *Interp) execSwitch(t *Switch, env *Env) (Value, error) {
	tag, err := in.eval(t.Tag, env)
	if err != nil {
		return nil, err
	}
	swEnv := NewEnv(env)
	matched := -1
	for i, cs := range t.Cases {
		v, err := in.eval(cs.Value, swEnv)
		if err != nil {
			return nil, err
		}
		if StrictEquals(tag, v) {
			matched = i
			break
		}
	}
	var bodies [][]Node
	if matched >= 0 {
		for i := matched; i < len(t.Cases); i++ { // fallthrough
			bodies = append(bodies, t.Cases[i].Body)
		}
	}
	if t.Default != nil && (matched >= 0 || matched == -1) {
		// The default arm runs on fallthrough past the last case, or
		// when nothing matched. (MiniJS requires default to be last.)
		if matched >= 0 {
			bodies = append(bodies, t.Default)
		} else {
			bodies = [][]Node{t.Default}
		}
	}
	for _, body := range bodies {
		if err := in.execBlock(body, swEnv); err != nil {
			if _, ok := err.(breakErr); ok {
				return Undefined{}, nil
			}
			return nil, err
		}
	}
	return Undefined{}, nil
}

func (in *Interp) execForIn(t *ForIn, env *Env) (Value, error) {
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
	case *Array:
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
	case *Object:
		if t.Of {
			return nil, &ThrowError{Value: "for-of over non-iterable"}
		}
		keys := s.Keys()
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
	loopEnv := NewEnv(env)
	loopEnv.Define(t.Var, Undefined{})
	for {
		v, ok := next()
		if !ok {
			return Undefined{}, nil
		}
		loopEnv.Define(t.Var, v)
		if err := in.execBlock(t.Body, loopEnv); err != nil {
			if _, ok := err.(breakErr); ok {
				return Undefined{}, nil
			}
			if _, ok := err.(continueErr); ok {
				continue
			}
			return nil, err
		}
	}
}

// eval evaluates an expression.
func (in *Interp) eval(n Node, env *Env) (Value, error) {
	if err := in.step(1); err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *NumberLit:
		return t.Value, nil
	case *StringLit:
		return t.Value, nil
	case *BoolLit:
		return t.Value, nil
	case *NullLit:
		return Null{}, nil
	case *UndefinedLit:
		return Undefined{}, nil
	case *Ident:
		if v, ok := env.Get(t.Name); ok {
			return v, nil
		}
		return nil, &ThrowError{Value: describe(t.Name) + " is not defined"}
	case *ArrayLit:
		if err := in.alloc(24 + 16*len(t.Elems)); err != nil {
			return nil, err
		}
		arr := &Array{Elems: make([]Value, 0, len(t.Elems))}
		for _, e := range t.Elems {
			v, err := in.eval(e, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *ObjectLit:
		if err := in.alloc(48); err != nil {
			return nil, err
		}
		obj := NewObject()
		for i, k := range t.Keys {
			v, err := in.eval(t.Values[i], env)
			if err != nil {
				return nil, err
			}
			if err := in.alloc(32 + len(k)); err != nil {
				return nil, err
			}
			obj.Set(k, v)
		}
		return obj, nil
	case *FuncLit:
		if err := in.alloc(64); err != nil {
			return nil, err
		}
		return &Closure{Fn: t, Env: env}, nil
	case *Unary:
		return in.evalUnary(t, env)
	case *Binary:
		return in.evalBinary(t, env)
	case *Logical:
		lhs, err := in.eval(t.LHS, env)
		if err != nil {
			return nil, err
		}
		if t.Op == "&&" {
			if !Truthy(lhs) {
				return lhs, nil
			}
		} else if Truthy(lhs) {
			return lhs, nil
		}
		return in.eval(t.RHS, env)
	case *Cond:
		test, err := in.eval(t.Test, env)
		if err != nil {
			return nil, err
		}
		if Truthy(test) {
			return in.eval(t.Then, env)
		}
		return in.eval(t.Else, env)
	case *Assign:
		return in.evalAssign(t, env)
	case *Update:
		return in.evalUpdate(t, env)
	case *Call:
		return in.evalCall(t, env)
	case *Member:
		obj, err := in.eval(t.Obj, env)
		if err != nil {
			return nil, err
		}
		return in.getMember(obj, t.Name)
	case *Index:
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

func (in *Interp) evalUnary(t *Unary, env *Env) (Value, error) {
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
		return -ToNumber(v), nil
	case "+":
		return ToNumber(v), nil
	case "!":
		return !Truthy(v), nil
	case "~":
		return float64(^int64(ToNumber(v))), nil
	case "typeof":
		return TypeOf(v), nil
	}
	return nil, fmt.Errorf("minijs: unknown unary %q", t.Op)
}

func (in *Interp) evalBinary(t *Binary, env *Env) (Value, error) {
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
		return ToNumber(lhs) + ToNumber(rhs), nil
	case "-":
		return ToNumber(lhs) - ToNumber(rhs), nil
	case "*":
		return ToNumber(lhs) * ToNumber(rhs), nil
	case "/":
		return ToNumber(lhs) / ToNumber(rhs), nil
	case "%":
		l, r := int64(ToNumber(lhs)), int64(ToNumber(rhs))
		if r == 0 {
			return nan(), nil
		}
		return float64(l % r), nil
	case "==":
		return LooseEquals(lhs, rhs), nil
	case "!=":
		return !LooseEquals(lhs, rhs), nil
	case "===":
		return StrictEquals(lhs, rhs), nil
	case "!==":
		return !StrictEquals(lhs, rhs), nil
	case "<", ">", "<=", ">=":
		if ls, ok := lhs.(string); ok {
			if rs, ok := rhs.(string); ok {
				return compareStrings(op, ls, rs), nil
			}
		}
		return compareNumbers(op, ToNumber(lhs), ToNumber(rhs)), nil
	case "&":
		return float64(int64(ToNumber(lhs)) & int64(ToNumber(rhs))), nil
	case "|":
		return float64(int64(ToNumber(lhs)) | int64(ToNumber(rhs))), nil
	case "^":
		return float64(int64(ToNumber(lhs)) ^ int64(ToNumber(rhs))), nil
	case "<<":
		return float64(int64(ToNumber(lhs)) << (uint64(ToNumber(rhs)) & 63)), nil
	case ">>":
		return float64(int64(ToNumber(lhs)) >> (uint64(ToNumber(rhs)) & 63)), nil
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

func (in *Interp) evalAssign(t *Assign, env *Env) (Value, error) {
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

func (in *Interp) assignTo(target Node, val Value, env *Env) error {
	switch tg := target.(type) {
	case *Ident:
		env.Assign(tg.Name, val)
		return nil
	case *Member:
		obj, err := in.eval(tg.Obj, env)
		if err != nil {
			return err
		}
		return in.setMember(obj, tg.Name, val)
	case *Index:
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

func (in *Interp) evalUpdate(t *Update, env *Env) (Value, error) {
	cur, err := in.eval(t.Target, env)
	if err != nil {
		return nil, err
	}
	old := ToNumber(cur)
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

func (in *Interp) evalCall(t *Call, env *Env) (Value, error) {
	// Method call: evaluate receiver once.
	var this Value = Undefined{}
	var fn Value
	var err error
	switch callee := t.Fn.(type) {
	case *Member:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return nil, err
		}
		fn, err = in.getMember(this, callee.Name)
		if err != nil {
			return nil, err
		}
	case *Index:
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
	return in.CallValue(fn, this, args)
}
