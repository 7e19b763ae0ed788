package lang

// Node is any AST node. Nodes report an approximate in-guest size so
// the runtime can charge compiled code to UC memory the way V8's
// bytecode and metadata occupy a Node.js heap.
type Node interface {
	// GuestSize returns the approximate bytes this node occupies in the
	// guest heap once compiled (the node itself, excluding children).
	GuestSize() int
}

// ---- Expressions ----

// NumberLit is a numeric literal.
type NumberLit struct{ Value float64 }

// StringLit is a string literal.
type StringLit struct{ Value string }

// BoolLit is true/false.
type BoolLit struct{ Value bool }

// NullLit is null.
type NullLit struct{}

// UndefinedLit is undefined.
type UndefinedLit struct{}

// Ident is a variable reference.
type Ident struct{ Name string }

// ArrayLit is [a, b, ...].
type ArrayLit struct{ Elems []Node }

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	Keys   []string
	Values []Node
}

// FuncLit is function(params){body} or (params) => expr/body.
type FuncLit struct {
	Name   string // optional
	Params []string
	Body   []Node
	// Nesting is how many levels the body's statements and expressions
	// nest, which bounds how deep the evaluator recurses for one call.
	Nesting int
}

// Unary is op expr (e.g. -x, !x, typeof x).
type Unary struct {
	Op   string
	Expr Node
}

// Binary is lhs op rhs.
type Binary struct {
	Op       string
	LHS, RHS Node
}

// Logical is && / || with short-circuit evaluation.
type Logical struct {
	Op       string
	LHS, RHS Node
}

// Cond is the ternary a ? b : c.
type Cond struct {
	Test, Then, Else Node
}

// Assign is target op value where op is =, +=, etc. Target is an Ident,
// Member, or Index.
type Assign struct {
	Op     string
	Target Node
	Value  Node
}

// Update is ++x / x++ / --x / x--.
type Update struct {
	Op      string // "++" or "--"
	Target  Node
	Postfix bool
}

// Call is fn(args).
type Call struct {
	Fn   Node
	Args []Node
}

// Member is obj.name.
type Member struct {
	Obj  Node
	Name string
}

// Index is obj[expr].
type Index struct {
	Obj Node
	Key Node
}

// ---- Statements ----

// VarDecl declares one variable (var/let/const are treated alike).
type VarDecl struct {
	Name string
	Init Node // may be nil
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct{ Expr Node }

// Return is a return statement.
type Return struct{ Value Node } // Value may be nil

// If is if/else.
type If struct {
	Test Node
	Then []Node
	Else []Node // nil when absent
}

// While is a while loop.
type While struct {
	Test Node
	Body []Node
}

// For is a C-style for loop.
type For struct {
	Init Node // statement or nil
	Test Node // nil = true
	Post Node // nil
	Body []Node
}

// ForIn is for (x of arr) / for (x in obj).
type ForIn struct {
	Var  string
	Of   bool // true: of (values), false: in (keys)
	Expr Node
	Body []Node
}

// Switch is a switch statement with === case matching.
type Switch struct {
	Tag     Node
	Cases   []SwitchCase
	Default []Node // nil when absent
}

// SwitchCase is one case arm.
type SwitchCase struct {
	Value Node
	Body  []Node
}

// DoWhile is a do { } while (cond) loop.
type DoWhile struct {
	Body []Node
	Test Node
}

// Break breaks the innermost loop or switch.
type Break struct{}

// Continue continues the innermost loop.
type Continue struct{}

// Throw raises a value as an error.
type Throw struct{ Value Node }

// Try is try/catch.
type Try struct {
	Body      []Node
	CatchVar  string
	CatchBody []Node
}

// Block is a lexical block.
type Block struct{ Body []Node }

// Program is a parsed compilation unit.
type Program struct {
	Body []Node
	// Source is retained so snapshot tooling can report code size.
	Source string
}

// GuestSize implementations: coarse per-node costs approximating AST +
// bytecode footprint of a real engine. Values chosen so realistic
// source compiles to roughly 8-12x its byte length of guest metadata,
// in line with observed V8 heap costs for parsed-and-compiled code.

func (n *NumberLit) GuestSize() int    { return 16 }
func (n *StringLit) GuestSize() int    { return 24 + len(n.Value) }
func (n *BoolLit) GuestSize() int      { return 8 }
func (n *NullLit) GuestSize() int      { return 8 }
func (n *UndefinedLit) GuestSize() int { return 8 }
func (n *Ident) GuestSize() int        { return 16 + len(n.Name) }
func (n *ArrayLit) GuestSize() int     { return 24 }
func (n *ObjectLit) GuestSize() int {
	sz := 32
	for _, k := range n.Keys {
		sz += 8 + len(k)
	}
	return sz
}
func (n *FuncLit) GuestSize() int {
	sz := 96 + len(n.Name)
	for _, p := range n.Params {
		sz += 8 + len(p)
	}
	return sz
}
func (n *Unary) GuestSize() int    { return 16 }
func (n *Binary) GuestSize() int   { return 24 }
func (n *Logical) GuestSize() int  { return 24 }
func (n *Cond) GuestSize() int     { return 24 }
func (n *Assign) GuestSize() int   { return 24 }
func (n *Update) GuestSize() int   { return 16 }
func (n *Call) GuestSize() int     { return 32 }
func (n *Member) GuestSize() int   { return 24 + len(n.Name) }
func (n *Index) GuestSize() int    { return 24 }
func (n *VarDecl) GuestSize() int  { return 24 + len(n.Name) }
func (n *ExprStmt) GuestSize() int { return 8 }
func (n *Return) GuestSize() int   { return 16 }
func (n *If) GuestSize() int       { return 32 }
func (n *While) GuestSize() int    { return 32 }
func (n *For) GuestSize() int      { return 48 }
func (n *ForIn) GuestSize() int    { return 48 + len(n.Var) }
func (n *Switch) GuestSize() int {
	return 48 + 16*len(n.Cases)
}
func (n *DoWhile) GuestSize() int  { return 32 }
func (n *Break) GuestSize() int    { return 8 }
func (n *Continue) GuestSize() int { return 8 }
func (n *Throw) GuestSize() int    { return 16 }
func (n *Try) GuestSize() int      { return 48 + len(n.CatchVar) }
func (n *Block) GuestSize() int    { return 16 }
func (n *Program) GuestSize() int  { return 64 }

// TreeSize returns the total guest bytes of a subtree.
func TreeSize(n Node) int {
	if n == nil {
		return 0
	}
	sz := n.GuestSize()
	for _, c := range children(n) {
		sz += TreeSize(c)
	}
	return sz
}

func children(n Node) []Node {
	switch t := n.(type) {
	case *ArrayLit:
		return t.Elems
	case *ObjectLit:
		return t.Values
	case *FuncLit:
		return t.Body
	case *Unary:
		return []Node{t.Expr}
	case *Binary:
		return []Node{t.LHS, t.RHS}
	case *Logical:
		return []Node{t.LHS, t.RHS}
	case *Cond:
		return []Node{t.Test, t.Then, t.Else}
	case *Assign:
		return []Node{t.Target, t.Value}
	case *Update:
		return []Node{t.Target}
	case *Call:
		return append([]Node{t.Fn}, t.Args...)
	case *Member:
		return []Node{t.Obj}
	case *Index:
		return []Node{t.Obj, t.Key}
	case *VarDecl:
		if t.Init != nil {
			return []Node{t.Init}
		}
	case *ExprStmt:
		return []Node{t.Expr}
	case *Return:
		if t.Value != nil {
			return []Node{t.Value}
		}
	case *If:
		out := []Node{t.Test}
		out = append(out, t.Then...)
		return append(out, t.Else...)
	case *While:
		return append([]Node{t.Test}, t.Body...)
	case *DoWhile:
		return append(append([]Node{}, t.Body...), t.Test)
	case *Switch:
		out := []Node{t.Tag}
		for _, cs := range t.Cases {
			out = append(out, cs.Value)
			out = append(out, cs.Body...)
		}
		return append(out, t.Default...)
	case *For:
		var out []Node
		for _, c := range []Node{t.Init, t.Test, t.Post} {
			if c != nil {
				out = append(out, c)
			}
		}
		return append(out, t.Body...)
	case *ForIn:
		return append([]Node{t.Expr}, t.Body...)
	case *Throw:
		return []Node{t.Value}
	case *Try:
		return append(append([]Node{}, t.Body...), t.CatchBody...)
	case *Block:
		return t.Body
	case *Program:
		return t.Body
	}
	return nil
}
