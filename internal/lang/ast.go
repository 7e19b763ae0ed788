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

// numberLit is a numeric literal.
type numberLit struct{ Value float64 }

// stringLit is a string literal.
type stringLit struct{ Value string }

// boolLit is true/false.
type boolLit struct{ Value bool }

// nullLit is null.
type nullLit struct{}

// undefinedLit is undefined.
type undefinedLit struct{}

// ident is a variable reference.
type ident struct{ Name string }

// arrayLit is [a, b, ...].
type arrayLit struct{ Elems []Node }

// objectLit is {k: v, ...}.
type objectLit struct {
	Keys   []string
	Values []Node
}

// funcLit is function name(params){body}, the name optional.
type funcLit struct {
	Name   string // optional
	Params []string
	Body   []Node
	// Nesting is how many levels the body's statements and expressions
	// nest, which bounds how deep the evaluator recurses for one call.
	Nesting int
}

// unary is op expr (e.g. -x, !x, typeof x).
type unary struct {
	Op   string
	Expr Node
}

// binary is lhs op rhs.
type binary struct {
	Op       string
	LHS, RHS Node
}

// logical is && / || with short-circuit evaluation.
type logical struct {
	Op       string
	LHS, RHS Node
}

// cond is the ternary a ? b : c.
type cond struct {
	Test, Then, Else Node
}

// assign is target op value where op is =, +=, etc. Target is an Ident,
// Member, or Index.
type assign struct {
	Op     string
	Target Node
	Value  Node
}

// update is ++x / x++ / --x / x--.
type update struct {
	Op      string // "++" or "--"
	Target  Node
	Postfix bool
}

// call is fn(args).
type call struct {
	Fn   Node
	Args []Node
}

// member is obj.name.
type member struct {
	Obj  Node
	Name string
}

// index is obj[expr].
type index struct {
	Obj Node
	Key Node
}

// ---- Statements ----

// varDecl declares one variable (var/let/const are treated alike).
type varDecl struct {
	Name string
	Init Node // may be nil
}

// exprStmt wraps an expression used as a statement.
type exprStmt struct{ Expr Node }

// returnStmt is a return statement.
type returnStmt struct{ Value Node } // Value may be nil

// ifStmt is if/else.
type ifStmt struct {
	Test Node
	Then []Node
	Else []Node // nil when absent
}

// while is a while loop.
type while struct {
	Test Node
	Body []Node
}

// forStmt is a C-style for loop.
type forStmt struct {
	Init Node // statement or nil
	Test Node // nil = true
	Post Node // nil
	Body []Node
}

// forIn is for (x of arr) / for (x in obj).
type forIn struct {
	Var  string
	Of   bool // true: of (values), false: in (keys)
	Expr Node
	Body []Node
}

// breakStmt breaks the innermost loop.
type breakStmt struct{}

// continueStmt continues the innermost loop.
type continueStmt struct{}

// throw raises a value as an error.
type throw struct{ Value Node }

// try is try/catch.
type try struct {
	Body      []Node
	CatchVar  string
	CatchBody []Node
}

// block is a lexical block.
type block struct{ Body []Node }

// program is a parsed compilation unit.
type program struct {
	Body []Node
	// Source is retained so snapshot tooling can report code size.
	Source string
	// size is treeSize(program), computed once by Parse.
	size int
}

// Size returns the guest bytes the compiled program occupies: the sum
// of every node's GuestSize, computed once when it was parsed.
func (p *program) Size() int { return p.size }

// GuestSize implementations: coarse per-node costs approximating AST +
// bytecode footprint of a real engine. Values chosen so realistic
// source compiles to roughly 8-12x its byte length of guest metadata,
// in line with observed V8 heap costs for parsed-and-compiled code.

func (n *numberLit) GuestSize() int    { return 16 }
func (n *stringLit) GuestSize() int    { return 24 + len(n.Value) }
func (n *boolLit) GuestSize() int      { return 8 }
func (n *nullLit) GuestSize() int      { return 8 }
func (n *undefinedLit) GuestSize() int { return 8 }
func (n *ident) GuestSize() int        { return 16 + len(n.Name) }
func (n *arrayLit) GuestSize() int     { return 24 }
func (n *objectLit) GuestSize() int {
	sz := 32
	for _, k := range n.Keys {
		sz += 8 + len(k)
	}
	return sz
}
func (n *funcLit) GuestSize() int {
	sz := 96 + len(n.Name)
	for _, p := range n.Params {
		sz += 8 + len(p)
	}
	return sz
}
func (n *unary) GuestSize() int        { return 16 }
func (n *binary) GuestSize() int       { return 24 }
func (n *logical) GuestSize() int      { return 24 }
func (n *cond) GuestSize() int         { return 24 }
func (n *assign) GuestSize() int       { return 24 }
func (n *update) GuestSize() int       { return 16 }
func (n *call) GuestSize() int         { return 32 }
func (n *member) GuestSize() int       { return 24 + len(n.Name) }
func (n *index) GuestSize() int        { return 24 }
func (n *varDecl) GuestSize() int      { return 24 + len(n.Name) }
func (n *exprStmt) GuestSize() int     { return 8 }
func (n *returnStmt) GuestSize() int   { return 16 }
func (n *ifStmt) GuestSize() int       { return 32 }
func (n *while) GuestSize() int        { return 32 }
func (n *forStmt) GuestSize() int      { return 48 }
func (n *forIn) GuestSize() int        { return 48 + len(n.Var) }
func (n *breakStmt) GuestSize() int    { return 8 }
func (n *continueStmt) GuestSize() int { return 8 }
func (n *throw) GuestSize() int        { return 16 }
func (n *try) GuestSize() int          { return 48 + len(n.CatchVar) }
func (n *block) GuestSize() int        { return 16 }
func (n *program) GuestSize() int      { return 64 }

// treeSize returns the total guest bytes of a subtree.
func treeSize(n Node) int {
	if n == nil {
		return 0
	}
	sz := n.GuestSize()
	for _, c := range children(n) {
		sz += treeSize(c)
	}
	return sz
}

func children(n Node) []Node {
	switch t := n.(type) {
	case *arrayLit:
		return t.Elems
	case *objectLit:
		return t.Values
	case *funcLit:
		return t.Body
	case *unary:
		return []Node{t.Expr}
	case *binary:
		return []Node{t.LHS, t.RHS}
	case *logical:
		return []Node{t.LHS, t.RHS}
	case *cond:
		return []Node{t.Test, t.Then, t.Else}
	case *assign:
		return []Node{t.Target, t.Value}
	case *update:
		return []Node{t.Target}
	case *call:
		return append([]Node{t.Fn}, t.Args...)
	case *member:
		return []Node{t.Obj}
	case *index:
		return []Node{t.Obj, t.Key}
	case *varDecl:
		if t.Init != nil {
			return []Node{t.Init}
		}
	case *exprStmt:
		return []Node{t.Expr}
	case *returnStmt:
		if t.Value != nil {
			return []Node{t.Value}
		}
	case *ifStmt:
		out := []Node{t.Test}
		out = append(out, t.Then...)
		return append(out, t.Else...)
	case *while:
		return append([]Node{t.Test}, t.Body...)
	case *forStmt:
		var out []Node
		for _, c := range []Node{t.Init, t.Test, t.Post} {
			if c != nil {
				out = append(out, c)
			}
		}
		return append(out, t.Body...)
	case *forIn:
		return append([]Node{t.Expr}, t.Body...)
	case *throw:
		return []Node{t.Value}
	case *try:
		return append(append([]Node{}, t.Body...), t.CatchBody...)
	case *block:
		return t.Body
	case *program:
		return t.Body
	}
	return nil
}
