package lang

import "fmt"

// parser is a recursive-descent / Pratt parser for MiniJS.
type parser struct {
	toks    []token
	pos     int
	depth   int // statement and expression levels open; see nest
	deepest int // the highest depth reached, for FuncLit.Nesting
}

// maxNesting bounds how deeply statements and expressions nest. The
// parser recurses once per level and the evaluator once per level of
// the tree it builds, so without a bound 1 MiB of "((((" would take
// either one deeper than a goroutine stack can grow, and that is a
// crash of the whole process. Past the bound the source is a syntax
// error. A parenthesis opens two levels.
const maxNesting = 512

// nest opens one level of nesting; unnest closes it.
func (p *parser) nest() error {
	if p.depth == maxNesting {
		return p.errHere("statements and expressions nest too deeply")
	}
	p.depth++
	p.deepest = max(p.deepest, p.depth)
	return nil
}

func (p *parser) unnest() { p.depth-- }

// Parse compiles MiniJS source into a Program. This is the "import and
// compile the function code" step of a cold invocation.
func Parse(src string) (*program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &program{Source: src}
	for !p.at(tokEOF, "") {
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, stmt)
	}
	prog.size = treeSize(prog)
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		want = kind.String()
	}
	return token{}, &syntaxError{
		Msg:  fmt.Sprintf("expected %q, found %q", want, t.Text),
		Line: t.Line, Col: t.Col,
	}
}

func (p *parser) errHere(msg string) error {
	t := p.cur()
	return &syntaxError{Msg: msg, Line: t.Line, Col: t.Col}
}

// ---- statements ----

func (p *parser) statement() (Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.cur()
	if t.Kind == tokKeyword {
		switch t.Text {
		case "var", "let", "const":
			return p.varDecl()
		case "function":
			return p.funcDecl()
		case "return":
			p.next()
			var val Node
			if !p.at(tokPunct, ";") && !p.at(tokPunct, "}") && !p.at(tokEOF, "") {
				v, err := p.expression()
				if err != nil {
					return nil, err
				}
				val = v
			}
			p.accept(tokPunct, ";")
			return &returnStmt{Value: val}, nil
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "for":
			return p.forStmt()
		case "break":
			p.next()
			p.accept(tokPunct, ";")
			return &breakStmt{}, nil
		case "continue":
			p.next()
			p.accept(tokPunct, ";")
			return &continueStmt{}, nil
		case "throw":
			p.next()
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			p.accept(tokPunct, ";")
			return &throw{Value: v}, nil
		case "try":
			return p.tryStmt()
		case "switch":
			return nil, p.errHere("switch statements are not supported")
		case "do":
			return nil, p.errHere("do-while loops are not supported")
		}
	}
	if p.at(tokPunct, "{") {
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &block{Body: body}, nil
	}
	if p.accept(tokPunct, ";") {
		return &block{}, nil // empty statement
	}
	expr, err := p.expression()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	return &exprStmt{Expr: expr}, nil
}

func (p *parser) varDecl() (Node, error) {
	p.next() // var/let/const
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	var init Node
	if p.accept(tokPunct, "=") {
		init, err = p.assignExpr()
		if err != nil {
			return nil, err
		}
	}
	// Comma-separated declarations desugar into a block.
	if p.accept(tokPunct, ",") {
		rest, err := p.varDeclTail()
		if err != nil {
			return nil, err
		}
		return &block{Body: append([]Node{&varDecl{Name: name.Text, Init: init}}, rest...)}, nil
	}
	p.accept(tokPunct, ";")
	return &varDecl{Name: name.Text, Init: init}, nil
}

func (p *parser) varDeclTail() ([]Node, error) {
	var out []Node
	for {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		var init Node
		if p.accept(tokPunct, "=") {
			init, err = p.assignExpr()
			if err != nil {
				return nil, err
			}
		}
		out = append(out, &varDecl{Name: name.Text, Init: init})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	p.accept(tokPunct, ";")
	return out, nil
}

func (p *parser) funcDecl() (Node, error) {
	p.next() // function
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	fn, err := p.funcRest(name.Text)
	if err != nil {
		return nil, err
	}
	return &varDecl{Name: name.Text, Init: fn}, nil
}

// funcRest parses "(params) { body }" after the function keyword/name.
func (p *parser) funcRest(name string) (*funcLit, error) {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tokPunct, ")") {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		params = append(params, id.Text)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	// Record how deeply the body nests.
	outer := p.deepest
	p.deepest = p.depth
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn := &funcLit{Name: name, Params: params, Body: body, Nesting: p.deepest - p.depth}
	p.deepest = max(outer, p.deepest)
	return fn, nil
}

func (p *parser) block() ([]Node, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var body []Node
	for !p.at(tokPunct, "}") {
		if p.at(tokEOF, "") {
			return nil, p.errHere("unterminated block")
		}
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, stmt)
	}
	p.next() // }
	return body, nil
}

func (p *parser) ifStmt() (Node, error) {
	p.next() // if
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	var els []Node
	if p.accept(tokKeyword, "else") {
		if p.at(tokKeyword, "if") {
			elseIf, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			els = []Node{elseIf}
		} else {
			els, err = p.blockOrSingle()
			if err != nil {
				return nil, err
			}
		}
	}
	return &ifStmt{Test: test, Then: then, Else: els}, nil
}

func (p *parser) blockOrSingle() ([]Node, error) {
	if p.at(tokPunct, "{") {
		return p.block()
	}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	return []Node{stmt}, nil
}

func (p *parser) whileStmt() (Node, error) {
	p.next() // while
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &while{Test: test, Body: body}, nil
}

func (p *parser) forStmt() (Node, error) {
	p.next() // for
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	// for (x of e) / for (x in e)
	if (p.at(tokKeyword, "var") || p.at(tokKeyword, "let") || p.at(tokKeyword, "const")) &&
		p.toks[p.pos+1].Kind == tokIdent &&
		(p.toks[p.pos+2].Text == "of" || p.toks[p.pos+2].Text == "in") {
		p.next() // var
		name := p.next()
		ofTok := p.next()
		expr, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.blockOrSingle()
		if err != nil {
			return nil, err
		}
		return &forIn{Var: name.Text, Of: ofTok.Text == "of", Expr: expr, Body: body}, nil
	}
	var init Node
	var err error
	if !p.at(tokPunct, ";") {
		if p.at(tokKeyword, "var") || p.at(tokKeyword, "let") || p.at(tokKeyword, "const") {
			init, err = p.varDecl() // consumes its own ';'
		} else {
			var e Node
			e, err = p.expression()
			init = &exprStmt{Expr: e}
			if err == nil {
				_, err = p.expect(tokPunct, ";")
			}
		}
		if err != nil {
			return nil, err
		}
	} else {
		p.next()
	}
	var test Node
	if !p.at(tokPunct, ";") {
		test, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	var post Node
	if !p.at(tokPunct, ")") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		post = &exprStmt{Expr: e}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &forStmt{Init: init, Test: test, Post: post, Body: body}, nil
}

func (p *parser) tryStmt() (Node, error) {
	p.next() // try
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "catch"); err != nil {
		return nil, err
	}
	catchVar := ""
	if p.accept(tokPunct, "(") {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		catchVar = id.Text
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	catchBody, err := p.block()
	if err != nil {
		return nil, err
	}
	return &try{Body: body, CatchVar: catchVar, CatchBody: catchBody}, nil
}

// ---- expressions (precedence climbing) ----

func (p *parser) expression() (Node, error) { return p.assignExpr() }

func (p *parser) assignExpr() (Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == tokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=":
			if !isAssignable(lhs) {
				return nil, p.errHere("invalid assignment target")
			}
			p.next()
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &assign{Op: t.Text, Target: lhs, Value: rhs}, nil
		}
	}
	return lhs, nil
}

func isAssignable(n Node) bool {
	switch n.(type) {
	case *ident, *member, *index:
		return true
	}
	return false
}

func (p *parser) condExpr() (Node, error) {
	test, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.accept(tokPunct, "?") {
		then, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ":"); err != nil {
			return nil, err
		}
		els, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &cond{Test: test, Then: then, Else: els}, nil
	}
	return test, nil
}

// binary operator precedence (higher binds tighter).
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binaryExpr(minPrec int) (Node, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	// Each operator wraps the tree so far: a left-deep chain the
	// evaluator descends one level per link.
	links := 0
	defer func() { p.depth -= links }()
	for {
		t := p.cur()
		if t.Kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		links++
		rhs, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		if t.Text == "&&" || t.Text == "||" {
			lhs = &logical{Op: t.Text, LHS: lhs, RHS: rhs}
		} else {
			lhs = &binary{Op: t.Text, LHS: lhs, RHS: rhs}
		}
	}
}

func (p *parser) unaryExpr() (Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.cur()
	if t.Kind == tokPunct && (t.Text == "-" || t.Text == "+" || t.Text == "!" || t.Text == "~") {
		p.next()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &unary{Op: t.Text, Expr: e}, nil
	}
	if t.Kind == tokPunct && (t.Text == "++" || t.Text == "--") {
		p.next()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if !isAssignable(e) {
			return nil, p.errHere("invalid update target")
		}
		return &update{Op: t.Text, Target: e}, nil
	}
	if t.Kind == tokKeyword && t.Text == "typeof" {
		p.next()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &unary{Op: "typeof", Expr: e}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Node, error) {
	e, err := p.callExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == tokPunct && (t.Text == "++" || t.Text == "--") {
		if !isAssignable(e) {
			return nil, p.errHere("invalid update target")
		}
		p.next()
		return &update{Op: t.Text, Target: e, Postfix: true}, nil
	}
	return e, nil
}

func (p *parser) callExpr() (Node, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	// Calls, members and indexes wrap e: a left-deep chain, as in
	// binaryExpr.
	links := 0
	defer func() { p.depth -= links }()
	for {
		if p.at(tokPunct, "(") || p.at(tokPunct, ".") || p.at(tokPunct, "[") {
			if err := p.nest(); err != nil {
				return nil, err
			}
			links++
		}
		switch {
		case p.accept(tokPunct, "("):
			var args []Node
			for !p.at(tokPunct, ")") {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			e = &call{Fn: e, Args: args}
		case p.accept(tokPunct, "."):
			id, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			e = &member{Obj: e, Name: id.Text}
		case p.accept(tokPunct, "["):
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			e = &index{Obj: e, Key: key}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (Node, error) {
	t := p.cur()
	switch t.Kind {
	case tokNumber:
		p.next()
		return &numberLit{Value: t.Num}, nil
	case tokString:
		p.next()
		return &stringLit{Value: t.Text}, nil
	case tokKeyword:
		switch t.Text {
		case "true":
			p.next()
			return &boolLit{Value: true}, nil
		case "false":
			p.next()
			return &boolLit{Value: false}, nil
		case "null":
			p.next()
			return &nullLit{}, nil
		case "undefined":
			p.next()
			return &undefinedLit{}, nil
		case "function":
			p.next()
			name := ""
			if p.at(tokIdent, "") {
				name = p.next().Text
			}
			return p.funcRest(name)
		case "new":
			// MiniJS treats `new F(args)` as a plain call.
			p.next()
			if err := p.nest(); err != nil {
				return nil, err
			}
			defer p.unnest()
			return p.callExpr()
		}
	case tokIdent:
		p.next()
		return &ident{Name: t.Text}, nil
	case tokPunct:
		switch t.Text {
		case "(":
			p.next()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.next()
			var elems []Node
			for !p.at(tokPunct, "]") {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			return &arrayLit{Elems: elems}, nil
		case "{":
			return p.objectLit()
		}
	}
	return nil, p.errHere(fmt.Sprintf("unexpected token %q", t.Text))
}

// objectLit parses {k: v, "k": v, ...}.
func (p *parser) objectLit() (Node, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	obj := &objectLit{}
	for !p.at(tokPunct, "}") {
		var key string
		switch {
		case p.at(tokIdent, "") || p.cur().Kind == tokKeyword:
			key = p.next().Text
		case p.cur().Kind == tokString:
			key = p.next().Text
		case p.cur().Kind == tokNumber:
			key = p.next().Text
		default:
			return nil, p.errHere("expected property name")
		}
		if _, err := p.expect(tokPunct, ":"); err != nil {
			return nil, err
		}
		val, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		obj.Keys = append(obj.Keys, key)
		obj.Values = append(obj.Values, val)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return nil, err
	}
	return obj, nil
}
