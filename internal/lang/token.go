// Package lang implements MiniJS, the high-level scripting language
// interpreted inside SEUSS unikernel contexts.
//
// The paper runs serverless functions on Node.js and Python ports
// linked into Rumprun unikernels. We cannot embed V8, so MiniJS stands
// in: a JavaScript-flavored language with closures, objects, arrays,
// prototypal method dispatch on builtins, and a small standard library.
// What matters for the reproduction is not language completeness but
// that the interpreter is *real*: importing a function parses source
// into an AST, evaluation allocates values, and — through the Hooks
// interface — every allocation lands in the UC's simulated address
// space and every evaluation step advances the virtual clock. Snapshot
// diffs, AO effects, and compile overheads then emerge from running
// code rather than from constants.
package lang

import "fmt"

// tokenKind enumerates lexical token types.
type tokenKind int

// Token kinds.
const (
	tokEOF tokenKind = iota
	tokNumber
	tokString
	tokIdent
	tokKeyword
	tokPunct
	tokTemplate
)

var kindNames = map[tokenKind]string{
	tokEOF:      "EOF",
	tokNumber:   "number",
	tokString:   "string",
	tokIdent:    "identifier",
	tokKeyword:  "keyword",
	tokPunct:    "punctuation",
	tokTemplate: "template",
}

// String implements fmt.Stringer.
func (k tokenKind) String() string { return kindNames[k] }

// token is one lexical token with source position for error reporting.
type token struct {
	Kind tokenKind
	Text string
	Num  float64 // valid when Kind == TokNumber
	Line int
	Col  int
}

// String implements fmt.Stringer.
func (t token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"return": true, "if": true, "else": true, "while": true,
	"for": true, "break": true, "continue": true, "true": true,
	"false": true, "null": true, "undefined": true, "new": true,
	"typeof": true, "throw": true, "try": true, "catch": true,
	"in": true, "of": true, "switch": true, "case": true,
	"default": true, "do": true,
}

// syntaxError is returned by Parse for malformed source.
type syntaxError struct {
	Msg  string
	Line int
	Col  int
}

// Error implements the error interface.
func (e *syntaxError) Error() string {
	return fmt.Sprintf("minijs: syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}
