package lang

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Value is a MiniJS runtime value. Concrete types:
//
//	float64    numbers
//	string     strings
//	bool       booleans
//	Null       null
//	Undefined  undefined
//	*Object    objects
//	*Array     arrays
//	*Closure   user functions
//	*Builtin   host functions
type Value interface{}

// null is the MiniJS null value.
type null struct{}

// undefined is the MiniJS undefined value.
type undefined struct{}

// object is a MiniJS object with insertion-ordered keys.
type object struct {
	props map[string]Value
	keys  []string
}

// newObject returns an empty object.
func newObject() *object {
	return &object{props: make(map[string]Value)}
}

// get returns the property value, or Undefined{}.
func (o *object) get(key string) Value {
	if v, ok := o.props[key]; ok {
		return v
	}
	return undefined{}
}

// set stores a property, preserving first-insertion key order.
func (o *object) set(key string, v Value) {
	if _, ok := o.props[key]; !ok {
		o.keys = append(o.keys, key)
	}
	o.props[key] = v
}

// ownKeys returns the property names in insertion order.
func (o *object) ownKeys() []string {
	out := make([]string, len(o.keys))
	copy(out, o.keys)
	return out
}

// array is a MiniJS array.
type array struct {
	Elems []Value
}

// closure is a user-defined function together with its captured
// environment.
type closure struct {
	Fn  *funcLit
	Env *env
}

// builtin is a host-implemented function. A method read off an array
// or a string (bindMethod) has no Fn: it calls method on recv.
type builtin struct {
	Name   string
	Fn     func(in *Interp, this Value, args []Value) (Value, error)
	recv   Value
	method methodFn
}

// env is a lexical scope.
type env struct {
	vars   map[string]Value
	parent *env
}

// newEnv returns a scope chained to parent (nil for the global scope).
func newEnv(parent *env) *env {
	return &env{vars: make(map[string]Value), parent: parent}
}

// get resolves a name up the scope chain.
func (e *env) get(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// define binds a name in this scope.
func (e *env) define(name string, v Value) { e.vars[name] = v }

// assign rebinds the nearest existing binding; if none exists the name
// is defined globally (sloppy-mode JS behavior, which serverless driver
// scripts rely on).
func (e *env) assign(name string, v Value) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
		if s.parent == nil {
			s.vars[name] = v
			return
		}
	}
}

// truthy converts a value to boolean using JS semantics.
func truthy(v Value) bool {
	switch t := v.(type) {
	case bool:
		return t
	case float64:
		return t != 0 && t == t // false for 0 and NaN
	case string:
		return t != ""
	case null, undefined, nil:
		return false
	default:
		return true
	}
}

// typeOf returns the typeof string for a value.
func typeOf(v Value) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	case undefined, nil:
		return "undefined"
	case null, *object, *array:
		return "object"
	case *closure, *builtin:
		return "function"
	}
	return "unknown"
}

// ToString converts a value to its display string (console.log / string
// concatenation semantics).
func ToString(v Value) string {
	switch t := v.(type) {
	case nil, undefined:
		return "undefined"
	case null:
		return "null"
	case bool:
		if t {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(t)
	case string:
		return t
	case *array:
		var sb strings.Builder
		joinTo(&sb, t, ",", 0, maxHostBytes)
		return sb.String()
	case *object:
		return "[object Object]"
	case *closure:
		if t.Fn.Name != "" {
			return "function " + t.Fn.Name
		}
		return "function"
	case *builtin:
		return "function " + t.Name
	}
	return fmt.Sprintf("%v", v)
}

// joinTo writes a's elements rendered by ToString and separated by sep.
// Rendering is bounded, because a guest can build values whose
// rendering the host cannot afford: an array nested deeper than the
// parser's bound (an array that contains itself, say) renders as
// nothing, as JavaScript renders a cycle, and rendering stops one byte
// past limit, which the caller then refuses.
func joinTo(sb *strings.Builder, a *array, sep string, depth, limit int) {
	if depth > maxNesting {
		return
	}
	for i, e := range a.Elems {
		if sb.Len() > limit {
			return
		}
		if i > 0 {
			writeCapped(sb, sep, limit)
		}
		if inner, ok := e.(*array); ok {
			joinTo(sb, inner, ",", depth+1, limit)
		} else {
			writeCapped(sb, ToString(e), limit)
		}
	}
}

// writeCapped writes s, or as much of it as takes sb one byte past
// limit.
func writeCapped(sb *strings.Builder, s string, limit int) {
	if room := limit + 1 - sb.Len(); len(s) > room {
		s = s[:max(room, 0)]
	}
	sb.WriteString(s)
}

// describeLimit bounds how much of a value an error message shows.
const describeLimit = 64

// describe renders v for an error message a guest can catch and keep:
// at most describeLimit bytes and an ellipsis, so a message costs the
// host no more than the error value carrying it, whatever v is.
func describe(v Value) string {
	s, ok := v.(string)
	if !ok {
		if a, isArray := v.(*array); isArray {
			var sb strings.Builder
			joinTo(&sb, a, ",", 0, describeLimit)
			s = sb.String()
		} else {
			s = ToString(v)
		}
	}
	if len(s) > describeLimit {
		return s[:describeLimit] + "..."
	}
	return s
}

func formatNumber(f float64) string {
	if f == float64(int64(f)) && f < 1e15 && f > -1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// toNumber converts a value to a number using JS coercion.
func toNumber(v Value) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case bool:
		if t {
			return 1
		}
		return 0
	case string:
		s := strings.TrimSpace(t)
		if s == "" {
			return 0
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
		return nan()
	case null:
		return 0
	}
	return nan()
}

func nan() float64 {
	var z float64
	return z / z * 0 // avoid importing math just for NaN
}

// strictEquals implements ===.
func strictEquals(a, b Value) bool {
	switch at := a.(type) {
	case float64:
		bt, ok := b.(float64)
		return ok && at == bt
	case string:
		bt, ok := b.(string)
		return ok && at == bt
	case bool:
		bt, ok := b.(bool)
		return ok && at == bt
	case null:
		_, ok := b.(null)
		return ok
	case undefined, nil:
		switch b.(type) {
		case undefined, nil:
			return true
		}
		return false
	default:
		return a == b // reference equality for objects/arrays/functions
	}
}

// looseEquals implements == with the common coercions.
func looseEquals(a, b Value) bool {
	if strictEquals(a, b) {
		return true
	}
	an, aNullish := nullish(a)
	bn, bNullish := nullish(b)
	if aNullish || bNullish {
		return an && bn
	}
	// number/string/bool cross-coercion
	switch a.(type) {
	case float64, string, bool:
		switch b.(type) {
		case float64, string, bool:
			return toNumber(a) == toNumber(b)
		}
	}
	return false
}

func nullish(v Value) (isNullish, _ bool) {
	switch v.(type) {
	case null, undefined, nil:
		return true, true
	}
	return false, false
}

// JSONStringify renders a value as JSON, as JavaScript's JSON.stringify
// does: NaN and ±Infinity render as null, object members whose value is
// undefined or a function are omitted, and such array elements (and
// such a value itself) render as null. Rendering is bounded as joinTo's
// is: a container nested deeper than the parser's bound renders as
// null, and rendering stops once the output passes MaxHostBytes.
func JSONStringify(v Value) string {
	var sb strings.Builder
	writeJSON(&sb, v, 0, maxHostBytes)
	return sb.String()
}

// unrepresentable reports whether v has no JSON form: an object member
// holding it is omitted, and anywhere else it renders as null.
func unrepresentable(v Value) bool {
	switch v.(type) {
	case nil, undefined, *closure, *builtin:
		return true
	}
	return false
}

func writeJSON(sb *strings.Builder, v Value, depth, limit int) {
	if sb.Len() > limit {
		return
	}
	switch t := v.(type) {
	case bool:
		if t {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case float64:
		if math.IsNaN(t) || math.IsInf(t, 0) {
			sb.WriteString("null")
			return
		}
		sb.WriteString(formatNumber(t))
	case string:
		writeQuoted(sb, t, limit)
	case *array:
		if depth > maxNesting {
			sb.WriteString("null")
			return
		}
		sb.WriteByte('[')
		for i, e := range t.Elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeJSON(sb, e, depth+1, limit)
		}
		sb.WriteByte(']')
	case *object:
		if depth > maxNesting {
			sb.WriteString("null")
			return
		}
		sb.WriteByte('{')
		first := true
		for _, k := range t.keys {
			e := t.props[k]
			if unrepresentable(e) {
				continue
			}
			if !first {
				sb.WriteByte(',')
			}
			first = false
			writeQuoted(sb, k, limit)
			sb.WriteByte(':')
			writeJSON(sb, e, depth+1, limit)
		}
		sb.WriteByte('}')
	default: // null, and the values unrepresentable reports
		sb.WriteString("null")
	}
}

// writeQuoted writes s as a JSON string literal, escaped as
// JSON.stringify escapes it: `"` and `\`, the short escapes for
// backspace, form feed, newline, carriage return and tab, \u00XX for
// the other bytes below 0x20, U+FFFD for each byte of invalid UTF-8,
// and every other character as it is. It works a piece at a time so
// that escaping (up to six bytes per byte) never writes more than a
// piece past limit; pieces end on rune boundaries.
func writeQuoted(sb *strings.Builder, s string, limit int) {
	const piece = 4096
	sb.WriteByte('"')
	for len(s) > 0 && sb.Len() <= limit {
		n := min(len(s), piece)
		for k := 0; k < utf8.UTFMax && n < len(s) && !utf8.RuneStart(s[n]); k++ {
			n--
		}
		writeEscaped(sb, s[:n])
		s = s[n:]
	}
	sb.WriteByte('"')
}

// writeEscaped writes s's characters with writeQuoted's escapes.
func writeEscaped(sb *strings.Builder, s string) {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		} else if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		sb.WriteString(s[start:i])
		switch c {
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			if c < 0x20 {
				sb.WriteString(`\u00`)
				sb.WriteByte(hex[c>>4])
				sb.WriteByte(hex[c&0xf])
			} else {
				sb.WriteString("\uFFFD")
			}
		}
		i++
		start = i
	}
	sb.WriteString(s[start:])
}
