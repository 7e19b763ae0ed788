package lang

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// parseJSON converts a JSON document into MiniJS values. A malformed
// document is thrown to the guest with json.Unmarshal's message, before
// anything is charged. A valid one is read in place, straight into
// MiniJS values, because the generic tree json.Unmarshal builds first
// costs the host up to 60 bytes per byte of input before any of it
// could be charged. Each structure is charged to the guest heap — 24
// bytes and 16 a slot per array, 48 per object and 32 plus its length
// per key, a string's length — and each slot and key to the host budget
// before it is held. Keys are sorted, the last of duplicate keys
// winning.
func parseJSON(in *Interp, s string) (Value, error) {
	if b := []byte(s); !json.Valid(b) {
		var raw any
		err := json.Unmarshal(b, &raw) // fails before building anything
		return nil, &ThrowError{Value: fmt.Sprintf("JSON.parse: %v", err)}
	}
	r := jsonReader{in: in, s: s}
	return r.value()
}

// jsonReader reads a document json.Valid accepted, so it checks nothing
// but the host budget. Recursion is bounded by json.Valid's nesting
// limit.
type jsonReader struct {
	in *Interp
	s  string
	i  int
}

// next skips whitespace and returns the byte at the reader.
func (r *jsonReader) next() byte {
	for strings.IndexByte(" \t\n\r", r.s[r.i]) >= 0 {
		r.i++
	}
	return r.s[r.i]
}

func (r *jsonReader) value() (Value, error) {
	switch c := r.next(); c {
	case '[':
		r.i++
		var elems []Value
		for r.next() != ']' {
			if r.s[r.i] == ',' {
				r.i++
			}
			if err := r.in.charge(16); err != nil {
				return nil, err
			}
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		r.i++
		return &array{Elems: elems}, r.in.alloc(24 + 16*len(elems))
	case '{':
		r.i++
		type prop struct {
			key string
			v   Value
		}
		var props []prop
		for r.next() != '}' {
			if r.s[r.i] == ',' {
				r.i++
				r.next()
			}
			k, err := r.str()
			if err == nil {
				err = r.in.charge(32 + len(k))
			}
			if err != nil {
				return nil, err
			}
			r.next()
			r.i++ // the colon
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			props = append(props, prop{k, v})
		}
		r.i++
		if err := r.in.alloc(48); err != nil {
			return nil, err
		}
		slices.SortStableFunc(props, func(a, b prop) int { return strings.Compare(a.key, b.key) })
		obj := newObject()
		for n, p := range props {
			if n+1 < len(props) && props[n+1].key == p.key {
				continue // a later duplicate wins
			}
			if err := r.in.alloc(32 + len(p.key)); err != nil {
				return nil, err
			}
			obj.set(p.key, p.v)
		}
		return obj, nil
	case '"':
		str, err := r.str()
		if err != nil {
			return nil, err
		}
		return str, r.in.alloc(len(str))
	case 't':
		r.i += len("true")
		return true, nil
	case 'f':
		r.i += len("false")
		return false, nil
	case 'n':
		r.i += len("null")
		return null{}, nil
	}
	start := r.i
	for r.i < len(r.s) && strings.IndexByte("+-.0123456789eE", r.s[r.i]) >= 0 {
		r.i++
	}
	num := r.s[start:r.i]
	f, err := strconv.ParseFloat(num, 64)
	if err != nil { // out of float64's range
		return nil, &ThrowError{Value: fmt.Sprintf("JSON.parse: json: cannot unmarshal number %s into Go value of type float64", num)}
	}
	return f, nil
}

// str reads a string literal. One without escapes that is valid UTF-8
// is its own bytes, copied out of the document so that keeping it does
// not keep the document; any other is decoded by encoding/json, so that
// escapes and invalid bytes mean what they mean to json.Unmarshal.
func (r *jsonReader) str() (string, error) {
	start, plain := r.i, true
	for r.i++; r.s[r.i] != '"'; r.i++ {
		if r.s[r.i] == '\\' {
			plain = false
			r.i++
		}
	}
	r.i++
	lit := r.s[start:r.i]
	if plain && utf8.ValidString(lit) {
		return strings.Clone(lit[1 : len(lit)-1]), nil
	}
	if err := r.in.charge(len(lit)); err != nil {
		return "", err
	}
	var out string
	err := json.Unmarshal([]byte(lit), &out)
	return out, err
}
