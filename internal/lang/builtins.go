package lang

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// getMember implements obj.name, including method dispatch on native
// strings and arrays.
func (in *Interp) getMember(obj Value, name string) (Value, error) {
	switch o := obj.(type) {
	case *object:
		return o.get(name), nil
	case *array:
		if name == "length" {
			return float64(len(o.Elems)), nil
		}
		if m, ok := arrayMethods[name]; ok {
			return bindMethod(name, o, m), nil
		}
		return undefined{}, nil
	case string:
		if name == "length" {
			return float64(len(o)), nil
		}
		if m, ok := stringMethods[name]; ok {
			return bindMethod(name, o, m), nil
		}
		return undefined{}, nil
	case null, undefined, nil:
		return nil, &ThrowError{Value: fmt.Sprintf("cannot read property %q of %s", describe(name), ToString(obj))}
	default:
		return undefined{}, nil
	}
}

func (in *Interp) setMember(obj Value, name string, val Value) error {
	switch o := obj.(type) {
	case *object:
		if err := in.alloc(32 + len(name)); err != nil {
			return err
		}
		o.set(name, val)
		return nil
	case *array:
		if name == "length" {
			n := int(toNumber(val))
			if n < 0 {
				n = 0
			}
			if err := in.grow(n - len(o.Elems)); err != nil {
				return err
			}
			for len(o.Elems) < n {
				o.Elems = append(o.Elems, undefined{})
			}
			o.Elems = o.Elems[:n]
			return nil
		}
		return nil // ignore expando props on arrays
	default:
		return &ThrowError{Value: fmt.Sprintf("cannot set property %q on %s", describe(name), typeOf(obj))}
	}
}

func (in *Interp) getIndex(obj, key Value) (Value, error) {
	switch o := obj.(type) {
	case *array:
		if ks, ok := key.(string); ok {
			return in.getMember(o, ks)
		}
		i := int(toNumber(key))
		if i < 0 || i >= len(o.Elems) {
			return undefined{}, nil
		}
		return o.Elems[i], nil
	case *object:
		ks, err := in.toString(key)
		if err != nil {
			return nil, err
		}
		return o.get(ks), nil
	case string:
		if ks, ok := key.(string); ok {
			return in.getMember(o, ks)
		}
		i := int(toNumber(key))
		if i < 0 || i >= len(o) {
			return undefined{}, nil
		}
		return string(o[i]), nil
	case null, undefined, nil:
		return nil, &ThrowError{Value: "cannot index " + describe(obj)}
	default:
		return undefined{}, nil
	}
}

func (in *Interp) setIndex(obj, key, val Value) error {
	switch o := obj.(type) {
	case *array:
		i := int(toNumber(key))
		if i < 0 {
			return &ThrowError{Value: "negative array index"}
		}
		if err := in.grow(i - len(o.Elems)); err != nil { // the holes before i
			return err
		}
		for len(o.Elems) <= i {
			o.Elems = append(o.Elems, undefined{})
		}
		if err := in.alloc(16); err != nil {
			return err
		}
		o.Elems[i] = val
		return nil
	case *object:
		ks, err := in.toString(key)
		if err != nil {
			return err
		}
		if err := in.alloc(32 + len(ks)); err != nil {
			return err
		}
		o.set(ks, val)
		return nil
	default:
		return &ThrowError{Value: "cannot index-assign " + typeOf(obj)}
	}
}

type methodFn func(in *Interp, this Value, args []Value) (Value, error)

func bindMethod(name string, this Value, m methodFn) *builtin {
	return &builtin{Name: name, Fn: func(in *Interp, _ Value, args []Value) (Value, error) {
		return m(in, this, args)
	}}
}

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return undefined{}
}

// arrayMethods is populated in init to break the initialization cycle
// through Interp.CallValue.
var arrayMethods map[string]methodFn

func init() {
	arrayMethods = map[string]methodFn{
		"push": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			if err := in.allocN(len(args), 16); err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, args...)
			return float64(len(a.Elems)), nil
		},
		"pop": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			if len(a.Elems) == 0 {
				return undefined{}, nil
			}
			v := a.Elems[len(a.Elems)-1]
			a.Elems = a.Elems[:len(a.Elems)-1]
			return v, nil
		},
		"shift": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			if len(a.Elems) == 0 {
				return undefined{}, nil
			}
			v := a.Elems[0]
			a.Elems = a.Elems[1:]
			return v, nil
		},
		"join": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			sep := ","
			if s, ok := arg(args, 0).(string); ok {
				sep = s
			}
			var sb strings.Builder
			joinTo(&sb, a, sep, 0, in.room())
			if err := in.alloc(sb.Len()); err != nil {
				return nil, err
			}
			return sb.String(), nil
		},
		"slice": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			start, end := sliceBounds(len(a.Elems), arg(args, 0), arg(args, 1))
			if err := in.alloc(24 + 16*(end-start)); err != nil {
				return nil, err
			}
			return &array{Elems: append([]Value{}, a.Elems[start:end]...)}, nil
		},
		"indexOf": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			for i, e := range a.Elems {
				if strictEquals(e, arg(args, 0)) {
					return float64(i), nil
				}
			}
			return float64(-1), nil
		},
		"includes": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			for _, e := range a.Elems {
				if strictEquals(e, arg(args, 0)) {
					return true, nil
				}
			}
			return false, nil
		},
		"concat": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			n := len(a.Elems)
			for _, v := range args {
				if b, ok := v.(*array); ok {
					n += len(b.Elems)
				} else {
					n++
				}
			}
			if err := in.alloc(24 + 16*n); err != nil {
				return nil, err
			}
			out := &array{Elems: append(make([]Value, 0, n), a.Elems...)}
			for _, v := range args {
				if b, ok := v.(*array); ok {
					out.Elems = append(out.Elems, b.Elems...)
				} else {
					out.Elems = append(out.Elems, v)
				}
			}
			return out, nil
		},
		"map": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			if err := in.alloc(24 + 16*len(a.Elems)); err != nil {
				return nil, err
			}
			out := &array{Elems: make([]Value, 0, len(a.Elems))}
			for i, e := range a.Elems {
				v, err := in.callValue(arg(args, 0), undefined{}, []Value{e, float64(i)})
				if err != nil {
					return nil, err
				}
				out.Elems = append(out.Elems, v)
			}
			return out, nil
		},
		"filter": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			out := &array{}
			for i, e := range a.Elems {
				v, err := in.callValue(arg(args, 0), undefined{}, []Value{e, float64(i)})
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					out.Elems = append(out.Elems, e)
				}
			}
			if err := in.alloc(24 + 16*len(out.Elems)); err != nil {
				return nil, err
			}
			return out, nil
		},
		"forEach": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			for i, e := range a.Elems {
				if _, err := in.callValue(arg(args, 0), undefined{}, []Value{e, float64(i)}); err != nil {
					return nil, err
				}
			}
			return undefined{}, nil
		},
		"reduce": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			acc := arg(args, 1)
			start := 0
			if _, isUndef := acc.(undefined); isUndef && len(args) < 2 {
				if len(a.Elems) == 0 {
					return nil, &ThrowError{Value: "reduce of empty array with no initial value"}
				}
				acc = a.Elems[0]
				start = 1
			}
			for i := start; i < len(a.Elems); i++ {
				v, err := in.callValue(arg(args, 0), undefined{}, []Value{acc, a.Elems[i], float64(i)})
				if err != nil {
					return nil, err
				}
				acc = v
			}
			return acc, nil
		},
		"reverse": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*array)
			for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
				a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
			}
			return a, nil
		},
	}
}

func sliceBounds(n int, startV, endV Value) (int, int) {
	start, end := 0, n
	if _, u := startV.(undefined); !u {
		start = clampIndex(int(toNumber(startV)), n)
	}
	if _, u := endV.(undefined); !u {
		end = clampIndex(int(toNumber(endV)), n)
	}
	if start > end {
		start = end
	}
	return start, end
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

var stringMethods = map[string]methodFn{
	"split": func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		sep, _ := arg(args, 0).(string)
		n := 1
		switch {
		case sep == "" && len(args) > 0:
			n = utf8.RuneCountInString(s)
		case len(args) > 0:
			n = strings.Count(s, sep) + 1
		}
		if err := in.alloc(24 + 16*n + len(s)); err != nil {
			return nil, err
		}
		var parts []string
		if sep == "" && len(args) > 0 {
			for _, r := range s {
				parts = append(parts, string(r))
			}
		} else if len(args) == 0 {
			parts = []string{s}
		} else {
			parts = strings.Split(s, sep)
		}
		out := &array{Elems: make([]Value, len(parts))}
		for i, p := range parts {
			out.Elems[i] = p
		}
		return out, nil
	},
	"toUpperCase": func(in *Interp, this Value, args []Value) (Value, error) {
		s := strings.ToUpper(this.(string))
		if err := in.alloc(len(s)); err != nil {
			return nil, err
		}
		return s, nil
	},
	"toLowerCase": func(in *Interp, this Value, args []Value) (Value, error) {
		s := strings.ToLower(this.(string))
		if err := in.alloc(len(s)); err != nil {
			return nil, err
		}
		return s, nil
	},
	"indexOf": func(in *Interp, this Value, args []Value) (Value, error) {
		sub, _ := arg(args, 0).(string)
		return float64(strings.Index(this.(string), sub)), nil
	},
	"includes": func(in *Interp, this Value, args []Value) (Value, error) {
		sub, _ := arg(args, 0).(string)
		return strings.Contains(this.(string), sub), nil
	},
	"slice": func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		start, end := sliceBounds(len(s), arg(args, 0), arg(args, 1))
		if err := in.alloc(end - start); err != nil {
			return nil, err
		}
		return s[start:end], nil
	},
	"charAt": func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		i := int(toNumber(arg(args, 0)))
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return string(s[i]), nil
	},
	"charCodeAt": func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		i := int(toNumber(arg(args, 0)))
		if i < 0 || i >= len(s) {
			return nan(), nil
		}
		return float64(s[i]), nil
	},
	"trim": func(in *Interp, this Value, args []Value) (Value, error) {
		return strings.TrimSpace(this.(string)), nil
	},
	"repeat": func(in *Interp, this Value, args []Value) (Value, error) {
		n := int(toNumber(arg(args, 0)))
		if n < 0 {
			return nil, &ThrowError{Value: "invalid repeat count"}
		}
		s := this.(string)
		if len(s) == 0 {
			n = 0
		}
		if err := in.allocN(n, max(len(s), 1)); err != nil {
			return nil, err
		}
		return strings.Repeat(s, n), nil
	},
	"startsWith": func(in *Interp, this Value, args []Value) (Value, error) {
		sub, _ := arg(args, 0).(string)
		return strings.HasPrefix(this.(string), sub), nil
	},
	"endsWith": func(in *Interp, this Value, args []Value) (Value, error) {
		sub, _ := arg(args, 0).(string)
		return strings.HasSuffix(this.(string), sub), nil
	},
}

// installBuiltins populates the global scope: console, JSON, Math,
// Object, Date, plus the host bridge functions (http, spin, sleep).
func (in *Interp) installBuiltins() {
	g := in.globals

	console := newObject()
	console.set("log", &builtin{Name: "console.log", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		size := 0
		for n, a := range args {
			s, err := i.toString(a)
			if err != nil {
				return nil, err
			}
			parts[n], size = s, size+len(s)+1
		}
		if err := i.charge(size); err != nil { // the joined line
			return nil, err
		}
		if i.hooks.Output != nil {
			i.hooks.Output(strings.Join(parts, " "))
		}
		return undefined{}, nil
	}})
	console.set("error", console.get("log"))
	g.define("console", console)

	jsonObj := newObject()
	jsonObj.set("stringify", &builtin{Name: "JSON.stringify", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		var sb strings.Builder
		writeJSON(&sb, arg(args, 0), 0, i.room())
		if err := i.alloc(sb.Len()); err != nil {
			return nil, err
		}
		return sb.String(), nil
	}})
	jsonObj.set("parse", &builtin{Name: "JSON.parse", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		s, ok := arg(args, 0).(string)
		if !ok {
			return nil, &ThrowError{Value: "JSON.parse requires a string"}
		}
		return parseJSON(i, s)
	}})
	g.define("JSON", jsonObj)

	mathObj := newObject()
	num1 := func(name string, f func(float64) float64) {
		mathObj.set(name, &builtin{Name: "Math." + name, Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
			return f(toNumber(arg(args, 0))), nil
		}})
	}
	num1("floor", math.Floor)
	num1("ceil", math.Ceil)
	num1("round", math.Round)
	num1("abs", math.Abs)
	num1("sqrt", math.Sqrt)
	num1("log", math.Log)
	num1("exp", math.Exp)
	num1("sin", math.Sin)
	num1("cos", math.Cos)
	mathObj.set("pow", &builtin{Name: "Math.pow", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return math.Pow(toNumber(arg(args, 0)), toNumber(arg(args, 1))), nil
	}})
	mathObj.set("max", &builtin{Name: "Math.max", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, toNumber(a))
		}
		return out, nil
	}})
	mathObj.set("min", &builtin{Name: "Math.min", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, toNumber(a))
		}
		return out, nil
	}})
	mathObj.set("random", &builtin{Name: "Math.random", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Random != nil {
			return i.hooks.Random(), nil
		}
		return 0.5, nil // deterministic default
	}})
	mathObj.set("PI", math.Pi)
	g.define("Math", mathObj)

	objectObj := newObject()
	objectObj.set("keys", &builtin{Name: "Object.keys", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		o, ok := arg(args, 0).(*object)
		if !ok {
			return &array{}, nil
		}
		ks := o.ownKeys()
		if err := i.alloc(24 + 16*len(ks)); err != nil {
			return nil, err
		}
		out := &array{Elems: make([]Value, len(ks))}
		for n, k := range ks {
			out.Elems[n] = k
		}
		return out, nil
	}})
	objectObj.set("values", &builtin{Name: "Object.values", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		o, ok := arg(args, 0).(*object)
		if !ok {
			return &array{}, nil
		}
		ks := o.ownKeys()
		if err := i.alloc(24 + 16*len(ks)); err != nil {
			return nil, err
		}
		out := &array{}
		for _, k := range ks {
			out.Elems = append(out.Elems, o.get(k))
		}
		return out, nil
	}})
	objectObj.set("assign", &builtin{Name: "Object.assign", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		dst, ok := arg(args, 0).(*object)
		if !ok {
			return nil, &ThrowError{Value: "Object.assign target must be an object"}
		}
		for _, src := range args[1:] {
			if so, ok := src.(*object); ok {
				for _, k := range so.ownKeys() {
					if err := i.alloc(32 + len(k)); err != nil {
						return nil, err
					}
					dst.set(k, so.get(k))
				}
			}
		}
		return dst, nil
	}})
	g.define("Object", objectObj)

	arrayObj := newObject()
	arrayObj.set("isArray", &builtin{Name: "Array.isArray", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		_, ok := arg(args, 0).(*array)
		return ok, nil
	}})
	g.define("Array", arrayObj)

	dateObj := newObject()
	dateObj.set("now", &builtin{Name: "Date.now", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Now != nil {
			return i.hooks.Now(), nil
		}
		return 0.0, nil
	}})
	g.define("Date", dateObj)

	// Host bridge: the workload corpus calls these.
	httpObj := newObject()
	httpObj.set("get", &builtin{Name: "http.get", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		url, _ := arg(args, 0).(string)
		if i.hooks.HTTPGet == nil {
			return nil, &ThrowError{Value: "http.get: no network available"}
		}
		body, err := i.hooks.HTTPGet(url)
		if err != nil {
			return nil, &ThrowError{Value: "http.get: " + err.Error()}
		}
		if err := i.alloc(len(body)); err != nil {
			return nil, err
		}
		return body, nil
	}})
	g.define("http", httpObj)

	g.define("spin", &builtin{Name: "spin", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Spin != nil {
			i.hooks.Spin(toNumber(arg(args, 0)))
		}
		return undefined{}, nil
	}})
	g.define("sleep", &builtin{Name: "sleep", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Sleep != nil {
			i.hooks.Sleep(toNumber(arg(args, 0)))
		}
		return undefined{}, nil
	}})
	g.define("parseInt", &builtin{Name: "parseInt", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return math.Trunc(toNumber(arg(args, 0))), nil
	}})
	g.define("parseFloat", &builtin{Name: "parseFloat", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return toNumber(arg(args, 0)), nil
	}})
	g.define("String", &builtin{Name: "String", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		v := arg(args, 0)
		s, err := i.toString(v)
		if _, same := v.(string); err == nil && !same {
			err = i.alloc(len(s))
		}
		if err != nil {
			return nil, err
		}
		return s, nil
	}})
	g.define("Number", &builtin{Name: "Number", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return toNumber(arg(args, 0)), nil
	}})
	g.define("isNaN", &builtin{Name: "isNaN", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		n := toNumber(arg(args, 0))
		return n != n, nil
	}})
	g.define("Error", &builtin{Name: "Error", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if err := i.alloc(64); err != nil {
			return nil, err
		}
		o := newObject()
		o.set("message", arg(args, 0))
		return o, nil
	}})
}

// extraStringMethods and extraArrayMethods extend the method tables
// with the remainder of the commonly-used surface (replace, substring,
// padding; sort, some/every, flat).
func init() {
	stringMethods["replace"] = func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		old, _ := arg(args, 0).(string)
		nw, err := in.toString(arg(args, 1))
		if err != nil {
			return nil, err
		}
		if err := in.allocReplaced(s, old, nw, 1); err != nil {
			return nil, err
		}
		return strings.Replace(s, old, nw, 1), nil
	}
	stringMethods["replaceAll"] = func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		old, _ := arg(args, 0).(string)
		nw, err := in.toString(arg(args, 1))
		if err != nil {
			return nil, err
		}
		if err := in.allocReplaced(s, old, nw, -1); err != nil {
			return nil, err
		}
		return strings.ReplaceAll(s, old, nw), nil
	}
	stringMethods["substring"] = stringMethods["slice"]
	stringMethods["padStart"] = func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		fill, k, err := in.padding(s, args)
		if err != nil {
			return nil, err
		}
		return fill[len(fill)-k:] + s, nil
	}
	stringMethods["padEnd"] = func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		fill, k, err := in.padding(s, args)
		if err != nil {
			return nil, err
		}
		return s + fill[:k], nil
	}

	arrayMethods["sort"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*array)
		cmp, hasCmp := arg(args, 0).(*closure)
		if !hasCmp {
			return a, in.sortByString(a)
		}
		var sortErr error
		sortStable(a.Elems, func(x, y Value) bool {
			if sortErr != nil {
				return false
			}
			v, err := in.callValue(cmp, undefined{}, []Value{x, y})
			if err != nil {
				sortErr = err
				return false
			}
			return toNumber(v) < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
		return a, nil
	}
	arrayMethods["some"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*array)
		for i, e := range a.Elems {
			v, err := in.callValue(arg(args, 0), undefined{}, []Value{e, float64(i)})
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				return true, nil
			}
		}
		return false, nil
	}
	arrayMethods["every"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*array)
		for i, e := range a.Elems {
			v, err := in.callValue(arg(args, 0), undefined{}, []Value{e, float64(i)})
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				return false, nil
			}
		}
		return true, nil
	}
	arrayMethods["find"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*array)
		for i, e := range a.Elems {
			v, err := in.callValue(arg(args, 0), undefined{}, []Value{e, float64(i)})
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				return e, nil
			}
		}
		return undefined{}, nil
	}
	arrayMethods["flat"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*array)
		n := 0
		for _, e := range a.Elems {
			if inner, ok := e.(*array); ok {
				n += len(inner.Elems)
			} else {
				n++
			}
		}
		if err := in.alloc(24 + 16*n); err != nil {
			return nil, err
		}
		out := &array{Elems: make([]Value, 0, n)}
		for _, e := range a.Elems {
			if inner, ok := e.(*array); ok {
				out.Elems = append(out.Elems, inner.Elems...)
			} else {
				out.Elems = append(out.Elems, e)
			}
		}
		return out, nil
	}
}

// padding prices the result of s.padStart/padEnd(args) and returns the
// pad string repeated to cover the k bytes the result adds to s.
func (in *Interp) padding(s string, args []Value) (fill string, k int, err error) {
	n := int(toNumber(arg(args, 0)))
	if n <= len(s) {
		return "", 0, in.alloc(len(s))
	}
	if err := in.alloc(n); err != nil {
		return "", 0, err
	}
	pad := " "
	if p, ok := arg(args, 1).(string); ok && p != "" {
		pad = p
	}
	k = n - len(s)
	return strings.Repeat(pad, (k+len(pad)-1)/len(pad)), k, nil
}

// allocReplaced prices strings.Replace(s, old, nw, n) before it is built.
func (in *Interp) allocReplaced(s, old, nw string, n int) error {
	count := strings.Count(s, old)
	if n >= 0 && count > n {
		count = n
	}
	if len(nw) <= len(old) {
		return in.alloc(len(s) - count*(len(old)-len(nw)))
	}
	if count > (maxHostBytes-len(s))/(len(nw)-len(old)) {
		return errHostMemory
	}
	return in.alloc(len(s) + count*(len(nw)-len(old)))
}

// sortByString sorts a in JavaScript's default order, by the elements'
// string renderings. Each element is rendered once, up front, so the
// renderings are charged once rather than on every comparison.
func (in *Interp) sortByString(a *array) error {
	type keyed struct {
		key string
		v   Value
	}
	ks := make([]keyed, len(a.Elems))
	for i, v := range a.Elems {
		s, err := in.toString(v)
		if err != nil {
			return err
		}
		ks[i] = keyed{s, v}
	}
	slices.SortStableFunc(ks, func(x, y keyed) int { return strings.Compare(x.key, y.key) })
	for i, k := range ks {
		a.Elems[i] = k.v
	}
	return nil
}

// sortStable sorts v stably by less: an insertion sort up to 20
// elements, so a guest comparator sees the calls it always saw, and a
// merge of such runs above, so a large array does not cost the host
// quadratic time.
func sortStable(v []Value, less func(a, b Value) bool) {
	slices.SortStableFunc(v, func(a, b Value) int {
		if less(a, b) {
			return -1
		}
		return 0
	})
}
