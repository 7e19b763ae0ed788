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
	case *Object:
		return o.Get(name), nil
	case *Array:
		if name == "length" {
			return float64(len(o.Elems)), nil
		}
		if m, ok := arrayMethods[name]; ok {
			return bindMethod(name, o, m), nil
		}
		return Undefined{}, nil
	case string:
		if name == "length" {
			return float64(len(o)), nil
		}
		if m, ok := stringMethods[name]; ok {
			return bindMethod(name, o, m), nil
		}
		return Undefined{}, nil
	case Null, Undefined, nil:
		return nil, &ThrowError{Value: fmt.Sprintf("cannot read property %q of %s", describe(name), ToString(obj))}
	default:
		return Undefined{}, nil
	}
}

func (in *Interp) setMember(obj Value, name string, val Value) error {
	switch o := obj.(type) {
	case *Object:
		if err := in.alloc(32 + len(name)); err != nil {
			return err
		}
		o.Set(name, val)
		return nil
	case *Array:
		if name == "length" {
			n := int(ToNumber(val))
			if n < 0 {
				n = 0
			}
			if err := in.grow(n - len(o.Elems)); err != nil {
				return err
			}
			for len(o.Elems) < n {
				o.Elems = append(o.Elems, Undefined{})
			}
			o.Elems = o.Elems[:n]
			return nil
		}
		return nil // ignore expando props on arrays
	default:
		return &ThrowError{Value: fmt.Sprintf("cannot set property %q on %s", describe(name), TypeOf(obj))}
	}
}

func (in *Interp) getIndex(obj, key Value) (Value, error) {
	switch o := obj.(type) {
	case *Array:
		if ks, ok := key.(string); ok {
			return in.getMember(o, ks)
		}
		i := int(ToNumber(key))
		if i < 0 || i >= len(o.Elems) {
			return Undefined{}, nil
		}
		return o.Elems[i], nil
	case *Object:
		ks, err := in.toString(key)
		if err != nil {
			return nil, err
		}
		return o.Get(ks), nil
	case string:
		if ks, ok := key.(string); ok {
			return in.getMember(o, ks)
		}
		i := int(ToNumber(key))
		if i < 0 || i >= len(o) {
			return Undefined{}, nil
		}
		return string(o[i]), nil
	case Null, Undefined, nil:
		return nil, &ThrowError{Value: "cannot index " + describe(obj)}
	default:
		return Undefined{}, nil
	}
}

func (in *Interp) setIndex(obj, key, val Value) error {
	switch o := obj.(type) {
	case *Array:
		i := int(ToNumber(key))
		if i < 0 {
			return &ThrowError{Value: "negative array index"}
		}
		if err := in.grow(i - len(o.Elems)); err != nil { // the holes before i
			return err
		}
		for len(o.Elems) <= i {
			o.Elems = append(o.Elems, Undefined{})
		}
		if err := in.alloc(16); err != nil {
			return err
		}
		o.Elems[i] = val
		return nil
	case *Object:
		ks, err := in.toString(key)
		if err != nil {
			return err
		}
		if err := in.alloc(32 + len(ks)); err != nil {
			return err
		}
		o.Set(ks, val)
		return nil
	default:
		return &ThrowError{Value: "cannot index-assign " + TypeOf(obj)}
	}
}

type methodFn func(in *Interp, this Value, args []Value) (Value, error)

func bindMethod(name string, this Value, m methodFn) *Builtin {
	return &Builtin{Name: name, Fn: func(in *Interp, _ Value, args []Value) (Value, error) {
		return m(in, this, args)
	}}
}

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined{}
}

// arrayMethods is populated in init to break the initialization cycle
// through Interp.CallValue.
var arrayMethods map[string]methodFn

func init() {
	arrayMethods = map[string]methodFn{
		"push": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			if err := in.allocN(len(args), 16); err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, args...)
			return float64(len(a.Elems)), nil
		},
		"pop": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			if len(a.Elems) == 0 {
				return Undefined{}, nil
			}
			v := a.Elems[len(a.Elems)-1]
			a.Elems = a.Elems[:len(a.Elems)-1]
			return v, nil
		},
		"shift": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			if len(a.Elems) == 0 {
				return Undefined{}, nil
			}
			v := a.Elems[0]
			a.Elems = a.Elems[1:]
			return v, nil
		},
		"join": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
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
			a := this.(*Array)
			start, end := sliceBounds(len(a.Elems), arg(args, 0), arg(args, 1))
			if err := in.alloc(24 + 16*(end-start)); err != nil {
				return nil, err
			}
			return &Array{Elems: append([]Value{}, a.Elems[start:end]...)}, nil
		},
		"indexOf": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			for i, e := range a.Elems {
				if StrictEquals(e, arg(args, 0)) {
					return float64(i), nil
				}
			}
			return float64(-1), nil
		},
		"includes": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			for _, e := range a.Elems {
				if StrictEquals(e, arg(args, 0)) {
					return true, nil
				}
			}
			return false, nil
		},
		"concat": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			n := len(a.Elems)
			for _, v := range args {
				if b, ok := v.(*Array); ok {
					n += len(b.Elems)
				} else {
					n++
				}
			}
			if err := in.alloc(24 + 16*n); err != nil {
				return nil, err
			}
			out := &Array{Elems: append(make([]Value, 0, n), a.Elems...)}
			for _, v := range args {
				if b, ok := v.(*Array); ok {
					out.Elems = append(out.Elems, b.Elems...)
				} else {
					out.Elems = append(out.Elems, v)
				}
			}
			return out, nil
		},
		"map": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			if err := in.alloc(24 + 16*len(a.Elems)); err != nil {
				return nil, err
			}
			out := &Array{Elems: make([]Value, 0, len(a.Elems))}
			for i, e := range a.Elems {
				v, err := in.CallValue(arg(args, 0), Undefined{}, []Value{e, float64(i)})
				if err != nil {
					return nil, err
				}
				out.Elems = append(out.Elems, v)
			}
			return out, nil
		},
		"filter": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			out := &Array{}
			for i, e := range a.Elems {
				v, err := in.CallValue(arg(args, 0), Undefined{}, []Value{e, float64(i)})
				if err != nil {
					return nil, err
				}
				if Truthy(v) {
					out.Elems = append(out.Elems, e)
				}
			}
			if err := in.alloc(24 + 16*len(out.Elems)); err != nil {
				return nil, err
			}
			return out, nil
		},
		"forEach": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			for i, e := range a.Elems {
				if _, err := in.CallValue(arg(args, 0), Undefined{}, []Value{e, float64(i)}); err != nil {
					return nil, err
				}
			}
			return Undefined{}, nil
		},
		"reduce": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			acc := arg(args, 1)
			start := 0
			if _, isUndef := acc.(Undefined); isUndef && len(args) < 2 {
				if len(a.Elems) == 0 {
					return nil, &ThrowError{Value: "reduce of empty array with no initial value"}
				}
				acc = a.Elems[0]
				start = 1
			}
			for i := start; i < len(a.Elems); i++ {
				v, err := in.CallValue(arg(args, 0), Undefined{}, []Value{acc, a.Elems[i], float64(i)})
				if err != nil {
					return nil, err
				}
				acc = v
			}
			return acc, nil
		},
		"reverse": func(in *Interp, this Value, args []Value) (Value, error) {
			a := this.(*Array)
			for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
				a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
			}
			return a, nil
		},
	}
}

func sliceBounds(n int, startV, endV Value) (int, int) {
	start, end := 0, n
	if _, u := startV.(Undefined); !u {
		start = clampIndex(int(ToNumber(startV)), n)
	}
	if _, u := endV.(Undefined); !u {
		end = clampIndex(int(ToNumber(endV)), n)
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
		out := &Array{Elems: make([]Value, len(parts))}
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
		i := int(ToNumber(arg(args, 0)))
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return string(s[i]), nil
	},
	"charCodeAt": func(in *Interp, this Value, args []Value) (Value, error) {
		s := this.(string)
		i := int(ToNumber(arg(args, 0)))
		if i < 0 || i >= len(s) {
			return nan(), nil
		}
		return float64(s[i]), nil
	},
	"trim": func(in *Interp, this Value, args []Value) (Value, error) {
		return strings.TrimSpace(this.(string)), nil
	},
	"repeat": func(in *Interp, this Value, args []Value) (Value, error) {
		n := int(ToNumber(arg(args, 0)))
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

	console := NewObject()
	console.Set("log", &Builtin{Name: "console.log", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
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
		return Undefined{}, nil
	}})
	console.Set("error", console.Get("log"))
	g.Define("console", console)

	jsonObj := NewObject()
	jsonObj.Set("stringify", &Builtin{Name: "JSON.stringify", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		var sb strings.Builder
		writeJSON(&sb, arg(args, 0), 0, i.room())
		if err := i.alloc(sb.Len()); err != nil {
			return nil, err
		}
		return sb.String(), nil
	}})
	jsonObj.Set("parse", &Builtin{Name: "JSON.parse", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		s, ok := arg(args, 0).(string)
		if !ok {
			return nil, &ThrowError{Value: "JSON.parse requires a string"}
		}
		return parseJSON(i, s)
	}})
	g.Define("JSON", jsonObj)

	mathObj := NewObject()
	num1 := func(name string, f func(float64) float64) {
		mathObj.Set(name, &Builtin{Name: "Math." + name, Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
			return f(ToNumber(arg(args, 0))), nil
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
	mathObj.Set("pow", &Builtin{Name: "Math.pow", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return math.Pow(ToNumber(arg(args, 0)), ToNumber(arg(args, 1))), nil
	}})
	mathObj.Set("max", &Builtin{Name: "Math.max", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, ToNumber(a))
		}
		return out, nil
	}})
	mathObj.Set("min", &Builtin{Name: "Math.min", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, ToNumber(a))
		}
		return out, nil
	}})
	mathObj.Set("random", &Builtin{Name: "Math.random", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Random != nil {
			return i.hooks.Random(), nil
		}
		return 0.5, nil // deterministic default
	}})
	mathObj.Set("PI", math.Pi)
	g.Define("Math", mathObj)

	objectObj := NewObject()
	objectObj.Set("keys", &Builtin{Name: "Object.keys", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return &Array{}, nil
		}
		ks := o.Keys()
		if err := i.alloc(24 + 16*len(ks)); err != nil {
			return nil, err
		}
		out := &Array{Elems: make([]Value, len(ks))}
		for n, k := range ks {
			out.Elems[n] = k
		}
		return out, nil
	}})
	objectObj.Set("values", &Builtin{Name: "Object.values", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return &Array{}, nil
		}
		ks := o.Keys()
		if err := i.alloc(24 + 16*len(ks)); err != nil {
			return nil, err
		}
		out := &Array{}
		for _, k := range ks {
			out.Elems = append(out.Elems, o.Get(k))
		}
		return out, nil
	}})
	objectObj.Set("assign", &Builtin{Name: "Object.assign", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		dst, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, &ThrowError{Value: "Object.assign target must be an object"}
		}
		for _, src := range args[1:] {
			if so, ok := src.(*Object); ok {
				for _, k := range so.Keys() {
					if err := i.alloc(32 + len(k)); err != nil {
						return nil, err
					}
					dst.Set(k, so.Get(k))
				}
			}
		}
		return dst, nil
	}})
	g.Define("Object", objectObj)

	arrayObj := NewObject()
	arrayObj.Set("isArray", &Builtin{Name: "Array.isArray", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		_, ok := arg(args, 0).(*Array)
		return ok, nil
	}})
	g.Define("Array", arrayObj)

	dateObj := NewObject()
	dateObj.Set("now", &Builtin{Name: "Date.now", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Now != nil {
			return i.hooks.Now(), nil
		}
		return 0.0, nil
	}})
	g.Define("Date", dateObj)

	// Host bridge: the workload corpus calls these.
	httpObj := NewObject()
	httpObj.Set("get", &Builtin{Name: "http.get", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
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
	g.Define("http", httpObj)

	g.Define("spin", &Builtin{Name: "spin", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Spin != nil {
			i.hooks.Spin(ToNumber(arg(args, 0)))
		}
		return Undefined{}, nil
	}})
	g.Define("sleep", &Builtin{Name: "sleep", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if i.hooks.Sleep != nil {
			i.hooks.Sleep(ToNumber(arg(args, 0)))
		}
		return Undefined{}, nil
	}})
	g.Define("parseInt", &Builtin{Name: "parseInt", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return math.Trunc(ToNumber(arg(args, 0))), nil
	}})
	g.Define("parseFloat", &Builtin{Name: "parseFloat", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return ToNumber(arg(args, 0)), nil
	}})
	g.Define("String", &Builtin{Name: "String", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
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
	g.Define("Number", &Builtin{Name: "Number", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		return ToNumber(arg(args, 0)), nil
	}})
	g.Define("isNaN", &Builtin{Name: "isNaN", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		n := ToNumber(arg(args, 0))
		return n != n, nil
	}})
	g.Define("Error", &Builtin{Name: "Error", Fn: func(i *Interp, _ Value, args []Value) (Value, error) {
		if err := i.alloc(64); err != nil {
			return nil, err
		}
		o := NewObject()
		o.Set("message", arg(args, 0))
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
		a := this.(*Array)
		cmp, hasCmp := arg(args, 0).(*Closure)
		if !hasCmp {
			return a, in.sortByString(a)
		}
		var sortErr error
		sortStable(a.Elems, func(x, y Value) bool {
			if sortErr != nil {
				return false
			}
			v, err := in.CallValue(cmp, Undefined{}, []Value{x, y})
			if err != nil {
				sortErr = err
				return false
			}
			return ToNumber(v) < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
		return a, nil
	}
	arrayMethods["some"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*Array)
		for i, e := range a.Elems {
			v, err := in.CallValue(arg(args, 0), Undefined{}, []Value{e, float64(i)})
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return true, nil
			}
		}
		return false, nil
	}
	arrayMethods["every"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*Array)
		for i, e := range a.Elems {
			v, err := in.CallValue(arg(args, 0), Undefined{}, []Value{e, float64(i)})
			if err != nil {
				return nil, err
			}
			if !Truthy(v) {
				return false, nil
			}
		}
		return true, nil
	}
	arrayMethods["find"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*Array)
		for i, e := range a.Elems {
			v, err := in.CallValue(arg(args, 0), Undefined{}, []Value{e, float64(i)})
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return e, nil
			}
		}
		return Undefined{}, nil
	}
	arrayMethods["flat"] = func(in *Interp, this Value, args []Value) (Value, error) {
		a := this.(*Array)
		n := 0
		for _, e := range a.Elems {
			if inner, ok := e.(*Array); ok {
				n += len(inner.Elems)
			} else {
				n++
			}
		}
		if err := in.alloc(24 + 16*n); err != nil {
			return nil, err
		}
		out := &Array{Elems: make([]Value, 0, n)}
		for _, e := range a.Elems {
			if inner, ok := e.(*Array); ok {
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
	n := int(ToNumber(arg(args, 0)))
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
	if count > (MaxHostBytes-len(s))/(len(nw)-len(old)) {
		return ErrHostMemory
	}
	return in.alloc(len(s) + count*(len(nw)-len(old)))
}

// sortByString sorts a in JavaScript's default order, by the elements'
// string renderings. Each element is rendered once, up front, so the
// renderings are charged once rather than on every comparison.
func (in *Interp) sortByString(a *Array) error {
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
