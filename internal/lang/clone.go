package lang

// Clone returns a copy of the interpreter's state wired to hooks: the
// scope chain, every object (with its key order), array and closure
// reachable from the globals, and the step and growth counters. The
// copy is memoised by pointer, so values the original shares (two
// globals naming one object, a closure's captured scope, a cycle) are
// shared in the copy too, and nothing in the copy reaches the
// original's mutable state: each runs as if it had evaluated the same
// sources itself.
//
// Parsed code (a closure's function literal) and host functions are
// shared, not copied. Nothing writes either after parsing: evaluation
// only reads the tree, and a guest can assign properties only on
// objects and arrays. Two clones of one interpreter may therefore run
// on different goroutines, provided nothing runs the original.
func (in *Interp) Clone(hooks Hooks) *Interp {
	c := make(cloner, 64)
	return &Interp{
		globals:  c.env(in.globals),
		hooks:    hooks,
		steps:    in.steps,
		maxSteps: in.maxSteps,
		grown:    in.grown,
	}
}

// cloner maps each original pointer to its copy.
type cloner map[any]any

func (c cloner) env(e *env) *env {
	if e == nil {
		return nil
	}
	if cp, ok := c[e]; ok {
		return cp.(*env)
	}
	cp := &env{vars: make(map[string]Value, len(e.vars))}
	c[e] = cp
	cp.parent = c.env(e.parent)
	for name, v := range e.vars {
		cp.vars[name] = c.value(v)
	}
	return cp
}

func (c cloner) value(v Value) Value {
	switch t := v.(type) {
	case *object:
		if cp, ok := c[t]; ok {
			return cp
		}
		cp := &object{props: make(map[string]Value, len(t.props)), keys: append([]string(nil), t.keys...)}
		c[t] = cp
		for k, pv := range t.props {
			cp.props[k] = c.value(pv)
		}
		return cp
	case *array:
		if cp, ok := c[t]; ok {
			return cp
		}
		cp := &array{Elems: make([]Value, len(t.Elems))}
		c[t] = cp
		for i, e := range t.Elems {
			cp.Elems[i] = c.value(e)
		}
		return cp
	case *closure:
		if cp, ok := c[t]; ok {
			return cp
		}
		cp := &closure{Fn: t.Fn}
		c[t] = cp
		cp.Env = c.env(t.Env)
		return cp
	case *builtin:
		// A method read off an array is bound to that array: rebind it
		// to the copy. Every other host function holds no guest state.
		recv, ok := t.recv.(*array)
		if !ok {
			return t
		}
		if cp, ok := c[t]; ok {
			return cp
		}
		cp := &builtin{Name: t.Name, method: t.method}
		c[t] = cp
		cp.recv = c.value(recv)
		return cp
	}
	return v
}
