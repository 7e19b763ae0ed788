package lang

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

// GoValue converts a MiniJS value into plain Go data (for host-side
// inspection of results).
func GoValue(v Value) interface{} {
	switch t := v.(type) {
	case nil, undefined:
		return nil
	case null:
		return nil
	case bool:
		return t
	case float64:
		return t
	case string:
		return t
	case *array:
		out := make([]interface{}, len(t.Elems))
		for i, e := range t.Elems {
			out[i] = GoValue(e)
		}
		return out
	case *object:
		out := make(map[string]interface{})
		for _, k := range t.ownKeys() {
			out[k] = GoValue(t.get(k))
		}
		return out
	}
	return ToString(v)
}

// SetMaxSteps overrides the default step budget (0 disables the limit).
func (in *Interp) SetMaxSteps(n int64) { in.maxSteps = n }
