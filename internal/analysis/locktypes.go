package analysis

import "go/types"

// lockTypes is the set of sync primitives whose Lock/Unlock calls the call
// graph records for the lockorder analyzer.
var lockTypes = map[string]bool{
	"sync.Mutex":   true,
	"sync.RWMutex": true,
}

// containsLock reports whether t (held by value) embeds a mutex, directly or
// through struct/array nesting.
func containsLock(t types.Type) bool {
	return lockIn(t, make(map[types.Type]bool))
}

func lockIn(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj.Pkg() != nil && lockTypes[obj.Pkg().Path()+"."+obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lockIn(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return lockIn(u.Elem(), seen)
	}
	return false
}
