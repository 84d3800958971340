package analysis

import "go/types"

// pointerBearing reports whether values of t can hold references the
// garbage collector must trace (or that could alias a recycled
// object): pointers, slices, maps, channels, functions, interfaces,
// strings, and aggregates containing any of those.
func pointerBearing(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerBearing(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return pointerBearing(u.Elem())
	}
	return false
}
