package clonecheck

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"unsafe"
)

// maxDiffs bounds a Diff report; past it the graphs are plainly
// different and more paths would only bury the first ones.
const maxDiffs = 20

// Diff walks the object graphs of a and b side by side and describes
// every place where b is not a faithful copy of a: a scalar with another
// value (floats compared bit for bit), a slice, array or map with other
// elements, a nil pointer against a non-nil one, an interface holding
// another type, or a different sharing structure — one object reached
// from two places in a but two objects in b, as when a clone's frontend
// gets its own copy of the core's L1I instead of sharing it. Slices are
// compared by length and elements, so nil equals empty and spare
// capacity is ignored. Functions are skipped, as in Shared. An empty
// result means the two graphs hold equal state.
func Diff(a, b any) []string {
	d := &differ{ab: map[loc]uintptr{}, ba: map[loc]uintptr{}, plain: map[reflect.Type]bool{}}
	d.diff(reflect.ValueOf(a), reflect.ValueOf(b), "")
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	return d.found
}

type differ struct {
	ab, ba map[loc]uintptr // pointer pairing seen so far, both directions
	plain  map[reflect.Type]bool
	found  []string
}

func (d *differ) report(path, format string, args ...any) {
	if path == "" {
		path = "(root)"
	}
	d.found = append(d.found, path+": "+fmt.Sprintf(format, args...))
}

// pair records that a's reference pa corresponds to b's pb. It reports
// whether the walk should stop here: the pair was walked already, or one
// side was already paired with something else (a sharing mismatch).
func (d *differ) pair(pa, pb uintptr, t reflect.Type, path string) bool {
	qb, okA := d.ab[loc{pa, t}]
	qa, okB := d.ba[loc{pb, t}]
	if !okA && !okB {
		d.ab[loc{pa, t}], d.ba[loc{pb, t}] = pb, pa
		return false
	}
	if !okA || !okB || qb != pb || qa != pa {
		d.report(path, "%s shared differently", t)
	}
	return true
}

func (d *differ) diff(a, b reflect.Value, path string) {
	if len(d.found) >= maxDiffs {
		return
	}
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		d.report(path, "%v vs %v", a, b)
		return
	}
	if !a.IsValid() {
		return
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.report(path, "%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.report(path, "%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.report(path, "%d vs %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			d.report(path, "%v vs %v", a.Float(), b.Float())
		}
	case reflect.Complex64, reflect.Complex128:
		if a.Complex() != b.Complex() {
			d.report(path, "%v vs %v", a.Complex(), b.Complex())
		}
	case reflect.String:
		if a.String() != b.String() {
			d.report(path, "%q vs %q", a.String(), b.String())
		}

	case reflect.Pointer, reflect.Map:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, "nil %v vs nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if d.pair(a.Pointer(), b.Pointer(), a.Type(), path) {
			return
		}
		if a.Kind() == reflect.Pointer {
			d.diff(a.Elem(), b.Elem(), path)
			return
		}
		if a.Len() != b.Len() {
			d.report(path, "%d entries vs %d", a.Len(), b.Len())
			return
		}
		for iter := a.MapRange(); iter.Next(); {
			k := iter.Key()
			vb := b.MapIndex(k)
			if !vb.IsValid() {
				d.report(path, "key %v missing", k)
				continue
			}
			d.diff(iter.Value(), vb, fmt.Sprintf("%s[%v]", path, k))
		}

	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, "nil %v vs nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		d.diff(a.Elem(), b.Elem(), path)

	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			d.report(path, "length %d vs %d", a.Len(), b.Len())
			return
		}
		if d.sameBytes(a, b) {
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}

	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			p := t.Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			d.diff(a.Field(i), b.Field(i), p)
		}

		// Func: skipped, as in Shared. Chan, UnsafePointer: opaque.
	}
}

// sameBytes reports whether a and b, slices or arrays of one length,
// hold plain elements (see isPlain) with the same bytes, which makes
// them equal elements. It answers false when it cannot tell, so the
// caller walks the elements: for an unaddressable array, or bytes that
// differ only in padding.
func (d *differ) sameBytes(a, b reflect.Value) bool {
	t := a.Type().Elem()
	if !d.isPlain(t) {
		return false
	}
	n := a.Len() * int(t.Size())
	if a.Kind() == reflect.Array {
		if !a.CanAddr() || !b.CanAddr() {
			return false
		}
		a, b = a.Addr(), b.Addr()
	}
	return bytes.Equal(unsafe.Slice((*byte)(a.UnsafePointer()), n), unsafe.Slice((*byte)(b.UnsafePointer()), n))
}

// isPlain reports whether values of t are booleans, integers and floats
// only, so that diff finds two of them equal whenever their bytes are.
func (d *differ) isPlain(t reflect.Type) bool {
	if p, ok := d.plain[t]; ok {
		return p
	}
	p := false
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		p = true
	case reflect.Array:
		p = d.isPlain(t.Elem())
	case reflect.Struct:
		p = true
		for i := 0; i < t.NumField() && p; i++ {
			p = d.isPlain(t.Field(i).Type)
		}
	}
	d.plain[t] = p
	return p
}
