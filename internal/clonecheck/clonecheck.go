// Package clonecheck detects mutable state shared between an object and
// its supposed deep clone, and describes where two object graphs hold
// different state. A core is copied by assignment, and a channel by an
// assignment plus a copy of its core; a field that holds a pointer,
// slice or map would make either copy share state with its original.
// Walking both object graphs with reflection and flagging any aliased
// mutable memory turns that silent corruption into a failing test. Diff
// prints the differences the simulator's equivalence oracles report.
package clonecheck

import (
	"fmt"
	"reflect"
	"runtime"
)

// Option configures a Shared walk.
type Option func(*config)

type config struct {
	allowed map[reflect.Type]bool
}

// AllowType marks the types of the sample values as immutable by
// convention: instances shared between original and clone are not
// reported, and the walk does not descend into them. Pointer, slice, and
// array wrappers are stripped when matching, so AllowType(isa.Inst{})
// covers a shared []isa.Inst backing array and AllowType(isa.Block{})
// covers shared *isa.Block layout pointers.
func AllowType(samples ...any) Option {
	return func(c *config) {
		for _, s := range samples {
			c.allowed[reflect.TypeOf(s)] = true
		}
	}
}

// Shared walks the full object graphs of a and b and returns a
// description of every pointer target, slice backing array, map, or
// channel reachable from both — each one memory the clone implementation
// forgot to copy. The two walks are independent, so aliasing is caught
// even when the shared memory sits at different paths in the two graphs
// (a clone's frontend pointing at the original's cache, say). Functions
// are skipped: closures legitimately share code pointers, and their
// captured state is invisible to reflection anyway. An empty result
// means the clone shares no mutable memory with its original.
func Shared(a, b any, opts ...Option) []string {
	cfg := &config{allowed: map[reflect.Type]bool{}}
	for _, o := range opts {
		o(cfg)
	}
	w := &walker{cfg: cfg, seen: map[loc]string{}, visited: map[loc]bool{}}
	w.walk(reflect.ValueOf(a), "")
	w.collecting = true
	w.visited = map[loc]bool{}
	w.walk(reflect.ValueOf(b), "")
	// Addresses are only comparable while both graphs are live.
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	return w.found
}

// loc identifies one allocation as seen through a typed reference; the
// type disambiguates coincident addresses (a struct and its first field,
// a slice backing array and its first element).
type loc struct {
	ptr uintptr
	t   reflect.Type
}

type walker struct {
	cfg        *config
	seen       map[loc]string // filled during the first (original) walk
	collecting bool           // true during the second (clone) walk
	visited    map[loc]bool
	found      []string
}

// mark records (first walk) or checks (second walk) one allocation. It
// reports whether the allocation is shared, so the clone walk can stop
// descending — everything under a shared pointer is trivially shared.
func (w *walker) mark(ptr uintptr, t reflect.Type, path, what string) bool {
	if path == "" {
		path = "(root)"
	}
	l := loc{ptr, t}
	if !w.collecting {
		if _, ok := w.seen[l]; !ok {
			w.seen[l] = path
		}
		return false
	}
	orig, ok := w.seen[l]
	if ok {
		w.found = append(w.found, fmt.Sprintf("%s: %s (original's %s)", path, what, orig))
	}
	return ok
}

// allowedType strips pointer/slice/array wrappers and reports whether
// the base type was allow-listed.
func (w *walker) allowedType(t reflect.Type) bool {
	for {
		if w.cfg.allowed[t] {
			return true
		}
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			t = t.Elem()
		default:
			return false
		}
	}
}

func (w *walker) walk(v reflect.Value, path string) {
	if !v.IsValid() {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.allowedType(v.Type()) {
			return
		}
		if w.mark(v.Pointer(), v.Type(), path, fmt.Sprintf("shared %s", v.Type())) {
			return
		}
		key := loc{v.Pointer(), v.Type()}
		if w.visited[key] {
			return
		}
		w.visited[key] = true
		w.walk(v.Elem(), path)

	case reflect.Slice:
		if w.allowedType(v.Type()) {
			return
		}
		if v.Cap() > 0 && w.mark(v.Pointer(), v.Type(), path, fmt.Sprintf("shared backing array of %s", v.Type())) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}

	case reflect.Array:
		if w.allowedType(v.Type()) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}

	case reflect.Map:
		if v.IsNil() || w.allowedType(v.Type()) {
			return
		}
		if w.mark(v.Pointer(), v.Type(), path, fmt.Sprintf("shared %s", v.Type())) {
			return
		}
		key := loc{v.Pointer(), v.Type()}
		if w.visited[key] {
			return
		}
		w.visited[key] = true
		iter := v.MapRange()
		for iter.Next() {
			w.walk(iter.Value(), fmt.Sprintf("%s[%v]", path, iter.Key()))
		}

	case reflect.Chan, reflect.UnsafePointer:
		if v.Pointer() != 0 {
			w.mark(v.Pointer(), v.Type(), path, fmt.Sprintf("shared %s", v.Type()))
		}

	case reflect.Interface:
		if v.IsNil() {
			return
		}
		w.walk(v.Elem(), path)

	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			p := name
			if path != "" {
				p = path + "." + name
			}
			w.walk(v.Field(i), p)
		}

	case reflect.Func:
		// Skipped: closures share code pointers by construction, and
		// captured variables are not reachable through reflection.
	}
}
