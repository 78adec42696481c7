package clonecheck

import (
	"reflect"
	"runtime"
	"sync"
)

// Size returns the bytes of memory v's object graph occupies, which is
// what a deep clone of v costs: the value itself and every allocation
// reachable from it through pointers, slices, maps and interfaces, each
// counted once however many references reach it. Slice backing arrays
// count at their capacity and maps at their entries' size. Functions,
// channels and strings count nothing: a clone shares code, channels and
// immutable text with its original.
func Size(v any) int {
	s := &sizer{seen: map[loc]bool{}}
	if rv := reflect.ValueOf(v); rv.IsValid() {
		if rv.Kind() != reflect.Pointer {
			s.bytes += int(rv.Type().Size())
		}
		s.walk(rv)
	}
	runtime.KeepAlive(v)
	return s.bytes
}

type sizer struct {
	seen  map[loc]bool
	bytes int
}

// first reports whether an allocation is met for the first time.
func (s *sizer) first(ptr uintptr, t reflect.Type) bool {
	l := loc{ptr, t}
	if s.seen[l] {
		return false
	}
	s.seen[l] = true
	return true
}

// refs describes which parts of a type's values can reach memory Size
// counts beyond their own bytes, so the walk skips plain data wholesale.
type refs struct {
	any    bool  // some part can
	fields []int // for a struct, the indices of the fields that can
}

// refsMemo caches refsOf by type across calls.
var refsMemo sync.Map // reflect.Type -> *refs

func refsOf(t reflect.Type) *refs {
	if r, ok := refsMemo.Load(t); ok {
		return r.(*refs)
	}
	r := &refs{}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		r.any = true
	case reflect.Array:
		r.any = refsOf(t.Elem()).any
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if refsOf(t.Field(i).Type).any {
				r.fields = append(r.fields, i)
			}
		}
		r.any = len(r.fields) > 0
	}
	refsMemo.Store(t, r)
	return r
}

// walk adds the allocations v references; v's own bytes are counted by
// whatever holds it.
func (s *sizer) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !s.first(v.Pointer(), v.Type()) {
			return
		}
		s.bytes += int(v.Type().Elem().Size())
		s.walk(v.Elem())

	case reflect.Slice:
		if v.Cap() == 0 || !s.first(v.Pointer(), v.Type()) {
			return
		}
		s.bytes += v.Cap() * int(v.Type().Elem().Size())
		if refsOf(v.Type().Elem()).any {
			for i := 0; i < v.Len(); i++ {
				s.walk(v.Index(i))
			}
		}

	case reflect.Array:
		if refsOf(v.Type().Elem()).any {
			for i := 0; i < v.Len(); i++ {
				s.walk(v.Index(i))
			}
		}

	case reflect.Struct:
		for _, i := range refsOf(v.Type()).fields {
			s.walk(v.Field(i))
		}

	case reflect.Map:
		if v.IsNil() || !s.first(v.Pointer(), v.Type()) {
			return
		}
		s.bytes += v.Len() * int(v.Type().Key().Size()+v.Type().Elem().Size())
		for it := v.MapRange(); it.Next(); {
			s.walk(it.Key())
			s.walk(it.Value())
		}

	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		if e.Kind() != reflect.Pointer {
			s.bytes += int(e.Type().Size()) // boxed by the interface
		}
		s.walk(e)
	}
}
